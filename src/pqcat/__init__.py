"""pqcat: prime-power divisibility of Fuss-Catalan numbers
F(s, n) = C(s n, n) / ((s - 1) n + 1) and squarefree binomial coefficients
C(p**q n + 1, n), with exact digit-level arithmetic throughout.

Every public name is imported from its home module on first access
(PEP 562), so `import pqcat` loads neither numpy nor mpmath; a name from
analytic, catalan or modular loads them when it is first used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": (
        "GENERAL_CONSTANTS",
        "InequalityConstants",
        "InequalityInstance",
        "find_tau0",
        "inequality_holds",
        "inequality_sides",
        "specialized_constants",
        "tau1",
    ),
    "catalan": ("catalan_exact", "catalan_residue_mod_pq", "catalan_valuation", "divides"),
    "config": ("PrecisionError", "SizeGuardError", "ThresholdSearchError"),
    "digits": (
        "DigitVector",
        "PrimePower",
        "binom_valuation",
        "is_prime",
        "kummer_carries",
        "legendre_valuation_factorial",
        "sigma_p",
        "to_base_p",
    ),
    "exceptions": (
        "ExceptionForm",
        "GeneralSum",
        "OddPowerSum",
        "PurePower",
        "count_exceptions_q2",
        "enumerate_exceptions",
        "exception_values",
        "residue_of_exception",
    ),
    "modular": (
        "GranvilleResult",
        "factorial_p_mod",
        "granville_binom_mod_pq",
        "inverse_mod_pq",
        "lucas_binom_mod_p",
    ),
    "residues": (
        "Partition",
        "multinomial",
        "partitions_of",
        "residue_count_sequence",
        "residue_set_p2",
    ),
    "squarefree": (
        "ScanReport",
        "is_squarefree_binom",
        "primes_upto",
        "scan_candidates",
        "verify_divisibility_filter",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
