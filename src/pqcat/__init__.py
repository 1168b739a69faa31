"""pqcat: prime-power divisibility of Fuss-Catalan numbers
F(s, n) = C(s n, n) / ((s - 1) n + 1) and squarefree binomial coefficients
C(p**q n + 1, n), with exact digit-level arithmetic throughout.
"""

from .analytic import (
    GENERAL_CONSTANTS,
    InequalityConstants,
    InequalityInstance,
    find_tau0,
    inequality_holds,
    inequality_sides,
    specialized_constants,
    sqrt_gap_lower_bound,
    tau1,
)
from .catalan import catalan_exact, catalan_residue_mod_pq, catalan_valuation, divides
from .config import PrecisionError, SizeGuardError, ThresholdSearchError
from .digits import (
    DigitVector,
    PrimePower,
    binom_valuation,
    is_prime,
    kummer_carries,
    legendre_valuation_factorial,
    sigma_p,
    to_base_p,
)
from .exceptions import (
    ExceptionForm,
    GeneralSum,
    OddPowerSum,
    PurePower,
    count_exceptions_q2,
    enumerate_exceptions,
    exception_values,
    residue_of_exception,
)
from .modular import (
    GranvilleResult,
    factorial_p_mod,
    granville_binom_mod_pq,
    inverse_mod_pq,
    lucas_binom_mod_p,
)
from .residues import (
    Partition,
    multinomial,
    partitions_of,
    residue_count_sequence,
    residue_set_p2,
)
from .squarefree import (
    ScanReport,
    is_squarefree_binom,
    primes_upto,
    scan_candidates,
    verify_divisibility_filter,
)

__version__ = "0.1.0"

__all__ = [
    "DigitVector",
    "ExceptionForm",
    "GENERAL_CONSTANTS",
    "GeneralSum",
    "GranvilleResult",
    "InequalityConstants",
    "InequalityInstance",
    "OddPowerSum",
    "Partition",
    "PrecisionError",
    "PrimePower",
    "PurePower",
    "ScanReport",
    "SizeGuardError",
    "ThresholdSearchError",
    "binom_valuation",
    "catalan_exact",
    "catalan_residue_mod_pq",
    "catalan_valuation",
    "count_exceptions_q2",
    "divides",
    "enumerate_exceptions",
    "exception_values",
    "factorial_p_mod",
    "find_tau0",
    "granville_binom_mod_pq",
    "inequality_holds",
    "inequality_sides",
    "inverse_mod_pq",
    "is_prime",
    "is_squarefree_binom",
    "kummer_carries",
    "legendre_valuation_factorial",
    "lucas_binom_mod_p",
    "multinomial",
    "partitions_of",
    "primes_upto",
    "residue_count_sequence",
    "residue_of_exception",
    "residue_set_p2",
    "scan_candidates",
    "sigma_p",
    "specialized_constants",
    "sqrt_gap_lower_bound",
    "tau1",
    "to_base_p",
    "verify_divisibility_filter",
]
