"""Resource guards, defaults and the exceptions that report a guard.

Nothing here reads the environment: the threshold precision comes from
the --precision flag or InequalityInstance(precision=...), and None means
DEFAULT_PRECISION (at least 64 and at most PRECISION_CAP bits).
"""


class SizeGuardError(Exception):
    """A requested computation exceeds a configured resource guard."""


class PrecisionError(SizeGuardError):
    """An interval comparison stayed indeterminate at the precision cap, or a
    starting precision above the cap was requested."""


class ThresholdSearchError(SizeGuardError):
    """No sign change found below the configured exponent cap."""


DEFAULT_EXACT_LIMIT = 10**6       # largest s*n for exact binomial evaluation
DEFAULT_SIEVE_LIMIT = 10**8       # largest admissible prime-sieve target
DEFAULT_PRECISION = 256
PRECISION_CAP = 4096
DEFAULT_EXPONENT_CAP = 1 << 14    # threshold search gives up past 2**cap
EXCEPTION_OUTPUT_BYTES = 2**30    # most bytes exception_values may build: its bound on the
                                  # number of values times 150 + 0.75 * bits each, about
                                  # 2-3x the measured peak a value of `pqcat exceptions`
RESIDUE_PRIME_LIMIT = 3000        # largest p and s_max for the q = 2 residue sets:
                                  # `residues --sequence 3000` takes about 1.5 s on 2 vCPUs
