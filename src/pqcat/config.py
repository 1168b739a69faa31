"""Resource guards and the one environment-backed default.

PQCAT_PRECISION sets the working precision in bits for the threshold
inequality (default 256, at least 64 and at most PRECISION_CAP); the
--precision flag takes precedence over it.
"""

import os


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
EXCEPTION_MULTISET_LIMIT = 10**6  # most residue-class multisets exception_values lists:
                                  # (2,11) has 705,420 and takes about 1 s on 2 vCPUs
RESIDUE_PRIME_LIMIT = 3000        # largest p and s_max for the q = 2 residue sets:
                                  # `residues --sequence 3000` takes about 1.5 s on 2 vCPUs


def env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def default_precision() -> int:
    return env_int("PQCAT_PRECISION", DEFAULT_PRECISION)
