"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Model parameters violate a structural requirement (named in the message)."""


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class SingularPointError(DomainError):
    """(phi, beta1) point where U or V is undefined (division by zero or V <= 1)."""


class TraceStructureError(ValueError):
    """An exclusion trace violates anchoring or monotonicity (not a sign failure)."""


class SpiralSeedError(RuntimeError):
    """The corner sign seeds required to start the exclusion spiral are absent."""


class GuardError(RuntimeError):
    """A brute-force guard refused an instance that is too large.

    The counting oracle stops at n <= 3 and m <= 2.  Its largest instance,
    counting_oracle(3, 0.5) (46,656 formulas x 8 assignments), takes ~0.1 s
    and peaks at 13 MB (tracemalloc).  The next, (3, 1.0), has 6^9 =
    10,077,696 formulas; extrapolated linearly from a 279,936-formula slice
    (0.8 s, 105 MB beyond the 90 MB formula stack) it would take ~30 s and
    ~4 GB.  Measured on a 2-core x86-64 VM, Python 3.11, numpy 2.4.
    """
