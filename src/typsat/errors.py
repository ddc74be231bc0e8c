"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Model parameters violate a structural requirement (named in the message)."""


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class TraceStructureError(ValueError):
    """An exclusion trace violates anchoring or monotonicity (not a sign failure)."""


class SpiralSeedError(RuntimeError):
    """The corner sign seeds required to start the exclusion spiral are absent."""


class GuardError(RuntimeError):
    """A brute-force guard refused an instance that is too large.

    The counting oracle's bounds and their measured cost are in
    pipeline.counting_oracle's docstring.
    """
