"""Error taxonomy shared by all modules."""


class BoseloopsError(Exception):
    """Base class for all library errors."""


class DomainError(BoseloopsError, ValueError):
    """A parameter lies outside its mathematical domain."""


class DimensionMismatch(BoseloopsError, ValueError):
    """Point dimension does not match the trap dimension."""


class BracketError(BoseloopsError, RuntimeError):
    """A root could not be bracketed."""


class ModelError(BoseloopsError, TypeError):
    """Operation applied to an unsupported trap model."""


class RegimeError(BoseloopsError, ValueError):
    """Operation undefined (or ambiguous) in the requested physical regime,
    e.g. an asymptotic comparison within a critical band."""


class OriginError(DomainError):
    """Delta-scaled density requested at the origin, where the scaling
    family degenerates."""


class TruncationWarning(UserWarning):
    """Emitted when a reported tail bound or quadrature error estimate
    exceeds the requested tolerance; carries the bound as its argument."""


def check_positive(obj, *names: str) -> None:
    """Raise DomainError naming the first of the fields names of obj that is
    not positive; NaN is not."""
    for name in names:
        value = getattr(obj, name)
        if not value > 0:
            raise DomainError(f"{name} must be positive, not {value!r}")
