"""Exception types shared across the package."""


class DepthError(ValueError):
    """Not enough data (moments, coefficients, polynomials) for the request."""


class DomainError(ValueError):
    """A parameter or derived quantity lies outside the operation's domain,
    e.g. a relation outside a checker's non-degeneracy hypothesis."""


class ContractError(ValueError):
    """Independent computations disagree: an internal inconsistency, never
    a fault of the input. Only ``casebook`` raises it."""


class FormatError(ValueError):
    """Malformed serialized input: bad rational string, wrong JSON shape, or
    violated index conventions."""
