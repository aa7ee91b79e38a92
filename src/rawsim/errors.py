"""Exception types shared across the simulator."""


class InvalidConfigError(ValueError):
    """A parameter value violates its documented constraints."""


class PlacementParseError(ValueError):
    """A placement file is malformed; the message names the offending line."""

