"""Exception types shared across the package."""


class RewardRouteError(Exception):
    """Base class for all rewardroute errors."""


class DataFormatError(RewardRouteError):
    """Malformed or inconsistent input data (dataset, registry, rules, config)."""


class CheckpointError(RewardRouteError):
    """Unreadable, corrupt, or incompatible router checkpoint."""


class DivergenceError(RewardRouteError):
    """Training produced a non-finite loss or weight, usually a too-large learning rate."""

    def __init__(self, message: str, last_finite_loss: float | None = None):
        super().__init__(message)
        self.last_finite_loss = last_finite_loss


class GatewayError(RewardRouteError):
    """Gateway could not start or is misconfigured."""
