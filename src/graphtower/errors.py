"""Exception hierarchy shared across the package."""


class GraphTowerError(Exception):
    """Base class for all package errors."""


class BoundExceededError(GraphTowerError):
    """A configured resource bound (group order, matrix size, ...) was exceeded."""


class DisconnectedError(GraphTowerError):
    """An operation that requires a connected graph received a disconnected one."""


class ConfigError(GraphTowerError):
    """A job configuration file is invalid or inconsistent."""


class PreconditionError(GraphTowerError, ValueError):
    """An operation was called outside its documented domain."""
