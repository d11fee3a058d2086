"""Error types shared across modules."""


class ConfigError(ValueError):
    """Invalid or unsatisfiable scenario/pipeline configuration."""


class ResourceError(RuntimeError):
    """A run lost its work for want of a resource: memory or a worker process."""
