"""Error types shared across modules."""


class ConfigError(ValueError):
    """Invalid or unsatisfiable scenario/pipeline configuration."""
