"""Exception types shared across the simfuse package, and the setting checks."""


class SimfuseError(Exception):
    """Base class for all simfuse errors."""


class EmptySentence(SimfuseError):
    """Raised when a sentence would have no words (empty or whitespace-only input)."""


class FormatError(SimfuseError):
    """Raised on malformed input files or annotation strings."""


class EmptyCorpus(SimfuseError):
    """Raised when corpus statistics are requested for an empty dataset."""


class DimensionError(SimfuseError):
    """Raised on mismatched vector/matrix dimensions or sequence lengths."""


class LabelKindError(SimfuseError):
    """Raised when an operation receives a dataset of the wrong label kind."""


class ConfigError(SimfuseError):
    """Raised on invalid configuration values or inconsistent modes."""


class DegenerateData(SimfuseError):
    """Raised when training data cannot support learning (e.g. one class only)."""


class EmptyEval(SimfuseError):
    """Raised when an evaluation is requested over zero pairs."""


class UndefinedCorrelation(SimfuseError):
    """Raised when a correlation coefficient is undefined (zero variance)."""


def check_int(key: str, value, minimum: int) -> None:
    """ConfigError naming ``key`` unless ``value`` is an int (not a bool) >= ``minimum``."""
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")


def check_choice(key: str, value, choices: tuple) -> None:
    """ConfigError naming ``key`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(f"unknown {key} {value!r}")
