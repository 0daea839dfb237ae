"""Exception types shared across the library, and the bound check."""


class TokfstError(Exception):
    """Base class for all errors raised by this library."""


class AlphabetError(TokfstError):
    """A symbol or character is not present in the relevant alphabet."""


class ConfigError(TokfstError):
    """Machines or tokenizer pieces were combined inconsistently."""


class ValidationError(TokfstError, ValueError):
    """A machine, vocabulary, merge list or serialized file violates its
    format. Also a `ValueError`, as a bad argument value."""


class PatternSyntaxError(TokfstError):
    """Malformed pattern text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EnumerationError(TokfstError):
    """Bounded language enumeration exceeded its path budget."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


class ConstraintError(TokfstError):
    """Base class for guided-generation failures."""


class DeadConstraintError(ConstraintError):
    """The constraint automaton accepts nothing; decoding cannot start."""


class ConstraintViolationError(ConstraintError):
    """A token outside the current mask was fed to the constraint."""


class IncompleteGenerationError(ConstraintError):
    """Decoding hit its step budget in a non-terminable state."""

    def __init__(self, message: str, prefix: tuple[int, ...]):
        super().__init__(message)
        self.prefix = prefix


def check_type(value: object, cls: type) -> None:
    """A swapped argument fails here, before any work."""
    if not isinstance(value, cls):
        raise ConfigError(f"expected a {cls.__name__}, got {type(value).__name__}")


def check_text(name: str, value: object) -> None:
    """Text must be a `str`; a list, say, would be read item by item."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a str, got {value!r}")


def check_count(name: str, value: object) -> None:
    """A bound such as max_len must be an int, not a bool, and not negative."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ConfigError(f"{name} must not be negative, got {value}")
