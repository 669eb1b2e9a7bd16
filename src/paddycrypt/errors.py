"""Exception types shared across the package."""


class CipherError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidArgument(CipherError, ValueError):
    """A function argument is out of range or of the wrong type.

    Also a ValueError, the type such arguments raised before.
    """


class NoInverse(CipherError):
    """The affine multiplier has no inverse modulo the alphabet size."""


class InvalidKey(CipherError):
    """A key field violates one of the key constraints."""


class IterationBoundExceeded(InvalidKey):
    """An iteration count fell outside [1, shift] for its lane."""


class LengthMismatch(CipherError):
    """Lane bit strings differ in length or are not byte-aligned."""


class BadLength(CipherError):
    """A bit string has a length the operation cannot accept."""


class NonLetterInput(CipherError):
    """Letters-mode plaintext contained a byte outside A-Z / a-z."""


class NonLetterOutput(CipherError):
    """Letters-mode decryption produced a value outside the letter range."""


class IntegrityMismatch(CipherError):
    """The two cipher lanes decrypted to different plaintexts.

    indices holds the symbol positions whose lanes disagree.
    """

    def __init__(self, message: str, indices: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.indices = indices


class ParseError(CipherError):
    """Key or ciphertext text could not be parsed."""


class NotFound(CipherError):
    """No attack candidate passed the agreement filter and score threshold."""


def check_type(name: str, value, cls: type) -> None:
    """Raise InvalidArgument unless value is a cls.  The message names the
    value's type, not the value, whose repr could run to megabytes."""
    if not isinstance(value, cls):
        raise InvalidArgument(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
