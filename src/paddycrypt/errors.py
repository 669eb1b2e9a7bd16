"""Exception types shared across the package."""

from itertools import compress, count


class CipherError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidArgument(CipherError, ValueError):
    """A function argument is out of range or of the wrong type.

    Also a ValueError, the type such arguments raised before.
    """


class IndexOutOfRange(CipherError, IndexError):
    """An index falls outside the sequence it indexes.

    Also an IndexError, the type such indices raised before.
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

    indices holds the symbol positions whose lanes disagree.  Given diff
    instead, the lanes XORed byte by byte, indices is built from diff's
    nonzero bytes on first access and then kept as a plain attribute, so an
    error nobody reads the indices of does not build a tuple of up to one
    int per symbol.  A pickle or copy builds them first and holds indices
    alone, as one made before diff existed does.
    """

    def __init__(self, message: str, indices: tuple[int, ...] = (), *,
                 diff: bytes | None = None) -> None:
        super().__init__(message)
        if diff is None:
            self.indices = indices
        else:
            self._diff = diff

    def __getattr__(self, name):  # reached only while indices is unset
        if name == "indices" and "_diff" in self.__dict__:
            self.indices = tuple(compress(count(), self.__dict__.pop("_diff")))
            return self.indices
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __reduce__(self):
        self.indices  # build them, so the state holds indices and not diff
        return super().__reduce__()


class ParseError(CipherError):
    """Key or ciphertext text could not be parsed."""


class NotFound(CipherError):
    """No attack candidate passed the agreement filter and score threshold."""


def check_type(name: str, value, cls: type) -> None:
    """Raise InvalidArgument unless value is a cls.  The message names the
    value's type, not the value, whose repr could run to megabytes."""
    if not isinstance(value, cls):
        raise InvalidArgument(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
