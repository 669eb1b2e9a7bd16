"""End-to-end encryption/decryption plus the key and ciphertext file formats.

Both lanes encrypt the same plaintext, so the ciphertext carries the
message twice (16 bits per symbol).  decrypt() turns that redundancy into
an integrity check: the two recovered plaintexts must agree bit for bit,
otherwise the data was corrupted or the key is wrong.

A CipherText holds the ciphertext packed: the 16N-bit stream that the
paddy transposition harvests, 8 bits a byte, most significant bit first, so
2 bytes per symbol from encrypt to decrypt.  Hex text is those bytes in
hex; a bitstring is the stream as 0/1 digits.

Byte mode (n=256) operates on raw bytes.  Letters mode (n=26) accepts only
letters and folds them to uppercase, which makes them the lane codes the
8-bit matrix stage carries.
"""

from __future__ import annotations

import random
import re
from binascii import a2b_hex
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd

from .bitmatrix import check_bit_count, deinterleave, interleave, pack_cells, unpack_cells
from .ciphers import (
    ALPHABET_SIZES,
    LANE_AFFINE,
    LANE_CAESAR,
    LANE_CODES,
    CipherParams,
    alphabet_size,
    check_lane_codes,
    lane_table,
)
from .errors import (
    BadLength,
    CipherError,
    IntegrityMismatch,
    InvalidArgument,
    InvalidKey,
    NonLetterInput,
    ParseError,
    check_type,
)

KEY_FIELDS = ("mode", "n", "m", "b", "k", "ra", "rc")

CIPHERTEXT_HEX_HEADER = "fmt=hex"

_HEX_DIGITS = "0123456789abcdefABCDEF"
# The characters str.splitlines() breaks lines at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# Blank lines, then the hex header line if the first line that is not blank
# is the header, then the whitespace before the body.
_BODY_START = re.compile(
    rf"\s*(?:({re.escape(CIPHERTEXT_HEX_HEADER)})[^\S{_LINE_BREAKS}]*(?:[{_LINE_BREAKS}]|\Z)\s*)?")
_LETTERS = LANE_CODES[26] + LANE_CODES[26].lower()


def _check_chars(text: str, allowed: str, message: str) -> None:
    """Raise ParseError if text has a character outside allowed (ASCII);
    message.format() is given the first such character."""
    # One pass in C; surrogatepass turns a lone surrogate into stray bytes
    # rather than an encoding error.
    if text.encode("utf-8", "surrogatepass").translate(None, allowed.encode()):
        raise ParseError(message.format(text.strip(allowed)[0]))


@dataclass(frozen=True, init=False)
class CipherText:
    """An encrypted message, packed: 16 bits per plaintext symbol, 8 a byte.

    CipherText(cells) takes one 0/1 cell per bit; from_packed takes the
    packed bytes.  .cells and .bits are views built on each access.
    """

    packed: bytes

    def __init__(self, cells) -> None:
        try:
            count = len(cells)
        except TypeError:
            check_type("cells", cells, Sequence)
            raise
        check_bit_count(count)
        object.__setattr__(self, "packed", pack_cells(cells))

    @classmethod
    def from_packed(cls, raw) -> "CipherText":
        """The ciphertext whose packed bytes are raw (2 per symbol)."""
        try:
            count = 8 * len(raw)
        except TypeError:
            check_type("raw", raw, bytes)
            raise
        check_bit_count(count)
        try:
            packed = bytes(raw)
        except (TypeError, ValueError):  # a str, or ints outside [0, 256)
            check_type("raw", raw, bytes)
            raise
        ciphertext = cls.__new__(cls)
        object.__setattr__(ciphertext, "packed", packed)
        return ciphertext

    def __reduce__(self):
        # Pickles and copies carry packed alone, not what an attack kept.
        return type(self).from_packed, (self.packed,)

    @property
    def cells(self) -> bytes:
        """One 0/1 byte per ciphertext bit."""
        return unpack_cells(self.packed)

    @property
    def bits(self) -> tuple[int, ...]:
        """The cells as a tuple of ints."""
        return tuple(self.cells)

    @property
    def n_symbols(self) -> int:
        return len(self.packed) // 2

    def to_bitstring(self) -> str:
        if not self.packed:
            return ""
        return format(int.from_bytes(self.packed, "big"), "b").zfill(8 * len(self.packed))

    def to_hex(self) -> str:
        return self.packed.hex()

    @classmethod
    def from_bitstring(cls, text: str) -> "CipherText":
        try:
            # int() also takes non-ASCII digits, '_', a sign, a 0b prefix and
            # whitespace at either end; any other character but 0 and 1 it
            # rejects.  _check_chars words the error.
            if not (text.isascii() and "_" not in text and (
                    not text or text[0] in "01" and text[-1] in "01" and text[1:2] not in ("b", "B"))):
                raise ValueError
            value = int(text or "0", 2)
        except ValueError:
            _check_chars(text, "01", "ciphertext may contain only 0 and 1, got {!r}")
            raise
        except (TypeError, AttributeError):
            check_type("text", text, str)
            raise
        check_bit_count(len(text))
        return cls.from_packed(value.to_bytes(len(text) // 8, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "CipherText":
        check_type("text", text, str)  # a2b_hex takes bytes too
        try:
            if not len(text) % 4:
                return cls.from_packed(a2b_hex(text))
        except ValueError:
            pass
        # a2b_hex rejected a non-hex character, reported first, or the length.
        _check_chars(text, _HEX_DIGITS, "invalid hex digit {!r}")
        raise BadLength(f"ciphertext bit count {4 * len(text)} is not a multiple of 16")


def _plaintext_codes(plaintext, key: CipherParams) -> bytes:
    """encrypt's plaintext, checked, as lane codes (uppercase in letters mode)."""
    try:
        if isinstance(plaintext, int):  # bytes(5) is five zero bytes
            raise TypeError
        data = bytes(plaintext)
    except (TypeError, ValueError):
        raise InvalidArgument("plaintext values must be bytes in [0, 256)") from None
    check_type("key", key, CipherParams)
    if key.mode == "letters":
        bad = data.translate(None, _LETTERS)
        if bad:
            raise NonLetterInput(f"byte {bad[0]:#04x} is not a letter")
        data = data.upper()
    return data


def encrypt(plaintext, key: CipherParams) -> CipherText:
    """Encrypt plaintext bytes under key.

    The affine and caesar lanes each encrypt the whole message; their bit
    expansions are interleaved through the planting/harvest permutation.
    A plaintext that is not bytes or a sequence of ints in [0, 256), or a
    key that is not a CipherParams, raises InvalidArgument, a CipherError.
    """
    data = _plaintext_codes(plaintext, key)
    return CipherText.from_packed(
        interleave(data, lane_table(key, LANE_AFFINE), lane_table(key, LANE_CAESAR)))


def decrypt(ciphertext: CipherText, key: CipherParams) -> bytes:
    """Decrypt and cross-check both lanes.

    Raises IntegrityMismatch when the lanes disagree, which any single
    corrupted bit or wrong key causes; its indices name the symbols whose
    lanes differ.
    """
    check_type("ciphertext", ciphertext, CipherText)
    plain_a, plain_b = deinterleave(ciphertext.packed,
                                    lane_table(key, LANE_AFFINE, decrypt=True),
                                    lane_table(key, LANE_CAESAR, decrypt=True))
    # The lane tables fix every byte that is not a lane code, so the mapped
    # lanes hold the same stray bytes where the lanes did.
    check_lane_codes(plain_a, key.n)
    check_lane_codes(plain_b, key.n)
    if plain_a != plain_b:
        # One XOR of the lanes as ints: its zero bytes are the symbols that
        # agree, and its leading ones those before the first that does not.
        n = len(plain_a)
        diff = (int.from_bytes(plain_a, "big") ^ int.from_bytes(plain_b, "big")).to_bytes(n, "big")
        first = n - len(diff.lstrip(b"\0"))
        raise IntegrityMismatch(
            "affine and caesar lanes disagree (corrupt data or wrong key) at "
            f"{n - diff.count(0)} of {n} symbols, first index {first}",
            diff=diff,
        )
    return plain_a


def keygen(mode: str = "byte", seed=None) -> CipherParams:
    """Sample a uniformly random valid key for the given mode.

    Without a seed the system RNG is used; pass a seed for reproducible
    keys (test harnesses, the CLI --seed flag).
    """
    n = alphabet_size(mode)
    try:
        rng = random.Random(seed) if seed is not None else random.SystemRandom()
    except TypeError:
        raise InvalidArgument("seed must be an int, float, str, bytes or bytearray, "
                              f"got {type(seed).__name__}") from None
    m = rng.randrange(1, n)
    while gcd(m, n) != 1:
        m = rng.randrange(1, n)
    b = rng.randrange(1, n)
    k = rng.randrange(1, n)
    return CipherParams(n=n, m=m, b=b, k=k, ra=rng.randint(1, b), rc=rng.randint(1, k))


def serialize_key(key: CipherParams) -> str:
    """Render a key in the line-based key-file format."""
    check_type("key", key, CipherParams)
    return "".join(f"{name}={getattr(key, name)}\n" for name in KEY_FIELDS)


def parse_key(text: str) -> CipherParams:
    """Parse key-file text.

    One name=value pair per line, any order; '#' starts a comment.  Raises
    ParseError for malformed text and InvalidKey for well-formed text whose
    values violate a key constraint.
    """
    try:
        lines = str.splitlines(text)
    except TypeError:
        check_type("text", text, str)
        raise
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"line {lineno}: expected name=value, got {raw.strip()!r}")
        name = name.strip()
        if name not in KEY_FIELDS:
            raise ParseError(f"line {lineno}: unknown field {name!r}")
        if name in fields:
            raise ParseError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = value.strip()
    missing = [f for f in KEY_FIELDS if f not in fields]
    if missing:
        raise ParseError(f"missing field(s): {', '.join(missing)}")
    mode = fields["mode"]
    if mode not in ALPHABET_SIZES:
        raise ParseError(f"mode must be 'byte' or 'letters', got {mode!r}")
    numbers = {}
    for name in KEY_FIELDS[1:]:  # every field but mode
        value = fields[name]
        try:
            # int() alone would also take '_', signs and non-ASCII digits.
            if not (value.isascii() and value.isdigit()):
                raise ValueError(value)
            numbers[name] = int(value)
        except ValueError:
            raise ParseError(f"field {name}: not an integer: {value!r}") from None
    if numbers["n"] != ALPHABET_SIZES[mode]:
        raise InvalidKey(f"mode={mode} requires n={ALPHABET_SIZES[mode]}, got n={numbers['n']}")
    return CipherParams(**numbers)


def format_ciphertext(ciphertext: CipherText, fmt: str = "bits") -> str:
    """Ciphertext file body: a line of 0/1 digits, or a hex line after a
    'fmt=hex' header."""
    check_type("ciphertext", ciphertext, CipherText)
    if fmt == "bits":
        return ciphertext.to_bitstring() + "\n"
    if fmt == "hex":
        return f"{CIPHERTEXT_HEX_HEADER}\n{ciphertext.to_hex()}\n"
    raise InvalidArgument(f"format must be 'bits' or 'hex', got {fmt!r}")


def parse_ciphertext(text: str) -> CipherText:
    """Inverse of format_ciphertext; detects the hex header automatically.

    The body may span lines: each line is read without the whitespace
    around it, and whitespace within a line is an error.
    """
    try:
        start = _BODY_START.match(text)
    except TypeError:
        check_type("text", text, str)
        raise
    parse = CipherText.from_hex if start[1] else CipherText.from_bitstring
    # Slice the body once, without the whitespace that ends the text:
    # rstrip() on the text would copy it first, so strip only its last 16
    # characters; a longer run of whitespace takes the line-joining path.
    tail = text[-16:]
    body = text[start.end():len(text) - len(tail) + len(tail.rstrip())]
    try:
        return parse(body)
    except CipherError:
        pass
    # Both parsers reject whitespace, so only a body that failed can span
    # lines: parse it again with its lines joined.
    return parse("".join(line.strip() for line in body.splitlines()))
