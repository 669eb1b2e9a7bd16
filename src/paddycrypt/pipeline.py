"""End-to-end encryption/decryption plus the key and ciphertext file formats.

Both lanes encrypt the same plaintext, so the ciphertext carries the
message twice (16 bits per symbol).  decrypt() turns that redundancy into
an integrity check: the two recovered plaintexts must agree bit for bit,
otherwise the data was corrupted or the key is wrong.

Byte mode (n=256) operates on raw bytes.  Letters mode (n=26) accepts only
letters and folds them to uppercase, which makes them the lane codes the
8-bit matrix stage carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .bitmatrix import deinterleave, interleave
from .ciphers import (
    ALPHABET_SIZES,
    LANE_AFFINE,
    LANE_CAESAR,
    LANE_CODES,
    CipherParams,
    check_lane_codes,
    lane_table,
)
from .errors import (
    BadLength,
    CipherError,
    IntegrityMismatch,
    InvalidKey,
    NonLetterInput,
    ParseError,
)

KEY_FIELDS = ("mode", "n", "m", "b", "k", "ra", "rc")

CIPHERTEXT_HEX_HEADER = "fmt=hex"

_HEX_DIGITS = "0123456789abcdefABCDEF"
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_LETTERS = LANE_CODES[26] + LANE_CODES[26].lower()


@dataclass(frozen=True)
class CipherText:
    """An encrypted message: 16 cells per plaintext symbol, one byte per bit."""

    cells: bytes

    def __post_init__(self) -> None:
        if len(self.cells) % 16:
            raise BadLength(f"ciphertext bit count {len(self.cells)} is not a multiple of 16")
        try:
            cells = bytes(self.cells)
            if cells.translate(None, b"\x00\x01"):
                raise ValueError("stray cell")
        except (TypeError, ValueError):
            raise ParseError("ciphertext cells must be 0 or 1") from None
        object.__setattr__(self, "cells", cells)

    @property
    def bits(self) -> tuple[int, ...]:
        """The cells as a tuple of ints, built on each access."""
        return tuple(self.cells)

    @property
    def n_symbols(self) -> int:
        return len(self.cells) // 16

    def to_bitstring(self) -> str:
        return self.cells.translate(_BITS_TO_DIGITS).decode("ascii")

    def to_hex(self) -> str:
        # The leading 1 keeps leading zeros and gives "" for no bits.
        return format(int("1" + self.to_bitstring(), 2), "x")[1:]

    @classmethod
    def from_bitstring(cls, text: str) -> "CipherText":
        bad = text.strip("01")
        if bad:
            raise ParseError(f"ciphertext may contain only 0 and 1, got {bad[0]!r}")
        return cls(text.encode("ascii").translate(_DIGITS_TO_BITS))

    @classmethod
    def from_hex(cls, text: str) -> "CipherText":
        # int() would also take '_', signs and whitespace, so check first.
        bad = text.strip(_HEX_DIGITS)
        if bad:
            raise ParseError(f"invalid hex digit {bad[0]!r}")
        return cls.from_bitstring(format(int("1" + text, 16), "b")[1:])


def encrypt(plaintext, key: CipherParams) -> CipherText:
    """Encrypt plaintext bytes under key.

    The affine and caesar lanes each encrypt the whole message; their bit
    expansions are interleaved through the planting/harvest permutation.
    A plaintext given as a sequence of ints raises CipherError when one of
    them is outside [0, 256).
    """
    try:
        data = bytes(plaintext)
    except ValueError:
        raise CipherError("plaintext values must be bytes in [0, 256)") from None
    if key.mode == "letters":
        bad = data.translate(None, _LETTERS)
        if bad:
            raise NonLetterInput(f"byte {bad[0]:#04x} is not a letter")
        data = data.upper()
    return CipherText(interleave(data.translate(lane_table(key, LANE_AFFINE)),
                                 data.translate(lane_table(key, LANE_CAESAR))))


def decrypt(ciphertext: CipherText, key: CipherParams) -> bytes:
    """Decrypt and cross-check both lanes.

    Raises IntegrityMismatch when the lanes disagree, which any single
    corrupted bit or wrong key causes; its indices name the symbols whose
    lanes differ.
    """
    codes_a, codes_b = deinterleave(ciphertext.cells)
    check_lane_codes(codes_a + codes_b, key.n)
    plain_a = codes_a.translate(lane_table(key, LANE_AFFINE, decrypt=True))
    plain_b = codes_b.translate(lane_table(key, LANE_CAESAR, decrypt=True))
    if plain_a != plain_b:
        indices = tuple(i for i, (x, y) in enumerate(zip(plain_a, plain_b)) if x != y)
        raise IntegrityMismatch(
            "affine and caesar lanes disagree (corrupt data or wrong key) at "
            f"{len(indices)} of {len(plain_a)} symbols, first index {indices[0]}",
            indices,
        )
    return plain_a


def keygen(mode: str = "byte", seed=None) -> CipherParams:
    """Sample a uniformly random valid key for the given mode.

    Without a seed the system RNG is used; pass a seed for reproducible
    keys (test harnesses, the CLI --seed flag).
    """
    try:
        n = ALPHABET_SIZES[mode]
    except KeyError:
        raise ValueError(f"mode must be one of {sorted(ALPHABET_SIZES)}, got {mode!r}") from None
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    m = rng.randrange(1, n)
    while gcd(m, n) != 1:
        m = rng.randrange(1, n)
    b = rng.randrange(1, n)
    k = rng.randrange(1, n)
    return CipherParams(n=n, m=m, b=b, k=k, ra=rng.randint(1, b), rc=rng.randint(1, k))


def serialize_key(key: CipherParams) -> str:
    """Render a key in the line-based key-file format."""
    return (
        f"mode={key.mode}\n"
        f"n={key.n}\n"
        f"m={key.m}\n"
        f"b={key.b}\n"
        f"k={key.k}\n"
        f"ra={key.ra}\n"
        f"rc={key.rc}\n"
    )


def parse_key(text: str) -> CipherParams:
    """Parse key-file text.

    One name=value pair per line, any order; '#' starts a comment.  Raises
    ParseError for malformed text and InvalidKey for well-formed text whose
    values violate a key constraint.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    for name in ("n", "m", "b", "k", "ra", "rc"):
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
    if fmt == "bits":
        return ciphertext.to_bitstring() + "\n"
    if fmt == "hex":
        return CIPHERTEXT_HEX_HEADER + "\n" + ciphertext.to_hex() + "\n"
    raise ValueError(f"format must be 'bits' or 'hex', got {fmt!r}")


def parse_ciphertext(text: str) -> CipherText:
    """Inverse of format_ciphertext; detects the hex header automatically."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if lines and lines[0] == CIPHERTEXT_HEX_HEADER:
        return CipherText.from_hex("".join(lines[1:]))
    return CipherText.from_bitstring("".join(lines))
