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
from dataclasses import dataclass
from math import gcd

from .bitmatrix import deinterleave, interleave, pack_cells, unpack_cells
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
    InvalidKey,
    NonLetterInput,
    ParseError,
)

KEY_FIELDS = ("mode", "n", "m", "b", "k", "ra", "rc")

CIPHERTEXT_HEX_HEADER = "fmt=hex"

_HEX_DIGITS = "0123456789abcdefABCDEF"
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
        if len(cells) % 16:
            raise BadLength(f"ciphertext bit count {len(cells)} is not a multiple of 16")
        object.__setattr__(self, "packed", pack_cells(cells))

    @classmethod
    def from_packed(cls, raw) -> "CipherText":
        """The ciphertext whose packed bytes are raw (2 per symbol)."""
        if len(raw) % 2:
            raise BadLength(f"ciphertext bit count {8 * len(raw)} is not a multiple of 16")
        ciphertext = cls.__new__(cls)
        object.__setattr__(ciphertext, "packed", bytes(raw))
        return ciphertext

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
        # int() would also take '_', signs and whitespace, so check first.
        _check_chars(text, "01", "ciphertext may contain only 0 and 1, got {!r}")
        if len(text) % 16:
            raise BadLength(f"ciphertext bit count {len(text)} is not a multiple of 16")
        return cls.from_packed(int(text or "0", 2).to_bytes(len(text) // 8, "big"))

    @classmethod
    def from_hex(cls, text: str) -> "CipherText":
        # bytes.fromhex checks the digits without copying the text, but it
        # skips whitespace and rejects an odd length: a text it rejects or
        # reads short gets the character check, then the length check, so
        # the error is the one those checks alone would give.
        try:
            raw = bytes.fromhex(text)
        except ValueError:
            raw = b""
        if 2 * len(raw) != len(text):
            _check_chars(text, _HEX_DIGITS, "invalid hex digit {!r}")
        if len(text) % 4:
            raise BadLength(f"ciphertext bit count {4 * len(text)} is not a multiple of 16")
        return cls.from_packed(raw)


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
    return CipherText.from_packed(interleave(data.translate(lane_table(key, LANE_AFFINE)),
                                             data.translate(lane_table(key, LANE_CAESAR))))


def decrypt(ciphertext: CipherText, key: CipherParams) -> bytes:
    """Decrypt and cross-check both lanes.

    Raises IntegrityMismatch when the lanes disagree, which any single
    corrupted bit or wrong key causes; its indices name the symbols whose
    lanes differ.
    """
    codes_a, codes_b = deinterleave(ciphertext.packed)
    check_lane_codes(codes_a, key.n)
    check_lane_codes(codes_b, key.n)
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
    n = alphabet_size(mode)
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    m = rng.randrange(1, n)
    while gcd(m, n) != 1:
        m = rng.randrange(1, n)
    b = rng.randrange(1, n)
    k = rng.randrange(1, n)
    return CipherParams(n=n, m=m, b=b, k=k, ra=rng.randint(1, b), rc=rng.randint(1, k))


def serialize_key(key: CipherParams) -> str:
    """Render a key in the line-based key-file format."""
    return "".join(f"{name}={getattr(key, name)}\n" for name in KEY_FIELDS)


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
    if fmt == "bits":
        return ciphertext.to_bitstring() + "\n"
    if fmt == "hex":
        return f"{CIPHERTEXT_HEX_HEADER}\n{ciphertext.to_hex()}\n"
    raise ValueError(f"format must be 'bits' or 'hex', got {fmt!r}")


def parse_ciphertext(text: str) -> CipherText:
    """Inverse of format_ciphertext; detects the hex header automatically."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if lines and lines[0] == CIPHERTEXT_HEX_HEADER:
        return CipherText.from_hex("".join(lines[1:]))
    return CipherText.from_bitstring("".join(lines))
