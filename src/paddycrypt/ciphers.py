"""Modular-arithmetic base ciphers and their dynamic iteration.

Symbols are plain integers in [0, n); a symbol stream is any sequence of
them.  Two alphabets are supported: n=256 (byte mode, symbols are raw byte
values) and n=26 (letters mode, symbols are letter indices A=0 .. Z=25).

Each symbol travels through the cipher as its lane code, one byte:
``LANE_CODES[n][s]``, which is the byte itself for n=256 and the letter
"A".."Z" for n=26.  A lane map is therefore a 256-entry ``bytes.translate``
table over lane codes that leaves every other byte alone, always built by
``affine_table`` (caesar is m = 1), and a whole lane is mapped with one
``translate`` call.

Each lane of the combined scheme re-applies its single-step map a secret
number of times (``ra`` for the affine lane, ``rc`` for the caesar lane),
so one (m, b, k) family yields a different ciphertext for every iteration
count.  The counts are bounded by the shifts themselves: ra <= b, rc <= k.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

from .errors import (
    InvalidArgument,
    InvalidKey,
    IterationBoundExceeded,
    NoInverse,
    NonLetterOutput,
    check_type,
)

LANE_AFFINE = "affine"
LANE_CAESAR = "caesar"

ALPHABET_SIZES = {"byte": 256, "letters": 26}

# The byte each symbol travels as, indexed by alphabet size.
LANE_CODES = {256: bytes(range(256)), 26: b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


def alphabet_size(mode: str) -> int:
    """n for the mode name; raises InvalidArgument for an unknown mode."""
    try:
        return ALPHABET_SIZES[mode]
    except (KeyError, TypeError):  # TypeError: an unhashable mode
        raise InvalidArgument(
            f"mode must be one of {sorted(ALPHABET_SIZES)}, got {mode!r}") from None


def mod_inverse(m: int, n: int) -> int:
    """Return the x in [1, n) with (m * x) % n == 1.

    Raises NoInverse when gcd(m, n) != 1; an affine key built on such an
    m cannot be decrypted.
    """
    for name, value in (("m", m), ("modulus", n)):
        if type(value) is not int:
            raise InvalidArgument(f"{name} must be an int, got {value!r}")
    if n < 2:
        raise InvalidArgument(f"modulus must be >= 2, got {n}")
    try:
        return pow(m, -1, n)
    except ValueError:
        raise NoInverse(f"{m} has no inverse modulo {n} (gcd {gcd(m, n)})") from None


def _check_symbol_args(n: int, **values: int) -> None:
    """Raise InvalidArgument unless every value and n are ints (a bool is
    not one) and n >= 2, as mod_inverse requires of m and its modulus."""
    for name, value in (*values.items(), ("n", n)):
        if type(value) is not int:
            raise InvalidArgument(f"{name} must be an int, got {value!r}")
    if n < 2:
        raise InvalidArgument(f"n must be >= 2, got {n}")


def affine_encrypt_symbol(p: int, m: int, b: int, n: int) -> int:
    """(m * p + b) mod n."""
    _check_symbol_args(n, p=p, m=m, b=b)
    return (m * p + b) % n


def affine_decrypt_symbol(c: int, m: int, b: int, n: int) -> int:
    """Inverse of affine_encrypt_symbol; requires gcd(m, n) == 1."""
    _check_symbol_args(n, c=c, m=m, b=b)
    return (mod_inverse(m, n) * (c - b)) % n


def caesar_encrypt_symbol(p: int, k: int, n: int) -> int:
    _check_symbol_args(n, p=p, k=k)
    return (p + k) % n


def caesar_decrypt_symbol(c: int, k: int, n: int) -> int:
    _check_symbol_args(n, c=c, k=k)
    return (c - k) % n


@dataclass(frozen=True)
class CipherParams:
    """The full symmetric key for the two-lane cipher.

    n   alphabet size: 256 (byte mode) or 26 (letters mode)
    m   affine multiplier, a unit modulo n
    b   affine shift; also the upper bound for ra
    k   caesar shift; also the upper bound for rc
    ra  affine iteration count, 1 <= ra <= b
    rc  caesar iteration count, 1 <= rc <= k
    """

    n: int
    m: int
    b: int
    k: int
    ra: int
    rc: int

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if type(value) is not int:
                raise InvalidKey(f"{field.name} must be an int, got {value!r}")
        if self.n not in (26, 256):
            raise InvalidKey(f"n must be 26 or 256, got {self.n}")
        if not 1 <= self.m < self.n:
            raise InvalidKey(f"m must be in [1, {self.n}), got {self.m}")
        if gcd(self.m, self.n) != 1:
            raise InvalidKey(
                f"m must be coprime to n: gcd({self.m}, {self.n}) = {gcd(self.m, self.n)}"
            )
        if not 1 <= self.b < self.n:
            raise InvalidKey(f"b must be in [1, {self.n}), got {self.b}")
        if not 1 <= self.k < self.n:
            raise InvalidKey(f"k must be in [1, {self.n}), got {self.k}")
        if not 1 <= self.ra <= self.b:
            raise InvalidKey(f"ra must be in [1, b={self.b}], got {self.ra}")
        if not 1 <= self.rc <= self.k:
            raise InvalidKey(f"rc must be in [1, k={self.k}], got {self.rc}")

    @property
    def mode(self) -> str:
        return "letters" if self.n == 26 else "byte"

    @classmethod
    def with_shared_shift(cls, n: int, m: int, b: int, ra: int, rc: int) -> "CipherParams":
        """Key whose caesar shift reuses the affine shift (k = b)."""
        return cls(n=n, m=m, b=b, k=b, ra=ra, rc=rc)


def affine_table(n: int, m: int, b: int) -> bytes:
    """Lane map s -> (m*s + b) mod n, for 1 <= m < n and 0 <= b < n."""
    codes = LANE_CODES[n]
    # Code (m*s + b) % n sits at index b + m*s of m + 1 copies of codes.
    return bytes.maketrans(codes, (codes * (m + 1))[b:b + m * n:m])


def lane_table(params: CipherParams, lane: str, decrypt: bool = False) -> bytes:
    """The step s -> m*s + b (caesar: m = 1, b = k) applied ra (affine) or rc
    (caesar) times, as a ``bytes.translate`` table; decrypt=True inverts it."""
    check_type("key", params, CipherParams)
    n = params.n
    if lane == LANE_AFFINE:
        m, b, rounds, bound, name = params.m, params.b, params.ra, params.b, "ra"
    elif lane == LANE_CAESAR:
        m, b, rounds, bound, name = 1, params.k, params.rc, params.k, "rc"
    else:
        raise InvalidArgument(f"unknown lane {lane!r}")
    # NoInverse for a non-unit m, whichever the direction.
    inverse = mod_inverse(m, n)
    if decrypt:
        m, b = inverse, -inverse * b
    # Construction already enforces a unit m and these bounds; both are
    # re-checked so a tampered key object still fails here instead of
    # producing undecryptable output.
    if not 1 <= rounds <= bound:
        raise IterationBoundExceeded(f"{name}={rounds} outside [1, {bound}]")
    return affine_table(n, *iterated_affine(m, b, rounds, n))


def iterated_affine(m: int, b: int, r: int, n: int) -> tuple[int, int]:
    """(M, B) with r steps of s -> m*s + b equal to s -> M*s + B (mod n):
    M = m^r and B = b*(1 + m + ... + m^(r-1)), both reduced mod n."""
    if m == 1:
        return 1, b * r % n
    # The division is exact, as m^r = 1 (mod m - 1); m^r reduced mod
    # (m - 1)*n is still m^r mod n, and keeps the quotient right mod n.
    power = pow(m, r, (m - 1) * n)
    return power % n, b * ((power - 1) // (m - 1)) % n


def check_lane_codes(codes: bytes, n: int) -> None:
    """Raise NonLetterOutput unless every byte is a lane code of alphabet n."""
    if n == 256:  # every byte is a code
        return
    bad = codes.translate(None, LANE_CODES[n])
    if bad:
        raise NonLetterOutput(f"lane byte {bad[0]:#04x} is outside A-Z")


def _map_stream(stream, table: bytes, n: int) -> list[int]:
    codes = LANE_CODES[n]
    out = []
    for s in stream:
        if not (isinstance(s, int) and 0 <= s < n):
            raise InvalidArgument(f"symbol {s!r} outside [0, {n})")
        # Lane codes are consecutive, so code - codes[0] is the symbol.
        out.append(table[codes[s]] - codes[0])
    return out


def iterate_encrypt(stream, params: CipherParams, lane: str) -> list[int]:
    """Encrypt every symbol by applying the lane's single-step map r times.

    r is params.ra on the affine lane and params.rc on the caesar lane.
    """
    return _map_stream(stream, lane_table(params, lane), params.n)


def iterate_decrypt(stream, params: CipherParams, lane: str) -> list[int]:
    """Inverse of iterate_encrypt for the same key and lane."""
    return _map_stream(stream, lane_table(params, lane, decrypt=True), params.n)
