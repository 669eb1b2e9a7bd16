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
r steps of s -> m*s + b are one affine map, s -> m^r*s + b*(m^(r-1)+...+1),
so an iterated lane is a single ``affine_table`` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InvalidKey, IterationBoundExceeded, NoInverse, NonLetterOutput

LANE_AFFINE = "affine"
LANE_CAESAR = "caesar"

ALPHABET_SIZES = {"byte": 256, "letters": 26}

# The byte each symbol travels as, indexed by alphabet size.
LANE_CODES = {256: bytes(range(256)), 26: b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"}


def alphabet_size(mode: str) -> int:
    """n for the mode name; raises ValueError for an unknown mode."""
    try:
        return ALPHABET_SIZES[mode]
    except KeyError:
        raise ValueError(f"mode must be one of {sorted(ALPHABET_SIZES)}, got {mode!r}") from None


def mod_inverse(m: int, n: int) -> int:
    """Return the x in [1, n) with (m * x) % n == 1.

    Raises NoInverse when gcd(m, n) != 1; an affine key built on such an
    m cannot be decrypted.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    r0, r1 = m % n, n
    s0, s1 = 1, 0
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        raise NoInverse(f"{m} has no inverse modulo {n} (gcd {r0})")
    return s0 % n


def affine_encrypt_symbol(p: int, m: int, b: int, n: int) -> int:
    """(m * p + b) mod n."""
    return (m * p + b) % n


def affine_decrypt_symbol(c: int, m: int, b: int, n: int) -> int:
    """Inverse of affine_encrypt_symbol; requires gcd(m, n) == 1."""
    return (mod_inverse(m, n) * (c - b)) % n


def caesar_encrypt_symbol(p: int, k: int, n: int) -> int:
    return (p + k) % n


def caesar_decrypt_symbol(c: int, k: int, n: int) -> int:
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
    """The lane's step map applied ra (affine) or rc (caesar) times, as a
    ``bytes.translate`` table over lane codes; decrypt=True inverts it.
    Built in closed form: r steps of s -> m*s + b are s -> m^r*s + b*(m^(r-1)+...+1)."""
    n = params.n
    if lane == LANE_AFFINE:
        rounds, bound, name = params.ra, params.b, "ra"
        # NoInverse for a non-unit m, whichever the direction.
        inverse = mod_inverse(params.m, n)
        m, b = (inverse, -inverse * params.b) if decrypt else (params.m, params.b)
    elif lane == LANE_CAESAR:
        rounds, bound, name = params.rc, params.k, "rc"
        m, b = 1, -params.k if decrypt else params.k
    else:
        raise ValueError(f"unknown lane {lane!r}")
    # Construction already enforces a unit m and these bounds; both are
    # re-checked so a tampered key object still fails here instead of
    # producing undecryptable output.
    if not 1 <= rounds <= bound:
        raise IterationBoundExceeded(f"{name}={rounds} outside [1, {bound}]")
    # The division is exact, as m^r = 1 (mod m - 1); reducing m^r mod
    # (m - 1)*n keeps the quotient right mod n.
    total = rounds if m == 1 else (pow(m, rounds, (m - 1) * n) - 1) // (m - 1)
    return affine_table(n, pow(m, rounds, n), b * total % n)


def check_lane_codes(codes: bytes, n: int) -> None:
    """Raise NonLetterOutput unless every byte is a lane code of alphabet n."""
    bad = codes.translate(None, LANE_CODES[n])
    if bad:
        raise NonLetterOutput(f"lane byte {bad[0]:#04x} is outside A-Z")


def _map_stream(stream, table: bytes, n: int) -> list[int]:
    codes = LANE_CODES[n]
    out = []
    for s in stream:
        if not 0 <= s < n:
            raise ValueError(f"symbol {s} outside [0, {n})")
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
