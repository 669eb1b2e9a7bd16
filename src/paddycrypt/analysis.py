"""Cryptanalysis and diffusion measurement for the two-lane cipher.

The scheme's redundancy is also its weakness: a candidate key is almost
certainly right when both lanes decrypt to the same bytes, so lane
agreement is a far stronger filter than any plaintext scorer.  The caesar
lane is weaker still, because r iterated shifts collapse to the single
effective shift (r*k) mod n; half the ciphertext therefore falls to at
most n trials no matter how the iteration counts were chosen.

Attack scorers are plain callables bytes -> float (higher is better);
printable_ratio and english_score are the built-ins.  A scorer must be
pure: the same bytes always get the same score, because an attack may
score each distinct candidate text only once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import gcd
from string import ascii_lowercase, ascii_uppercase

from .bitmatrix import deinterleave
from .ciphers import (
    ALPHABET_SIZES,
    LANE_CODES,
    CipherParams,
    affine_table,
    check_lane_codes,
    mod_inverse,
)
from .errors import CipherError, NotFound
from .pipeline import CipherText, encrypt

# Relative letter frequencies in running English text (A..Z).
ENGLISH_LETTER_FREQ = {
    "a": 0.08167, "b": 0.01492, "c": 0.02782, "d": 0.04253, "e": 0.12702,
    "f": 0.02228, "g": 0.02015, "h": 0.06094, "i": 0.06966, "j": 0.00153,
    "k": 0.00772, "l": 0.04025, "m": 0.02406, "n": 0.06749, "o": 0.07507,
    "p": 0.01929, "q": 0.00095, "r": 0.05987, "s": 0.06327, "t": 0.09056,
    "u": 0.02758, "v": 0.00978, "w": 0.02360, "x": 0.00150, "y": 0.01974,
    "z": 0.00074,
}


def printable_ratio(data: bytes) -> float:
    """Fraction of bytes that are printable ASCII (plus tab/newline/CR)."""
    if not data:
        return 0.0
    ok = sum(1 for byte in data if 32 <= byte < 127 or byte in (9, 10, 13))
    return ok / len(data)


# Letters folded to lowercase, every other byte deleted: the argument pair
# of data.translate that leaves only the letters.
_FOLD_TO_LOWER = bytes.maketrans(ascii_uppercase.encode(), ascii_lowercase.encode())
_NON_LETTERS = bytes(range(256)).translate(None, (ascii_uppercase + ascii_lowercase).encode())
_LETTER_FREQ_BY_CODE = [(ord(ch), freq) for ch, freq in ENGLISH_LETTER_FREQ.items()]


def chi_squared_english(data: bytes) -> float:
    """Chi-squared distance between the data's letter histogram and English.

    Case-insensitive; returns inf when the data contains no letters.
    """
    letters = data.translate(_FOLD_TO_LOWER, _NON_LETTERS)
    if not letters:
        return math.inf
    total = len(letters)
    chi2 = 0.0
    for code, freq in _LETTER_FREQ_BY_CODE:
        expected = total * freq
        diff = letters.count(code) - expected
        chi2 += diff * diff / expected
    return chi2


def english_score(data: bytes) -> float:
    """Plaintext fitness: near 1 for English-looking bytes, near 0 for noise.

    Combines letter/space coverage with the letter-frequency chi-squared,
    so a case-shifted copy that turns spaces into junk scores below the
    true plaintext.
    """
    if not data:
        return 0.0
    letterish = len(data.translate(None, _NON_LETTERS)) + data.count(32)
    coverage = letterish / len(data)
    chi2 = chi_squared_english(data)
    if math.isinf(chi2):
        return 0.0
    return coverage * len(data) / (len(data) + chi2)


def frequency_profile(data, n: int = 256) -> list[float]:
    """Normalized value histogram.

    Byte or symbol sequences profile over [0, n); CipherText inputs are
    profiled per bit (n=2), exposing the ciphertext's 0/1 balance.  Raises
    CipherError for a value outside [0, n).
    """
    if isinstance(data, CipherText):
        total = 8 * len(data.packed)
        ones = int.from_bytes(data.packed, "big").bit_count()
        counts = [total - ones, ones]
    else:
        counts = [0] * n
        for v in data:
            if not 0 <= v < n:
                raise CipherError(f"value {v} outside [0, {n})")
            counts[v] += 1
        total = len(data)
    if not total:
        return [0.0] * len(counts)
    return [c / total for c in counts]


@dataclass(frozen=True)
class AttackResult:
    """Outcome of a key-recovery attempt.

    recovered_key is None when the method cannot name a full key (the
    caesar-lane shortcut recovers only that lane's effective shift).
    """

    method: str
    recovered_key: CipherParams | None
    plaintext: bytes | None
    score: float
    candidates_tried: int
    elapsed: float
    keyspace: int | None = None
    effective_shift: int | None = None


@dataclass(frozen=True)
class DiffusionReport:
    """Effect of flipping one plaintext bit on the whole ciphertext."""

    input_bit_flipped: int
    ciphertext_hamming_fraction: float


def keyspace_size(n: int, cap_b: int, cap_k: int) -> int:
    """Number of grid keys: units(n) * sum(b<=B) b * sum(k<=K) k."""
    units = sum(1 for m in range(1, n) if gcd(m, n) == 1)
    return units * (cap_b * (cap_b + 1) // 2) * (cap_k * (cap_k + 1) // 2)


def is_degenerate_key(key: CipherParams) -> bool:
    """True when the affine lane collapses to a bare shift (m == 1)."""
    return key.m == 1


def _check_caps(n: int, cap_b: int, cap_k: int) -> None:
    if not 1 <= cap_b < n:
        raise ValueError(f"cap_b must be in [1, {n}), got {cap_b}")
    if not 1 <= cap_k < n:
        raise ValueError(f"cap_k must be in [1, {n}), got {cap_k}")


def brute_force(
    ciphertext: CipherText,
    scorer=english_score,
    *,
    mode: str = "byte",
    cap_b: int = 16,
    cap_k: int = 16,
    min_score: float | None = None,
) -> AttackResult:
    """Grid-search every key with m over the units of n, b <= cap_b,
    k <= cap_k, ra <= b, rc <= k.

    Lane agreement is the primary filter; only agreeing candidates are
    scored.  The filter is a join on lane text: every caesar-lane
    candidate (k, rc) is decrypted once and indexed by the text it gives,
    so each affine-lane candidate (m, b, ra) costs one dict lookup rather
    than one comparison per (k, rc).  candidates_tried is still the whole
    grid, keyspace_size(n, cap_b, cap_k).  Each distinct agreeing text is
    scored once.  The best score wins, ties broken by the smallest
    (m, b, k, ra, rc).  Raises NotFound when nothing passes the filter (and
    min_score).
    """
    n = ALPHABET_SIZES[mode]
    _check_caps(n, cap_b, cap_k)
    start = time.perf_counter()

    codes_a, codes_b = deinterleave(ciphertext.packed)
    check_lane_codes(codes_a + codes_b, n)

    # unshift[j] subtracts j: the caesar step for k = j and the first half
    # of the affine step for b = j.
    unshift = [None] + [affine_table(n, 1, -j % n) for j in range(1, max(cap_b, cap_k) + 1)]

    # Caesar-lane text -> its first (k, rc) in walk order.  Keys sharing a
    # text share its score, and (k, rc) grows along the walk, so the first
    # is the only one that can win the tie-break.  At most n texts exist.
    caesar_keys = {}
    for k in range(1, cap_k + 1):
        pb = codes_b
        for rc in range(1, k + 1):
            pb = pb.translate(unshift[k])
            caesar_keys.setdefault(pb, (k, rc))

    scores = {}  # agreeing plaintext -> scorer(plaintext)
    best = None  # (score, (m, b, k, ra, rc), plaintext bytes)
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        unscale = affine_table(n, mod_inverse(m, n), 0)
        for b in range(1, cap_b + 1):
            step = unshift[b].translate(unscale)
            pa = codes_a
            for ra in range(1, b + 1):
                pa = pa.translate(step)
                match = caesar_keys.get(pa)
                if match is None:
                    continue
                if pa in scores:
                    score = scores[pa]
                else:
                    score = scores[pa] = scorer(pa)
                if min_score is not None and score < min_score:
                    continue
                order = (m, b, match[0], ra, match[1])
                if best is None or score > best[0] or (score == best[0] and order < best[1]):
                    best = (score, order, pa)

    elapsed = time.perf_counter() - start
    if best is None:
        raise NotFound(
            f"no key with b<={cap_b}, k<={cap_k} produced agreeing lanes above the threshold"
        )
    score, (m, b, k, ra, rc), text = best
    key = CipherParams(n=n, m=m, b=b, k=k, ra=ra, rc=rc)
    keyspace = keyspace_size(n, cap_b, cap_k)
    return AttackResult(
        method="brute-force",
        recovered_key=key,
        plaintext=text,
        score=score,
        candidates_tried=keyspace,
        elapsed=elapsed,
        keyspace=keyspace,
    )


def caesar_lane_attack(
    ciphertext: CipherText,
    scorer=english_score,
    *,
    mode: str = "byte",
    min_score: float | None = None,
) -> AttackResult:
    """Recover the plaintext from the caesar lane alone.

    The lane's iterated shift is a single effective shift, so at most n
    candidates exist regardless of the key's iteration count.  No full key
    is recovered; the result carries the winning shift and plaintext.
    """
    n = ALPHABET_SIZES[mode]
    start = time.perf_counter()

    _, codes_b = deinterleave(ciphertext.packed)
    check_lane_codes(codes_b, n)
    step = affine_table(n, 1, n - 1)

    best = None  # (score, shift, plaintext bytes)
    text = codes_b
    for shift in range(n):
        score = scorer(text)
        if best is None or score > best[0]:
            best = (score, shift, text)
        text = text.translate(step)

    elapsed = time.perf_counter() - start
    if min_score is not None and best[0] < min_score:
        raise NotFound(f"no shift scored above {min_score}")
    score, shift, text = best
    return AttackResult(
        method="caesar-lane-shortcut",
        recovered_key=None,
        plaintext=text,
        score=score,
        candidates_tried=n,
        elapsed=elapsed,
        effective_shift=shift,
    )


def avalanche(plaintext: bytes, key: CipherParams) -> list[DiffusionReport]:
    """Flip each plaintext bit in turn, re-encrypt, and report the fraction
    of ciphertext bits that changed.

    Bits are indexed most-significant first within each byte.  In letters
    mode the flipped bit is one of the symbol index (the letter's offset
    from A), reduced mod 26 so the input stays a letter.  Diffusion here is
    local by construction: one plaintext symbol feeds exactly 16 ciphertext
    bit positions.
    """
    packed = encrypt(plaintext, key).packed
    base = int.from_bytes(packed, "big")
    total = 8 * len(packed)
    data = bytes(plaintext)
    if key.mode == "letters":
        data = data.upper()
    codes = LANE_CODES[key.n]
    reports = []
    for bit in range(8 * len(data)):
        mutated = bytearray(data)
        i = bit // 8
        # Lane codes are consecutive, so code - codes[0] is the symbol.
        symbol = (mutated[i] - codes[0]) ^ 1 << (7 - bit % 8)
        mutated[i] = codes[symbol % key.n]
        other = int.from_bytes(encrypt(bytes(mutated), key).packed, "big")
        reports.append(DiffusionReport(bit, (base ^ other).bit_count() / total))
    return reports


def mean_fraction(reports) -> float:
    if not reports:
        return 0.0
    return sum(r.ciphertext_hamming_fraction for r in reports) / len(reports)


def attack_csv(result: AttackResult) -> str:
    """One-row CSV report of an attack outcome, for logging or plotting."""
    key = result.recovered_key
    row = [
        result.method,
        key.m if key else "",
        key.b if key else "",
        key.k if key else "",
        key.ra if key else "",
        key.rc if key else "",
        f"{result.score:.6f}",
        result.candidates_tried,
        result.keyspace if result.keyspace is not None else "",
        f"{result.elapsed:.3f}",
        result.effective_shift if result.effective_shift is not None else "",
    ]
    header = "method,m,b,k,ra,rc,score,candidates_tried,keyspace,elapsed_s,effective_shift"
    return header + "\n" + ",".join(str(x) for x in row) + "\n"


def avalanche_csv(reports) -> str:
    """Per-bit diffusion table; the mean rides along as a trailing comment."""
    lines = ["bit_index,hamming_fraction"]
    lines.extend(
        f"{r.input_bit_flipped},{r.ciphertext_hamming_fraction:.6f}" for r in reports
    )
    lines.append(f"# mean_fraction={mean_fraction(reports):.6f}")
    return "\n".join(lines) + "\n"


def frequency_csv(profile) -> str:
    lines = ["value,fraction"]
    lines.extend(f"{value},{fraction:.6f}" for value, fraction in enumerate(profile))
    return "\n".join(lines) + "\n"
