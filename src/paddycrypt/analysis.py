"""Cryptanalysis and diffusion measurement for the two-lane cipher.

The scheme's redundancy is also its weakness.  Both lanes encrypt the
same plaintext, so under any key whose lanes agree, lane_a = M*lane_b + C
(mod n) with M = m^ra.  Lane agreement therefore leaves at most one
candidate text per effective caesar shift, at most n texts, and the
plaintext scorer alone picks among them.  The caesar lane is weaker still,
because r iterated shifts collapse to the single effective shift (r*k) mod
n; half the ciphertext therefore falls to at most n trials no matter how
the iteration counts were chosen.

Attack scorers are plain callables bytes -> float (higher is better);
printable_ratio and english_score are the built-ins.  A scorer must be
pure: the same bytes always get the same score, because an attack may
score each distinct candidate text only once.  Every candidate text is
lane_b shifted back, so with the built-in english_score both attacks
score from counts: one histogram of lane_b, packed into one int, gives
every candidate's letter and space counts through one multiplication.
Candidates whose coverage bound cannot beat the best so far (or
min_score) are not scored, and the rest sum their chi-squared rarest
letter first, so that one which cannot reach it stops after a term or two.
Ties for the best score are broken once scoring is done, in each attack's
key order, and only the winner's text is built.  Custom or wrapped scorers
get every candidate text and score it in full.

The first attack on a CipherText keeps its raw lanes in that instance's
__dict__, and per alphabet lane_b's counts and the last search's shifts,
min_score and answer (not a dataclass field, so ==, hash and repr do not
see them, pickles and copies do not carry them, and they go with the
ciphertext).  A later attack on the same object, such as
caesar_lane_attack after brute_force, reads them back instead of
deinterleaving and counting again; it still checks the lanes against its
own mode.  With english_score and an equal min_score, a search over all n
shifts (caesar_lane_attack, or brute_force when every shift agrees) also
starts from the last search's answer: it scores only the shifts not
searched before whose coverage bound reaches that best.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd
from numbers import Real
from string import ascii_lowercase, ascii_uppercase

from .bitmatrix import deinterleave
from .ciphers import (
    LANE_AFFINE,
    LANE_CAESAR,
    LANE_CODES,
    CipherParams,
    affine_table,
    alphabet_size,
    check_lane_codes,
    iterated_affine,
    lane_table,
)
from .errors import InvalidArgument, NotFound, check_type
from .pipeline import CipherText, _plaintext_codes

# Relative letter frequencies in running English text (A..Z).
ENGLISH_LETTER_FREQ = {
    "a": 0.08167, "b": 0.01492, "c": 0.02782, "d": 0.04253, "e": 0.12702,
    "f": 0.02228, "g": 0.02015, "h": 0.06094, "i": 0.06966, "j": 0.00153,
    "k": 0.00772, "l": 0.04025, "m": 0.02406, "n": 0.06749, "o": 0.07507,
    "p": 0.01929, "q": 0.00095, "r": 0.05987, "s": 0.06327, "t": 0.09056,
    "u": 0.02758, "v": 0.00978, "w": 0.02360, "x": 0.00150, "y": 0.01974,
    "z": 0.00074,
}


# Every byte but printable ASCII, tab, newline and CR: deleted by
# data.translate, it leaves the printable bytes.
_NOT_PRINTABLE = bytes(b for b in range(256) if not (32 <= b < 127 or b in (9, 10, 13)))


def _not_bytes(data) -> InvalidArgument:
    """The error for a scorer's data that is not bytes or a bytearray; the
    scorers build it only once their bytes methods have failed."""
    return InvalidArgument(f"data must be bytes or a bytearray, got {type(data).__name__}")


def printable_ratio(data: bytes) -> float:
    """Fraction of bytes that are printable ASCII (plus tab/newline/CR).
    Raises InvalidArgument unless data is bytes or a bytearray."""
    if not data:
        if isinstance(data, (bytes, bytearray)):
            return 0.0
        raise _not_bytes(data)
    try:
        return len(data.translate(None, _NOT_PRINTABLE)) / len(data)
    except (AttributeError, TypeError):
        raise _not_bytes(data) from None


# Letters folded to lowercase, every other byte deleted: the argument pair
# of data.translate that leaves only the letters.
_FOLD_TO_LOWER = bytes.maketrans(ascii_uppercase.encode(), ascii_lowercase.encode())
_NON_LETTERS = bytes(range(256)).translate(None, (ascii_uppercase + ascii_lowercase).encode())
_LETTER_CODES = [ord(ch) for ch in ENGLISH_LETTER_FREQ]
_LETTER_FREQS = list(ENGLISH_LETTER_FREQ.values())


def chi_squared_english(data: bytes) -> float:
    """Chi-squared distance between the data's letter histogram and English.

    Case-insensitive; returns inf when the data contains no letters.
    Raises InvalidArgument unless data is bytes or a bytearray.
    """
    try:
        letters = data.translate(_FOLD_TO_LOWER, _NON_LETTERS)
    except (AttributeError, TypeError):
        raise _not_bytes(data) from None
    if not letters:
        return math.inf
    return _chi_squared([letters.count(code) for code in _LETTER_CODES], len(letters))


def _chi_squared(counts, total: int) -> float:
    """Chi-squared of the a..z letter counts, total letters in all, against
    English, summed from a to z."""
    chi2 = 0.0
    for count, freq in zip(counts, _LETTER_FREQS):
        expected = total * freq
        diff = count - expected
        chi2 += diff * diff / expected
    return chi2


def english_score(data: bytes) -> float:
    """Plaintext fitness: near 1 for English-looking bytes, near 0 for noise.

    Combines letter/space coverage with the letter-frequency chi-squared,
    so a case-shifted copy that turns spaces into junk scores below the
    true plaintext.  Raises InvalidArgument unless data is bytes or a
    bytearray.
    """
    try:
        letters = data.translate(_FOLD_TO_LOWER, _NON_LETTERS)
    except (AttributeError, TypeError):
        raise _not_bytes(data) from None
    counts = [letters.count(code) for code in _LETTER_CODES]
    return _score_counts(len(data), len(letters) + data.count(32), counts, None, len(letters))


# (index, frequency) of each letter, rarest first: z, q, x, j, ...
_RAREST_FIRST = sorted(enumerate(_LETTER_FREQS), key=lambda pair: pair[1])


def _score_counts(size: int, letterish: int, counts, floor: float | None,
                  total: int) -> float:
    """english_score of a text from its counts when that is at least floor
    (always when floor is None), otherwise some value below floor: size
    bytes, letterish of them letters or spaces, counts its a..z letter
    counts, case folded, and total their sum.  A text without letters
    scores 0.

    The score is top / (size + chi2), top = coverage * size, and chi2 >= 0
    is a sum of terms >= 0, so top / (size + any partial sum) bounds the
    score from above.  With a floor, the terms are summed rarest letter
    first, where a wrong shift's counts stray furthest from English; once
    the partial sum reaches top / floor - size, the bound is returned if it
    is below floor.  The partial sum is shrunk by 1e-12 first: the two
    orders of summation round apart by about 3e-15 of the sum at most, so
    no text that reaches floor is cut.  Any other text is scored from the
    a..z sum, so every score at or above floor is bit-identical to
    english_score.
    """
    if not total:
        return 0.0
    top = letterish / size * size
    if floor is not None and floor > 0:
        limit = top / floor - size
        partial = 0.0
        for i, freq in _RAREST_FIRST:
            expected = total * freq
            diff = counts[i] - expected
            partial += diff * diff / expected
            if partial >= limit:
                bound = top / (size + partial * (1 - 1e-12))
                if bound < floor:
                    return bound
                break
    return top / (size + _chi_squared(counts, total))


def frequency_profile(data, n: int = 256) -> list[float]:
    """Normalized value histogram.

    Byte or symbol sequences profile over [0, n); CipherText inputs are
    profiled per bit (n=2), exposing the ciphertext's 0/1 balance.  Raises
    InvalidArgument for an n that is not an int or is longer than a list
    can be, or a value that is not an int in [0, n).
    """
    if isinstance(data, CipherText):
        ones = int.from_bytes(data.packed, "big").bit_count()
        counts = [8 * len(data.packed) - ones, ones]
    else:
        if type(n) is not int:
            raise InvalidArgument(f"n must be an int, got {n!r}")
        if n > sys.maxsize:  # no list is that long
            raise InvalidArgument(f"n must be <= {sys.maxsize}, got {n}")
        counts = [0] * n
        try:
            # Bytes hold only ints, so each distinct one is checked once, in
            # first-seen order, with its count; other values one by one.
            if isinstance(data, (bytes, bytearray)):
                tally = Counter(data).items()
            else:
                tally = zip(data, repeat(1))
            for v, c in tally:
                if not 0 <= v < n:
                    raise InvalidArgument(f"value {v!r} outside [0, {n})")
                counts[v] += c
        except TypeError:
            raise InvalidArgument(f"values must be ints in [0, {n})") from None
    total = sum(counts)
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


@dataclass(frozen=True, slots=True)
class DiffusionReport:
    """Effect of flipping one plaintext bit on the whole ciphertext."""

    input_bit_flipped: int
    ciphertext_hamming_fraction: float


def keyspace_size(n: int, cap_b: int, cap_k: int) -> int:
    """Number of grid keys: units(n) * sum(b<=B) b * sum(k<=K) k."""
    if type(n) is not int or n not in LANE_CODES:
        raise InvalidArgument(f"n must be 26 or 256, got {n!r}")
    _check_caps(n, cap_b, cap_k)
    return _unit_count(n) * (cap_b * (cap_b + 1) // 2) * (cap_k * (cap_k + 1) // 2)


@functools.cache  # counted at the first call, not at import
def _unit_count(n: int) -> int:
    return sum(1 for m in range(1, n) if gcd(m, n) == 1)


def is_degenerate_key(key: CipherParams) -> bool:
    """True when the affine lane collapses to a bare shift (m^ra = 1 mod n)."""
    check_type("key", key, CipherParams)
    return pow(key.m, key.ra, key.n) == 1


def _check_caps(n: int, cap_b: int, cap_k: int) -> None:
    for name, cap in (("cap_b", cap_b), ("cap_k", cap_k)):
        if type(cap) is not int or not 1 <= cap < n:
            raise InvalidArgument(f"{name} must be in [1, {n}), got {cap!r}")


def _check_scoring(scorer, min_score) -> None:
    check_type("scorer", scorer, Callable)
    if min_score is not None:
        check_type("min_score", min_score, Real)


def brute_force(
    ciphertext: CipherText,
    scorer=english_score,
    *,
    mode: str = "byte",
    cap_b: int = 16,
    cap_k: int = 16,
    min_score: float | None = None,
) -> AttackResult:
    """Best key among those whose lanes agree, over the grid of m a unit
    of n, b <= cap_b, k <= cap_k, ra <= b and rc <= k, found in closed form
    rather than by walking the grid.

    The caesar lane is p + s with s = k*rc mod n, and the affine lane is
    M*p + B with M = m^ra and B = b*T, T = 1 + m + ... + m^(ra-1), so a
    key's lanes agree exactly when lane_a = M*lane_b + C with C = B - M*s.
    The units M that fit the lanes (usually one) fix C.  Two tables, built
    once per (mode, caps, M) in bounded caches, answer the rest.
    _caesar_keys maps each shift k*rc to its smallest (k, rc); _affine_rows
    holds each root (m, ra) of M with its row of values b*T, b = ra..cap_b,
    and the sorted codes the rows reach, which give the shifts s = (B -
    C)/M through one translate.  A shift in both agrees and gives one text,
    lane_b - s, scored as in caesar_lane_attack.  Ties go to the smallest
    (m, b, k, ra, rc) at a shift, which _smallest_key reads from the tables
    once all scoring is done, only for the shifts that tie.
    candidates_tried is still the whole grid, keyspace_size(n, cap_b,
    cap_k).  Raises NotFound when no key's lanes agree (above min_score).
    """
    check_type("ciphertext", ciphertext, CipherText)
    _check_scoring(scorer, min_score)
    n = alphabet_size(mode)
    _check_caps(n, cap_b, cap_k)
    start = time.perf_counter()

    codes_a, codes_b, counts = _lanes(ciphertext)
    check_lane_codes(codes_a, n)
    check_lane_codes(codes_b, n)
    codes = LANE_CODES[n]

    # Every key agrees on the empty text and every shift ties on it, so the
    # fit (1, 0) of the smallest key, (1, 1, 1, 1, 1) at shift 1, is enough.
    fits = _lane_fits(codes_a, codes_b, n) if codes_b else [(1, 0)]

    # Shift s agrees through B = C + M*s, so s = M^-1*(B - C).
    agreeing = set()
    for M, C in fits:
        if len(agreeing) == n:
            break
        inverse = pow(M, -1, n)
        agreeing.update(_affine_rows(n, cap_b, M)[0].translate(
            affine_table(n, inverse, -inverse * C % n)))
    agreeing.intersection_update(_caesar_keys(n, cap_k))

    best = _best_shift(codes_b, n, [code - codes[0] for code in agreeing], scorer, min_score,
                       counts)
    if best is None:
        raise NotFound(
            f"no key with b<={cap_b}, k<={cap_k} produced agreeing lanes above the threshold"
        )
    score, tied = best
    order, s = min((_smallest_key(n, cap_b, cap_k, fits, s), s) for s in tied)
    text = codes_b.translate(affine_table(n, 1, -s % n))
    elapsed = time.perf_counter() - start
    keyspace = keyspace_size(n, cap_b, cap_k)
    return AttackResult("brute-force", CipherParams(n, *order), text, score, keyspace, elapsed,
                        keyspace)


@functools.cache  # built at the first attack, not at import
def _power_roots(n: int) -> dict[int, list[tuple[int, int, int]]]:
    """Unit M -> every (m, e, order), in m order, with m a unit, order its
    multiplicative order and m^e = M (mod n), 1 <= e <= order: each unit's
    powers walked until they return to 1."""
    table = {}
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        powers = [m]
        while powers[-1] != 1:
            powers.append(powers[-1] * m % n)
        for e, M in enumerate(powers, 1):
            table.setdefault(M, []).append((m, e, len(powers)))
    return table


# brute_force's agreement tables depend on the alphabet, the caps and the
# unit M alone, never on the message, so each is built once.  The bounds
# hold every table that the default caps of both modes use (2 caesar key
# tables, 140 units M with 2,348 roots (m, ra) in all), with room to spare.

@functools.lru_cache(maxsize=64)
def _caesar_keys(n: int, cap_k: int) -> dict[int, tuple[int, int]]:
    """Code of each shift k*rc (mod n), k <= cap_k, rc <= k -> its smallest
    (k, rc), filled in (k, rc) order until every shift is reached."""
    codes = LANE_CODES[n]
    keys = {}
    for k in range(1, cap_k + 1):
        for rc, code in enumerate(codes[1:k + 1].translate(_times(n, k)), 1):
            keys.setdefault(code, (k, rc))
        if len(keys) == n:
            break
    return keys


@functools.lru_cache(maxsize=512)
def _affine_rows(n: int, cap_b: int, M: int) -> tuple[bytes, tuple[tuple[int, int, bytes], ...]]:
    """(reached, roots): roots has each root (m, ra) of m^ra = M (mod n),
    ra <= cap_b, in (m, ra) order, with its row, the codes of b*T for b =
    ra..cap_b, T = 1 + m + ... + m^(ra-1); reached has the rows' codes,
    sorted.  m's powers repeat every order steps, so ra = e (mod order),
    and as m^ra = M, T steps by M*T(order) from one root of m to the next."""
    codes = LANE_CODES[n]
    roots = []
    for m, e, order in _power_roots(n)[M]:
        if e > cap_b:
            continue
        T, step = iterated_affine(m, 1, e, n)[1], M * iterated_affine(m, 1, order, n)[1]
        for ra in range(e, cap_b + 1, order):
            roots.append((m, ra, codes[ra:cap_b + 1].translate(_times(n, T))))
            T = (T + step) % n
    roots = tuple(roots)
    # The lane codes less those in no row: two C-level deletes.
    return codes.translate(None, codes.translate(None, b"".join(row for *_, row in roots))), roots


def _smallest_key(n: int, cap_b: int, cap_k: int, fits, s: int) -> tuple[int, int, int, int, int]:
    """The smallest (m, b, k, ra, rc) of the grid whose lanes agree at
    shift s under one of fits: k*rc = s, and b*T = C + M*s for a root
    (m, ra) of a fit (M, C).  s must be a shift that agrees."""
    codes = LANE_CODES[n]
    k, rc = _caesar_keys(n, cap_k)[codes[s]]
    roots_of = _power_roots(n)
    best = None  # the smallest (m, b, ra)
    for M, C in fits:
        # A unit whose smallest root is past the best m has no smaller key.
        if best and roots_of[M][0][0] > best[0]:
            continue
        target = codes[(C + M * s) % n]
        for m, ra, row in _affine_rows(n, cap_b, M)[1]:
            # b >= ra, so no root past the best (m, b) gives a smaller key.
            if best and (m, ra) > best[:2]:
                break
            i = row.find(target)
            if i >= 0 and (best is None or (m, ra + i, ra) < best):
                best = (m, ra + i, ra)
    m, b, ra = best
    return m, b, k, ra, rc


# Per alphabet size, the symbols coded as letters, a run of 26 in letter
# order from each start (A-Z, then a-z), and the symbol coded as a space.
_LETTER_RUNS = {256: (65, 97), 26: (0,)}
_SPACES = {256: (32,), 26: ()}

# Per field width in bytes, the memoryview format of an unsigned field of
# that width, and _WINDOW: 26 fields of 1, so that a product with it sums
# every run of 26 fields.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_WINDOW = {width: sum(1 << 8 * width * i for i in range(26)) for width in _FORMATS}


def _fields(value: int, width: int, count: int) -> list[int]:
    """The low count fields of width bytes of value, lowest first."""
    # Native byte order both ways, so the host's order does not matter.
    raw = (value & ~(-1 << 8 * width * count)).to_bytes(width * count, sys.byteorder)
    return memoryview(raw).cast(_FORMATS[width]).tolist()


def _shift_counts(codes_b: bytes, n: int) -> tuple[list[int], list[int], list[int]]:
    """(folded, letters, letterish) of the texts lane_b - s, s in [0, n),
    for a non-empty lane_b of alphabet n: folded[s + i] is shift s's count
    of letter i, either case (n + 25 entries), letters[s] its letters and
    letterish[s] its letters and spaces.

    Shift s's count of text symbol v is lane_b's histogram at v + s.  The
    histogram is one int of n fields, each the narrowest of 1, 2, 4 or 8
    bytes that holds len(codes_b); no count or window sum exceeds that, so
    no carry crosses a field.  doubled repeats it once above, so each
    letter run is one shift of it, and one product with _WINDOW sums every
    run of 26 folded fields.
    """
    size = len(codes_b)
    width = next(width for width in _WINDOW if not size >> 8 * width)
    w = 8 * width
    offset = LANE_CODES[n][0]
    hist = 0
    for code, count in Counter(codes_b).items():
        hist |= count << w * (code - offset)
    doubled = hist | hist << w * n
    folded = sum(doubled >> w * run for run in _LETTER_RUNS[n]) & ~(-1 << w * (n + 25))
    letters = folded * _WINDOW[width] >> w * 25
    letterish = letters + sum(doubled >> w * space for space in _SPACES[n])
    return _fields(folded, width, n + 25), _fields(letters, width, n), _fields(letterish, width, n)


# The built-in scorer, bound at import: a wrapper later rebound to the
# module name english_score is not it, and gets every text.
_ENGLISH_SCORE = english_score


def _lanes(ciphertext: CipherText) -> tuple[bytes, bytes, dict]:
    """(lane_a, lane_b, counts): the ciphertext's raw lanes, and a dict from
    alphabet size n to a record that _best_shift fills: lane_b's
    _shift_counts, then the last search's shifts, min_score and answer.

    Built at the first attack on the instance and kept in its __dict__, so
    every later attack on it reads them back.  The lanes hold raw bytes,
    not yet checked against a mode, so each attack still checks them with
    check_lane_codes.  It is not a dataclass field: ==, hash and repr do not
    see it, pickles and copies do not carry it, and it is freed with the
    ciphertext.
    """
    stored = ciphertext.__dict__
    lanes = stored.get("_lanes")
    if lanes is None:
        lane_a, lane_b = deinterleave(ciphertext.packed)
        lanes = stored["_lanes"] = lane_a, lane_b, {}
    return lanes


def _best_shift(codes_b: bytes, n: int, shifts, scorer, min_score, counts: dict):
    """(best, tied): the best score of a text lane_b - shift among the
    shifts (distinct, in [0, n)) that score at least min_score, and the
    shifts that reach it, in no set order; None if none does.  The caller
    breaks the tie.

    The built-in scorer (_ENGLISH_SCORE, so a wrapper rebound to the module
    name is not it) scores from counts: _shift_counts reads every shift's
    letter and space counts from one packed histogram of lane_b, and they
    give its coverage bound top / size on its score.  counts, the dict from
    _lanes, keeps them per alphabet n, so each ciphertext builds them once
    per n.  Shifts are visited by descending bound until the bound falls
    below the score to reach (the best so far, or min_score), and scored by
    _score_counts with that score as the floor, so a shift that cannot
    reach it stops after a term or two; no text is built.  A score to reach
    before the first visit (min_score, or an earlier answer's best below)
    first drops the shifts with fewer than best * size - 1 letters and
    spaces, before they are sorted: the bound is within three roundings of
    count / size, so none that reaches best is dropped, and the break stops
    at the first one kept that does not.  A nan best keeps every shift.

    Each search from counts also writes its shifts as given, min_score and
    answer next to the counts, one tuple in one assignment, so a thread
    sees either the old record or the new.  A later search over all n
    shifts with an equal min_score starts from that answer: every earlier
    shift outside its tied scored below its best (or min_score), so it
    visits only the shifts not searched before.  Any other search runs
    from the start.

    Any other scorer, or an empty lane, gets every shift's text in the
    order given, and neither reads nor writes the record.
    """
    from_counts = scorer is _ENGLISH_SCORE and bool(codes_b)
    best, tied = min_score, []  # best is min_score until a shift scores
    visits = shifts
    if from_counts:
        size = len(codes_b)
        record = counts.get(n)
        searched = ()
        if record is None:
            folded, letters, letterish = _shift_counts(codes_b, n)
        else:
            folded, letters, letterish, last_shifts, last_min_score, answer = record
            if last_min_score == min_score and len(shifts) == n:  # n shifts are all of them
                searched = set(last_shifts)
                if answer is not None:
                    best, tied = answer[0], list(answer[1])
        if best is not None or searched:
            # The least int count not below best * size - 1, as an int
            # compares with the counts faster than a float does: max keeps -1
            # for a nan or -inf best, and min caps inf.
            low = -1 if best is None else math.ceil(max(-1, min(best * size - 1, size)))
            visits = [s for s in shifts if letterish[s] >= low and s not in searched]
        visits = sorted(visits, key=letterish.__getitem__, reverse=True)
    for s in visits:
        if from_counts:
            if best is not None and letterish[s] / size * size / size < best:
                break
            score = _score_counts(size, letterish[s], folded[s:s + 26], best, letters[s])
        else:
            score = scorer(codes_b.translate(affine_table(n, 1, -s % n)))
        if min_score is not None and score < min_score:
            continue
        if not tied or score > best:
            best, tied = score, [s]
        elif score == best:
            tied.append(s)
    answer = (best, tied) if tied else None
    if from_counts:
        counts[n] = folded, letters, letterish, shifts, min_score, answer
    return answer


@functools.cache  # one per (n, t), built on first use
def _times(n: int, t: int) -> bytes:  # lane map s -> t*s (mod n), 0 <= t < n
    return affine_table(n, t, 0) if t else bytes.maketrans(LANE_CODES[n], LANE_CODES[n][:1] * n)


def _lane_fits(codes_a: bytes, codes_b: bytes, n: int) -> list[tuple[int, int]]:
    """Every (M, C), M a unit, with lane_a = M*lane_b + C (mod n) symbol by
    symbol; the lanes are non-empty lane codes of alphabet n."""
    b0, a0 = codes_b[0], codes_a[0]
    codes = LANE_CODES[n]
    # Every pair (b1, a1) needs M*(b1 - b0) = a1 - a0, which fixes M modulo
    # n/gcd(b1 - b0, n); a pair of smallest gcd leaves the fewest M to
    # check.  The gcd is b1's alone: lane_b's distinct codes (the lane
    # codes less those absent from lane_b, two C-level deletes) are read in
    # code order down to gcd 1, and a1 at b1's first index.  Every M left
    # is checked on the whole lanes, so b1 sets only how many are tried.
    # Lane codes are consecutive, so code differences are symbol ones.
    g = n + 1
    for value in codes.translate(None, codes.translate(None, codes_b)):
        if gcd(value - b0, n) < g:
            g, b1 = gcd(value - b0, n), value
            if g == 1:
                break
    d, e = (b1 - b0) % n, (codes_a[codes_b.index(b1)] - a0) % n
    if e % g:
        return []
    step = n // g
    first = e // g * pow(d // g, -1, step) % step
    fits = []
    for M in range(first, n, step):
        if gcd(M, n) != 1:
            continue
        C = (a0 - codes[0] - M * (b0 - codes[0])) % n
        if codes_b.translate(affine_table(n, M, C)) == codes_a:
            fits.append((M, C))
    return fits


def caesar_lane_attack(
    ciphertext: CipherText,
    scorer=english_score,
    *,
    mode: str = "byte",
    min_score: float | None = None,
) -> AttackResult:
    """Recover the plaintext from the caesar lane alone.

    The lane's iterated shift is a single effective shift, so at most n
    candidates exist regardless of the key's iteration count, the texts
    lane_b - s.  With english_score they are scored from one histogram of
    lane_b: only shifts whose coverage bound can beat the best so far are
    scored, from counts, and only the winner's text is built.  Any other
    scorer gets all n texts.  Ties go to the smallest shift.  No full key is
    recovered; the result carries the winning shift and plaintext.
    """
    check_type("ciphertext", ciphertext, CipherText)
    _check_scoring(scorer, min_score)
    n = alphabet_size(mode)
    start = time.perf_counter()

    _, codes_b, counts = _lanes(ciphertext)
    check_lane_codes(codes_b, n)
    best = _best_shift(codes_b, n, range(n), scorer, min_score, counts)
    if best is None:
        raise NotFound(f"no shift scored above {min_score}")
    score, tied = best
    shift = min(tied)
    text = codes_b.translate(affine_table(n, 1, -shift % n))
    elapsed = time.perf_counter() - start
    return AttackResult("caesar-lane-shortcut", None, text, score, n, elapsed,
                        effective_shift=shift)


def avalanche(plaintext: bytes, key: CipherParams) -> list[DiffusionReport]:
    """Flip each plaintext bit in turn and report the fraction of the 16N
    ciphertext bits that the flip changes.

    Bits are indexed most-significant first within each byte.  In letters
    mode the flipped bit is one of the symbol index (the letter's offset
    from A), reduced mod 26 so the input stays a letter.

    Diffusion is local by construction, so nothing is re-encrypted: each
    lane maps a symbol's code c alone and the transposition only moves bits,
    so flipping c to c' changes popcount(A[c] ^ A[c']) + popcount(B[c] ^
    B[c']) ciphertext bits, A and B the key's two lane tables.
    """
    data = _plaintext_codes(plaintext, key)
    tables = lane_table(key, LANE_AFFINE), lane_table(key, LANE_CAESAR)
    codes = LANE_CODES[key.n]
    total = 16 * len(data)
    rows = {}
    for code in set(data):
        # Lane codes are consecutive, so code - codes[0] is the symbol.
        flips = [codes[((code - codes[0]) ^ 1 << (7 - bit)) % key.n] for bit in range(8)]
        rows[code] = [sum((t[code] ^ t[flip]).bit_count() for t in tables) / total
                      for flip in flips]
    fractions = chain.from_iterable(map(rows.__getitem__, data))
    return list(map(DiffusionReport, range(8 * len(data)), fractions))


def _check_reports(reports) -> None:
    """Raise InvalidArgument naming the type of the first report that is
    not a DiffusionReport, or of the first report fraction that is not a
    Real.  The bit index is only printed, so any value formats.  Called only
    once reading a report has failed, so a list of reports is not checked
    item by item on the way."""
    for report in reports:
        check_type("report", report, DiffusionReport)
        check_type("report.ciphertext_hamming_fraction", report.ciphertext_hamming_fraction, Real)


def mean_fraction(reports) -> float:
    if not reports:
        return 0.0
    try:
        return sum(r.ciphertext_hamming_fraction for r in reports) / len(reports)
    except AttributeError:
        _check_reports(reports)
        raise
    except TypeError:  # not iterable, without len as an iterator is, or a bad fraction
        check_type("reports", reports, Sequence)
        _check_reports(reports)
        raise


def attack_csv(result: AttackResult) -> str:
    """One-row CSV report of an attack outcome, for logging or plotting."""
    check_type("result", result, AttackResult)
    key = result.recovered_key
    fields = (key.m, key.b, key.k, key.ra, key.rc) if key else ("",) * 5
    row = [result.method, *fields, f"{result.score:.6f}", result.candidates_tried,
           "" if result.keyspace is None else result.keyspace, f"{result.elapsed:.3f}",
           "" if result.effective_shift is None else result.effective_shift]
    header = "method,m,b,k,ra,rc,score,candidates_tried,keyspace,elapsed_s,effective_shift"
    return header + "\n" + ",".join(str(x) for x in row) + "\n"


def avalanche_csv(reports) -> str:
    """Per-bit diffusion table; the mean rides along as a trailing comment."""
    lines = ["bit_index,hamming_fraction"]
    try:
        lines.extend(
            f"{r.input_bit_flipped},{r.ciphertext_hamming_fraction:.6f}" for r in reports
        )
    except AttributeError:
        _check_reports(reports)
        raise
    except (TypeError, ValueError):  # not iterable, or a fraction that is not a number
        check_type("reports", reports, Sequence)
        _check_reports(reports)
        raise
    lines.append(f"# mean_fraction={mean_fraction(reports):.6f}")
    return "\n".join(lines) + "\n"


def frequency_csv(profile) -> str:
    lines = ["value,fraction"]
    lines.extend(f"{value},{fraction:.6f}" for value, fraction in enumerate(profile))
    return "\n".join(lines) + "\n"
