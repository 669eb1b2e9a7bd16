"""Unit tests for the cryptanalysis and diffusion suite."""

import copy
import math
import pickle
import random
import string
import sys
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt import analysis
from paddycrypt.analysis import (
    ENGLISH_LETTER_FREQ,
    AttackResult,
    DiffusionReport,
    attack_csv,
    avalanche,
    avalanche_csv,
    _affine_rows,
    _caesar_keys,
    _lane_fits,
    _score_counts,
    _shift_counts,
    _smallest_key,
    brute_force,
    caesar_lane_attack,
    chi_squared_english,
    english_score,
    frequency_csv,
    frequency_profile,
    is_degenerate_key,
    keyspace_size,
    mean_fraction,
    printable_ratio,
)
from paddycrypt.bitmatrix import build_permutation, deinterleave
from paddycrypt.ciphers import (
    LANE_AFFINE,
    LANE_CODES,
    CipherParams,
    affine_table,
    check_lane_codes,
    iterated_affine,
    lane_table,
    mod_inverse,
)
from paddycrypt.errors import (
    CipherError,
    IntegrityMismatch,
    NonLetterInput,
    NonLetterOutput,
    NotFound,
)
from paddycrypt.pipeline import CipherText, decrypt, encrypt, keygen

ENGLISH = b"the quick brown fox jumps over the lazy dog"


class TestScorers:
    def test_english_beats_noise(self):
        noise = bytes(random.Random(0).randrange(256) for _ in range(len(ENGLISH)))
        assert english_score(ENGLISH) > english_score(noise)

    def test_english_beats_case_shifted_copy(self):
        # byte shift by 32 turns spaces into control bytes
        shifted = bytes((b - 32) % 256 for b in ENGLISH)
        assert english_score(ENGLISH) > english_score(shifted)

    def test_empty_scores_zero(self):
        assert english_score(b"") == 0.0
        assert printable_ratio(b"") == 0.0

    def test_printable_ratio(self):
        assert printable_ratio(b"abcd") == 1.0
        assert printable_ratio(b"ab\x00\x01") == 0.5

    def test_chi_squared_no_letters(self):
        assert math.isinf(chi_squared_english(b"123 456"))


def reference_chi_squared_english(data):
    """chi_squared_english as first written: a Counter over folded letters."""
    letters = [byte | 0x20 for byte in data if 65 <= byte <= 90 or 97 <= byte <= 122]
    if not letters:
        return math.inf
    counts = Counter(letters)
    total = len(letters)
    chi2 = 0.0
    for ch, freq in ENGLISH_LETTER_FREQ.items():
        expected = total * freq
        diff = counts.get(ord(ch), 0) - expected
        chi2 += diff * diff / expected
    return chi2


def reference_english_score(data):
    """english_score as first written, byte by byte."""
    if not data:
        return 0.0
    letterish = sum(
        1 for byte in data if 65 <= byte <= 90 or 97 <= byte <= 122 or byte == 32
    )
    coverage = letterish / len(data)
    chi2 = reference_chi_squared_english(data)
    if math.isinf(chi2):
        return 0.0
    return coverage * len(data) / (len(data) + chi2)


def reference_printable_ratio(data):
    """printable_ratio as first written, byte by byte."""
    if not data:
        return 0.0
    ok = sum(1 for byte in data if 32 <= byte < 127 or byte in (9, 10, 13))
    return ok / len(data)


english_like = st.text(
    alphabet=string.ascii_letters + " .,'\n", max_size=200
).map(str.encode)
scorer_inputs = st.one_of(st.binary(max_size=200), english_like)


@settings(max_examples=500, deadline=None)
@given(scorer_inputs)
def test_scorers_match_reference_bit_for_bit(data):
    for text in (data, bytearray(data)):
        assert chi_squared_english(text) == reference_chi_squared_english(data)
        assert english_score(text) == reference_english_score(data)
        assert printable_ratio(text) == reference_printable_ratio(data)


@settings(max_examples=500, deadline=None)
@given(scorer_inputs, st.one_of(st.floats(0, 1), scorer_inputs.map(english_score)))
def test_floored_english_score_is_exact_at_or_above_the_floor(data, floor):
    exact = reference_english_score(data)
    letters = [byte | 0x20 for byte in data if 65 <= byte <= 90 or 97 <= byte <= 122]
    counted = Counter(letters)
    counts = [counted[ord(ch)] for ch in ENGLISH_LETTER_FREQ]
    letterish = len(letters) + data.count(32)
    # The drawn floor, and floors at the score itself and one ulp either side.
    for f in (floor, exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf)):
        score = _score_counts(len(data), letterish, counts, f, len(letters))
        if exact >= f:
            assert repr(score) == repr(exact)
        else:
            assert score < f


def reference_shift_counts(codes_b, n):
    """_shift_counts text by text: each shift's text lane_b - s, built as
    the attacks build it, and its letter counts, either case, its letters
    and its letters and spaces."""
    upper = LANE_CODES[26]
    lower = upper.lower() if n == 256 else b""
    folded, letters, letterish = [None] * (n + 25), [], []
    for s in range(n):
        text = codes_b.translate(affine_table(n, 1, -s % n))
        counts = [text.count(u) + (text.count(lower[i]) if lower else 0)
                  for i, u in enumerate(upper)]
        for i, count in enumerate(counts):
            assert folded[s + i] in (None, count)  # shifts share folded entries
            folded[s + i] = count
        letters.append(sum(counts))
        letterish.append(sum(counts) + (text.count(32) if n == 256 else 0))
    return folded, letters, letterish


def shift_count_lanes():
    """Lanes across each field-width edge (255/256 and 65,535/65,536 bytes)
    in both modes: a constant lane (one field holds the whole count), a
    lane with every code, and a random one."""
    rng = random.Random(26)
    for n in (256, 26):
        codes = LANE_CODES[n]
        for size in (255, 256, 65535, 65536):
            yield pytest.param(n, codes[7:8] * size, id=f"{n}-constant-{size}")
            yield pytest.param(n, (codes * (size // n + 1))[:size], id=f"{n}-every-code-{size}")
            yield pytest.param(n, bytes(rng.choices(codes, k=size)), id=f"{n}-random-{size}")


@pytest.mark.parametrize("n,codes_b", shift_count_lanes())
def test_shift_counts_match_the_texts_at_field_width_edges(n, codes_b):
    assert _shift_counts(codes_b, n) == reference_shift_counts(codes_b, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([256, 26]).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(list(LANE_CODES[n])), min_size=1, max_size=600).map(bytes))))
def test_shift_counts_match_the_texts(lane):
    n, codes_b = lane
    assert _shift_counts(codes_b, n) == reference_shift_counts(codes_b, n)


class TestFrequencyProfile:
    def test_uniform_is_flat(self):
        profile = frequency_profile(bytes(range(256)) * 4)
        assert all(abs(f - 1 / 256) < 1e-12 for f in profile)

    def test_single_spike(self):
        profile = frequency_profile(b"AAAA")
        assert profile[65] == 1.0
        assert sum(profile) == 1.0

    def test_empty(self):
        assert frequency_profile(b"") == [0.0] * 256

    @pytest.mark.parametrize("data,n,value", [
        (b"\xff", 26, "255"),
        (b"ab", 0, "97"),
        ([-1], 4, "-1"),
        ([1.5], 4, r"ints in \[0, 4\)"),
        (["a"], 4, r"ints in \[0, 4\)"),
        # The first bad value in data order is the one reported.
        (b"\x01\x09\x07\x09", 6, "^value 9 outside"),
        (bytearray(b"\x02\x08\x02"), 6, "^value 8 outside"),
        ([5, [1]], 4, "^value 5 outside"),
        ([[1], 5], 4, r"ints in \[0, 4\)"),
        ([1, 1.0], 4, r"ints in \[0, 4\)"),
    ])
    def test_rejects_out_of_range_values(self, data, n, value):
        with pytest.raises(CipherError, match=value):
            frequency_profile(data, n=n)

    @pytest.mark.parametrize("kind", [bytes, bytearray, list, iter])
    def test_counts_every_value(self, kind):
        data = random.Random(8).randbytes(3000)
        assert frequency_profile(kind(data)) == [data.count(v) / len(data) for v in range(256)]

    def test_ciphertext_bit_balance(self):
        # 625 random bytes -> 10000 ciphertext bits; 3-sigma binomial band
        rng = random.Random(2024)
        key = keygen("byte", seed=6)
        ct = encrypt(rng.randbytes(625), key)
        profile = frequency_profile(ct)
        assert len(profile) == 2
        sigma = math.sqrt(0.25 / len(ct.bits))
        assert abs(profile[1] - 0.5) < 3 * sigma
        assert profile == [ct.bits.count(0) / len(ct.bits), ct.bits.count(1) / len(ct.bits)]


@pytest.mark.parametrize("call", [
    keygen,
    lambda mode: brute_force(encrypt(b"x", keygen(seed=1)), mode=mode),
    lambda mode: caesar_lane_attack(encrypt(b"x", keygen(seed=1)), mode=mode),
], ids=["keygen", "brute_force", "caesar_lane_attack"])
def test_unknown_mode(call):
    with pytest.raises(ValueError) as err:
        call("bogus")
    assert str(err.value) == "mode must be one of ['byte', 'letters'], got 'bogus'"


class TestBruteForce:
    KEY = CipherParams(n=256, m=5, b=4, k=3, ra=2, rc=2)

    def test_recovers_key(self):
        ct = encrypt(ENGLISH, self.KEY)
        result = brute_force(ct, cap_b=4, cap_k=4)
        assert result.plaintext == ENGLISH
        assert result.recovered_key == self.KEY
        assert decrypt(ct, result.recovered_key) == ENGLISH

    def test_candidate_count_matches_grid(self):
        ct = encrypt(b"sixteen characters!!", self.KEY)
        result = brute_force(ct, cap_b=4, cap_k=4)
        # independent count: units * sum(ra choices) * sum(rc choices)
        units = sum(1 for m in range(1, 256) if math.gcd(m, 256) == 1)
        expected = units * sum(range(1, 5)) * sum(range(1, 5))
        assert result.candidates_tried == expected
        assert result.keyspace == expected == keyspace_size(256, 4, 4)

    def test_not_found_on_impossible_threshold(self):
        ct = encrypt(ENGLISH, self.KEY)
        with pytest.raises(NotFound):
            brute_force(ct, cap_b=4, cap_k=4, min_score=math.inf)

    def test_all_zero_ciphertext_degenerate(self):
        ct = CipherText((0,) * (16 * 8))
        with pytest.raises(NotFound):
            brute_force(ct, cap_b=4, cap_k=4, min_score=0.9)
        # without a threshold the report is degenerate but well-formed
        result = brute_force(ct, cap_b=4, cap_k=4)
        assert result.score < 0.1
        assert decrypt(ct, result.recovered_key) == result.plaintext

    def test_candidate_count_grows_with_caps(self):
        key = CipherParams(n=256, m=5, b=2, k=2, ra=1, rc=1)
        ct = encrypt(b"sixteen characters!!", key)
        counts = [
            brute_force(ct, cap_b=cap, cap_k=cap).candidates_tried
            for cap in (2, 3, 4)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_caps_validated(self):
        ct = encrypt(b"x", self.KEY)
        with pytest.raises(ValueError):
            brute_force(ct, cap_b=0)
        with pytest.raises(ValueError):
            brute_force(ct, mode="letters", cap_k=26)

    def test_letters_mode(self):
        key = CipherParams(n=26, m=3, b=4, k=3, ra=2, rc=1)
        message = b"THEHARVESTISREADYTODAY"
        ct = encrypt(message, key)
        result = brute_force(ct, mode="letters", cap_b=4, cap_k=4)
        assert result.plaintext == message


def grid_agreeing(ct, scorer, mode, cap_b, cap_k):
    """Decrypt under every grid key; (score, (m, b, k, ra, rc), text) for
    each key whose lanes agree."""
    n = 256 if mode == "byte" else 26
    scored = []
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        for b in range(1, cap_b + 1):
            for k in range(1, cap_k + 1):
                for ra in range(1, b + 1):
                    for rc in range(1, k + 1):
                        try:
                            text = decrypt(ct, CipherParams(n, m, b, k, ra, rc))
                        except IntegrityMismatch:
                            continue
                        scored.append((scorer(text), (m, b, k, ra, rc), text))
    return scored


def grid_oracle(ct, scorer, mode, cap_b, cap_k):
    """Reference for brute_force: the best score among the agreeing grid
    keys, ties going to the smallest (m, b, k, ra, rc)."""
    n = 256 if mode == "byte" else 26
    scored = grid_agreeing(ct, scorer, mode, cap_b, cap_k)
    score, order, text = min(scored, key=lambda c: (-c[0], c[1]))
    return CipherParams(n, *order), text, score


# (mode, ciphertext, scorer, cap_b, cap_k).  Unequal caps make the affine
# and caesar walks share only part of the shift tables.  In letters-caps-2-5
# the winning caesar text comes from (k, rc) = (2, 2) and (4, 1); in
# letters-ties-k-before-ra the walk meets (ra, k) = (1, 5) before the
# smaller key (2, 1).
ORACLE_CASES = pytest.mark.parametrize("mode,ct,scorer,cap_b,cap_k", [
    ("byte", encrypt(b"grid search", CipherParams(256, 5, 3, 2, 2, 1)), english_score, 3, 3),
    ("byte", CipherText((0,) * 128), english_score, 3, 3),  # every lane byte ties
    ("letters", encrypt(b"PADDYFIELD", CipherParams(26, 7, 2, 3, 1, 3)), english_score, 3, 3),
    ("letters", encrypt(b"AAAA", CipherParams(26, 3, 3, 1, 2, 1)), printable_ratio, 3, 3),
    ("letters", encrypt(b"RICEFIELD", CipherParams(26, 5, 4, 2, 3, 2)), english_score, 5, 2),
    ("letters", encrypt(b"HARVEST", CipherParams(26, 11, 2, 4, 2, 1)), english_score, 2, 5),
    ("letters", encrypt(b"FDV", CipherParams(26, 1, 2, 1, 2, 1)), printable_ratio, 2, 5),
    ("byte", encrypt(b"paddy", CipherParams(256, 3, 4, 1, 3, 1)), english_score, 4, 1),
], ids=["byte-english", "byte-all-zero", "letters-english", "letters-ties",
        "letters-caps-5-2", "letters-caps-2-5", "letters-ties-k-before-ra", "byte-caps-4-1"])


@ORACLE_CASES
def test_brute_force_matches_decrypt_oracle(mode, ct, scorer, cap_b, cap_k):
    result = brute_force(ct, scorer, mode=mode, cap_b=cap_b, cap_k=cap_k)
    key, text, score = grid_oracle(ct, scorer, mode, cap_b, cap_k)
    assert (result.recovered_key, result.plaintext, result.score) == (key, text, score)


@ORACLE_CASES
def test_brute_force_scores_each_agreeing_text_once(mode, ct, scorer, cap_b, cap_k):
    calls = []

    def counting(text):
        calls.append(text)
        return scorer(text)

    brute_force(ct, counting, mode=mode, cap_b=cap_b, cap_k=cap_k)
    texts = {text for _, _, text in grid_agreeing(ct, scorer, mode, cap_b, cap_k)}
    assert sorted(calls) == sorted(texts)


def join_oracle(ciphertext, scorer=english_score, *, mode="byte", cap_b=16, cap_k=16,
                min_score=None):
    """Reference for brute_force that walks the grid, joining the lanes on
    text: each caesar-lane text is indexed by its first (k, rc) in walk
    order, and each affine candidate (m, b, ra) costs one dict lookup.
    Fast enough for caps 255, unlike grid_oracle."""
    n = 256 if mode == "byte" else 26
    codes_a, codes_b = deinterleave(ciphertext.packed)
    check_lane_codes(codes_a + codes_b, n)
    unshift = [None] + [affine_table(n, 1, -j % n) for j in range(1, max(cap_b, cap_k) + 1)]
    caesar_keys = {}
    for k in range(1, cap_k + 1):
        pb = codes_b
        for rc in range(1, k + 1):
            pb = pb.translate(unshift[k])
            caesar_keys.setdefault(pb, (k, rc))
    scores = {}
    best = None  # (score, (m, b, k, ra, rc), plaintext bytes)
    for m in range(1, n):
        if math.gcd(m, n) != 1:
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
                if pa not in scores:
                    scores[pa] = scorer(pa)
                score = scores[pa]
                if min_score is not None and score < min_score:
                    continue
                order = (m, b, match[0], ra, match[1])
                if best is None or score > best[0] or (score == best[0] and order < best[1]):
                    best = (score, order, pa)
    if best is None:
        raise NotFound(
            f"no key with b<={cap_b}, k<={cap_k} produced agreeing lanes above the threshold"
        )
    keyspace = keyspace_size(n, cap_b, cap_k)
    return AttackResult("brute-force", CipherParams(n, *best[1]), best[2], best[0],
                        keyspace, 0.0, keyspace)


def attack_outcome(attack, ct, scorer, mode, cap_b, cap_k, min_score=None):
    """What brute_force and join_oracle must agree on, or the error (such as
    NotFound) and its text."""
    try:
        result = attack(ct, scorer, mode=mode, cap_b=cap_b, cap_k=cap_k, min_score=min_score)
    except CipherError as err:
        return type(err), str(err)
    return (result.recovered_key, result.plaintext, repr(result.score),
            result.candidates_tried, result.keyspace)


@ORACLE_CASES
def test_join_oracle_matches_decrypt_oracle(mode, ct, scorer, cap_b, cap_k):
    result = join_oracle(ct, scorer, mode=mode, cap_b=cap_b, cap_k=cap_k)
    key, text, score = grid_oracle(ct, scorer, mode, cap_b, cap_k)
    assert (result.recovered_key, result.plaintext, result.score) == (key, text, score)


def join_cases(count, seed, byte_cap=8, key_cap=12):
    """Seeded brute_force inputs, (mode, ciphertext, cap_b, cap_k): both
    modes, unequal caps and caps below the key's b and k, keys with m = 1
    and m = n - 1, empty, one-symbol and constant messages, messages whose
    lane_b differences are all even (several units M fit the lanes), and
    ciphertexts with one bit flipped.  Byte-mode caps go up to byte_cap and
    key shifts up to key_cap (below n)."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        mode = ("byte", "letters")[i % 2]
        n = 256 if mode == "byte" else 26
        codes = bytes(range(256)) if n == 256 else string.ascii_uppercase.encode()
        length = rng.randint(2, 24) if rng.random() < 0.8 else rng.randint(0, 1)
        shape = rng.randrange(6)
        if shape == 0:  # constant
            message = codes[rng.randrange(n):][:1] * length
        elif shape == 1:  # every difference even
            message = bytes(rng.choice(codes[::2]) for _ in range(length))
        else:
            message = bytes(rng.choice(codes) for _ in range(length))
        m = rng.choice([1, n - 1, rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])])
        b, k = rng.randint(1, min(key_cap, n - 1)), rng.randint(1, min(key_cap, n - 1))
        key = CipherParams(n, m, b, k, rng.randint(1, b), rng.randint(1, k))
        ct = encrypt(message, key)
        if ct.packed and rng.random() < 0.25:
            packed = bytearray(ct.packed)
            bit = rng.randrange(8 * len(packed))
            packed[bit // 8] ^= 0x80 >> bit % 8
            ct = CipherText.from_packed(bytes(packed))
        cap_b = rng.randint(1, byte_cap if mode == "byte" else 25)
        cap_k = rng.randint(1, byte_cap if mode == "byte" else 25)
        cases.append(pytest.param(mode, ct, cap_b, cap_k, id=f"{i}-{mode}-{len(message)}-{cap_b}-{cap_k}"))
    return cases


@pytest.mark.parametrize("mode,ct,cap_b,cap_k", join_cases(200, seed=9))
def test_brute_force_matches_join_oracle(mode, ct, cap_b, cap_k):
    for scorer in (english_score, printable_ratio):
        for min_score in (None, 0.5):
            args = (ct, scorer, mode, cap_b, cap_k, min_score)
            assert attack_outcome(brute_force, *args) == attack_outcome(join_oracle, *args)


# Byte caps and key shifts up to 64: the rows of many roots and of many k,
# and keys inside and outside the caps (in byte mode, constant, even and
# random messages each have keys of both kinds).
@pytest.mark.parametrize("mode,ct,cap_b,cap_k", join_cases(40, seed=18, byte_cap=64, key_cap=64))
def test_brute_force_matches_join_oracle_at_wide_caps(mode, ct, cap_b, cap_k):
    for scorer in (english_score, printable_ratio):
        for min_score in (None, 0.5):
            args = (ct, scorer, mode, cap_b, cap_k, min_score)
            assert attack_outcome(brute_force, *args) == attack_outcome(join_oracle, *args)


ATTACK_MESSAGE = b"meet me at the usual place at noon"


@pytest.mark.parametrize("mode,message,key,cap", [
    ("byte", ATTACK_MESSAGE, CipherParams(256, 147, 201, 177, 98, 153), 255),
    ("letters", b"MEETMEATTHEUSUALPLACEATNOON", CipherParams(26, 7, 20, 19, 11, 16), 25),
], ids=["byte-caps-255", "letters-caps-25"])
def test_brute_force_matches_join_oracle_at_full_caps(mode, message, key, cap):
    ct = encrypt(message, key)
    outcome = attack_outcome(brute_force, ct, english_score, mode, cap, cap)
    assert outcome == attack_outcome(join_oracle, ct, english_score, mode, cap, cap)
    assert outcome[1] == message


def test_brute_force_matches_join_oracle_on_a_constant_message_at_full_caps():
    # Every unit M fits a constant message's lanes, so every row of the
    # roots table is read.  The plaintext is not asserted: english_score
    # ranks eee... above aaa...
    ct = encrypt(b"a" * 34, CipherParams(256, 147, 201, 177, 98, 153))
    outcome = attack_outcome(brute_force, ct, english_score, "byte", 255, 255)
    assert outcome == attack_outcome(join_oracle, ct, english_score, "byte", 255, 255)


@pytest.mark.parametrize("message", [ATTACK_MESSAGE, b"a" * 34], ids=["readme", "constant"])
def test_brute_force_scores_each_agreeing_text_once_at_full_caps(message):
    # join_oracle scores each distinct agreeing text once; brute_force must
    # score the same texts, each once.
    ct = encrypt(message, CipherParams(256, 147, 201, 177, 98, 153))

    def texts_scored(attack):
        texts = []

        def counting(text):
            texts.append(text)
            return english_score(text)

        attack(ct, counting, cap_b=255, cap_k=255)
        return texts

    scored = texts_scored(brute_force)
    assert len(set(scored)) == len(scored)
    assert sorted(scored) == sorted(texts_scored(join_oracle))


def test_brute_force_memory_is_bounded_by_n_times_message():
    # cap_k = 64 walks 2080 caesar-lane candidates, but they decrypt to at
    # most n = 256 distinct texts, and only those are kept.
    message = random.Random(5).randbytes(4096)
    ct = encrypt(message, CipherParams(256, 5, 2, 40, 1, 7))
    tracemalloc.start()
    try:
        result = brute_force(ct, cap_b=2, cap_k=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.plaintext == message
    assert peak < 2 * 256 * 4096


def clear_analysis_caches():
    for value in vars(analysis).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


# Per mode, a message and two keys whose units M = m^ra differ.
TABLE_CASES = pytest.mark.parametrize("mode,message,keys", [
    ("byte", ATTACK_MESSAGE,
     (CipherParams(256, 5, 3, 4, 2, 3), CipherParams(256, 7, 10, 11, 3, 5))),
    ("letters", b"MEETMEATTHEUSUALPLACEATNOON",
     (CipherParams(26, 3, 2, 4, 2, 3), CipherParams(26, 7, 5, 3, 1, 2))),
], ids=["byte", "letters"])


@TABLE_CASES
@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_brute_force_tables_match_join_oracle_as_caps_and_units_change(mode, message, keys, cold):
    # The agreement tables are cached per (mode, caps, M): small caps, then
    # larger ones, then the small ones again must each read their own.
    assert len({pow(key.m, key.ra, key.n) for key in keys}) == 2
    for key in keys:
        ct = encrypt(message, key)
        for cap_b, cap_k in ((3, 5), (16, 16), (3, 5)):
            for scorer in (english_score, printable_ratio):
                if cold:
                    clear_analysis_caches()
                args = (ct, scorer, mode, cap_b, cap_k)
                assert attack_outcome(brute_force, *args) == attack_outcome(join_oracle, *args)


def test_agreement_table_caches_are_bounded_and_hold_the_default_caps():
    # The crack workload's steady state, both modes at their default caps
    # (byte 16, letters 25), fits without eviction: the caesar keys of each
    # mode and every unit M's roots with their rows.
    for cached in (_caesar_keys, _affine_rows):
        assert cached.cache_info().maxsize is not None
    clear_analysis_caches()
    units = roots = 0
    for n, cap in ((256, 16), (26, 25)):
        _caesar_keys(n, cap)
        for M in range(1, n):
            if math.gcd(M, n) == 1:
                units += 1
                roots += len(_affine_rows(n, cap, M)[1])
    assert (units, roots) == (128 + 12, 2348)
    assert _caesar_keys.cache_info().currsize == 2
    assert _affine_rows.cache_info().currsize == units
    assert _affine_rows.cache_info().misses == units


def walk_roots(n, cap_b):
    """Reference for _affine_rows's roots: M -> every (m, ra) with ra <=
    cap_b and m^ra = M, found by walking each unit's powers, in (m, ra)
    order."""
    roots = {}
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        power = 1
        for ra in range(1, cap_b + 1):
            power = power * m % n
            roots.setdefault(power, []).append((m, ra))
    return roots


@pytest.mark.parametrize("n,caps", [
    (256, (1, 2, 3, 5, 16, 63, 64, 65, 255)),
    (26, range(1, 26)),
], ids=["byte", "letters"])
def test_roots_match_the_walk(n, caps):
    # Each root's row is b*T, b = ra..cap_b, T = 1 + m + ... + m^(ra-1),
    # and reached is the sorted union of the rows.
    codes = LANE_CODES[n]
    units = [m for m in range(1, n) if math.gcd(m, n) == 1]
    for cap_b in caps:
        walked = walk_roots(n, cap_b)
        for M in units:
            reached, roots = _affine_rows(n, cap_b, M)
            assert [(m, ra) for m, ra, _ in roots] == walked.get(M, []), (M, cap_b)
            union = set()
            for m, ra, row in roots:
                T = sum(m ** i for i in range(ra)) % n
                assert row == bytes(codes[b * T % n] for b in range(ra, cap_b + 1)), (m, ra)
                union.update(row)
            assert reached == bytes(sorted(union)), (M, cap_b)


def smallest_keys(n, cap_b, cap_k):
    """Reference for _smallest_key: (M, C, s) -> the smallest (m, b, k, ra,
    rc) of the grid with m^ra = M, b*T - M*s = C and k*rc = s, every grid
    key decomposed through iterated_affine."""
    table = {}
    for m in range(1, n):
        if math.gcd(m, n) != 1:
            continue
        for b in range(1, cap_b + 1):
            for ra in range(1, b + 1):
                M, B = iterated_affine(m, b, ra, n)
                for k in range(1, cap_k + 1):
                    for rc in range(1, k + 1):
                        s = k * rc % n
                        key = (M, (B - M * s) % n, s)
                        table[key] = min(table.get(key, (m, b, k, ra, rc)), (m, b, k, ra, rc))
    return table


@pytest.mark.parametrize("n,cap_b,cap_k", [
    (256, 3, 5), (256, 5, 3), (256, 4, 4), (26, 3, 5), (26, 5, 3), (26, 4, 4), (26, 25, 2),
])
def test_smallest_key_matches_the_grid(n, cap_b, cap_k):
    table = smallest_keys(n, cap_b, cap_k)
    for (M, C, s), key in table.items():
        assert _smallest_key(n, cap_b, cap_k, [(M, C)], s) == key, (M, C, s)
    # A pair of fits (units M differ) gives the smaller of their keys at a
    # shift both reach: each triple with the next one of another M there.
    by_shift = {}
    for M, C, s in sorted(table):
        by_shift.setdefault(s, []).append((M, C))
    pairs = 0
    for s, fits in by_shift.items():
        for (M1, C1), (M2, C2) in zip(fits, fits[1:]):
            if M1 != M2:
                pairs += 1
                assert (_smallest_key(n, cap_b, cap_k, [(M1, C1), (M2, C2)], s)
                        == min(table[M1, C1, s], table[M2, C2, s])), (M1, C1, M2, C2, s)
    assert pairs


@st.composite
def lane_pairs(draw):
    """(lane_a, lane_b, n): non-empty random, English-like, constant and
    two-symbol lanes of lane codes, lane_a mostly an affine image of lane_b
    under a unit, else that image with one symbol changed, or random."""
    n = draw(st.sampled_from([26, 256]))
    codes = LANE_CODES[n]
    symbols = st.integers(0, n - 1)
    words = st.text(alphabet=string.ascii_lowercase + " ", min_size=1, max_size=60)
    if n == 26:
        words = words.filter(str.strip).map(lambda text: text.replace(" ", "").upper())
    lane_b = draw(st.one_of(
        st.lists(symbols, min_size=1, max_size=60).map(lambda s: bytes(codes[v] for v in s)),
        words.map(str.encode),
        st.builds(lambda v, length: codes[v:v + 1] * length, symbols, st.integers(1, 60)),
        st.builds(lambda u, v, picks: bytes(codes[v if p else u] for p in picks),
                  symbols, symbols, st.lists(st.booleans(), min_size=1, max_size=60)),
    ))
    M = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
    lane_a = lane_b.translate(affine_table(n, M, draw(symbols)))
    how = draw(st.sampled_from(["image", "image", "changed", "random"]))
    if how == "changed":
        i, v = draw(st.integers(0, len(lane_a) - 1)), draw(symbols)
        lane_a = lane_a[:i] + codes[v:v + 1] + lane_a[i + 1:]
    elif how == "random":
        lane_a = bytes(codes[v] for v in draw(st.lists(symbols, min_size=len(lane_b),
                                                        max_size=len(lane_b))))
    return lane_a, lane_b, n


@settings(max_examples=300, deadline=None)
@given(lane_pairs())
def test_lane_fits_finds_every_unit_that_maps_lane_b_onto_lane_a(pair):
    lane_a, lane_b, n = pair
    codes = LANE_CODES[n]
    a0, b0 = lane_a[0] - codes[0], lane_b[0] - codes[0]
    # Any fit maps lane_b's first symbol onto lane_a's, which fixes C.
    expected = [(M, (a0 - M * b0) % n) for M in range(1, n) if math.gcd(M, n) == 1]
    expected = [(M, C) for M, C in expected if lane_b.translate(affine_table(n, M, C)) == lane_a]
    assert _lane_fits(lane_a, lane_b, n) == expected


def lane_oracle(ciphertext, scorer=english_score, *, mode="byte", min_score=None):
    """Reference for caesar_lane_attack: every shift of lane_b scored in
    full, the first maximum kept."""
    n = 256 if mode == "byte" else 26
    _, codes_b = deinterleave(ciphertext.packed)
    check_lane_codes(codes_b, n)
    best = None  # (score, shift, plaintext bytes)
    for shift in range(n):
        text = codes_b.translate(affine_table(n, 1, -shift % n))
        score = scorer(text)
        if best is None or score > best[0]:
            best = (score, shift, text)
    if min_score is not None and best[0] < min_score:
        raise NotFound(f"no shift scored above {min_score}")
    return AttackResult("caesar-lane-shortcut", None, best[2], best[0], n, 0.0,
                        effective_shift=best[1])


def lane_outcome(attack, ct, mode, min_score, scorer=english_score):
    """What caesar_lane_attack and lane_oracle must agree on, or the error
    (such as NotFound) and its text."""
    try:
        result = attack(ct, scorer, mode=mode, min_score=min_score)
    except CipherError as err:
        return type(err), str(err)
    return (result.recovered_key, result.plaintext, repr(result.score),
            result.candidates_tried, result.effective_shift)


@pytest.mark.parametrize("mode,ct,cap_b,cap_k", join_cases(200, seed=9))
def test_caesar_lane_attack_matches_lane_oracle(mode, ct, cap_b, cap_k):
    for min_score in (None, 0.5, 0.9):
        outcome = lane_outcome(caesar_lane_attack, ct, mode, min_score)
        assert outcome == lane_outcome(lane_oracle, ct, mode, min_score)


def test_caesar_lane_attack_scores_every_shift_with_a_wrapped_scorer():
    ct = encrypt(ENGLISH, CipherParams(n=256, m=9, b=13, k=5, ra=1, rc=1))
    calls = []

    def counting(text):
        calls.append(text)
        return english_score(text)

    caesar_lane_attack(ct, counting)
    assert len(set(calls)) == len(calls) == 256


@st.composite
def attack_inputs(draw):
    """(mode, ciphertext, cap_b, cap_k, min_score): random, English-like,
    constant and empty messages.  Lowercase words without spaces and
    constant bytes have tied shifts in byte mode (a..z and A..Z count
    alike)."""
    mode = draw(st.sampled_from(["byte", "letters"]))
    n = 256 if mode == "byte" else 26
    codes = list(LANE_CODES[n])
    words = st.text(alphabet=string.ascii_lowercase + " ", max_size=40)
    if mode == "letters":
        words = words.map(lambda text: text.replace(" ", "").upper())
    message = draw(st.one_of(
        st.lists(st.sampled_from(codes), max_size=40).map(bytes),
        words.map(str.encode),
        words.map(lambda text: text.replace(" ", "").encode()),
        st.builds(lambda code, length: bytes([code]) * length,
                  st.sampled_from(codes), st.integers(0, 40)),
    ))
    m = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
    b, k = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    key = CipherParams(n, m, b, k, draw(st.integers(1, b)), draw(st.integers(1, k)))
    cap = 8 if mode == "byte" else 25
    caps = draw(st.tuples(st.integers(1, cap), st.integers(1, cap)))
    min_score = draw(st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.9]), st.floats(0, 1)))
    return (mode, encrypt(message, key), *caps, min_score)


@settings(max_examples=300, deadline=None)
@given(attack_inputs())
def test_attacks_score_from_counts_as_a_wrapped_scorer_scores_texts(inputs):
    mode, ct, cap_b, cap_k, min_score = inputs

    def wrapped(data):
        return english_score(data)

    args = (mode, cap_b, cap_k, min_score)
    assert (attack_outcome(brute_force, ct, english_score, *args)
            == attack_outcome(brute_force, ct, wrapped, *args))
    assert (lane_outcome(caesar_lane_attack, ct, mode, min_score)
            == lane_outcome(caesar_lane_attack, ct, mode, min_score, wrapped))


def stored_outcome(attack, ct, scorer, mode, caps, min_score):
    """Key, plaintext, repr of the score, candidates_tried and shift of an
    attack, or the error (such as NotFound) and its text."""
    try:
        result = attack(ct, scorer, mode=mode, min_score=min_score, **caps)
    except CipherError as err:
        return type(err), str(err)
    return (result.recovered_key, result.plaintext, repr(result.score),
            result.candidates_tried, result.effective_shift)


def stored_attacks(cap_b, cap_k):
    """Every attack of the stored-analysis differential: both attacks in
    both modes, brute_force at the case's caps (cut to the mode's) and at
    (2, 3), with english_score, printable_ratio and a wrapped scorer, and
    min_score None and 0.5.  english_score, whose searches from counts
    start from the last one's answer at an equal min_score, also gets inf,
    nan, -1, 0 and 1.5."""

    def wrapped(data):
        return english_score(data)

    attacks = []
    for mode, n in (("byte", 256), ("letters", 26)):
        grids = [(brute_force, {"cap_b": min(cap_b, n - 1), "cap_k": min(cap_k, n - 1)}),
                 (brute_force, {"cap_b": 2, "cap_k": 3}), (caesar_lane_attack, {})]
        for attack, caps in grids:
            for scorer in (english_score, printable_ratio, wrapped):
                min_scores = (None, 0.5)
                if scorer is english_score:
                    min_scores += (math.inf, math.nan, -1, 0, 1.5)
                for min_score in min_scores:
                    attacks.append((attack, scorer, mode, caps, min_score))
    return attacks


# The inputs of the hash-join differential.  One ciphertext object takes
# every attack in a seeded order, so each one runs after the other attack,
# the same attack, other scorers, other caps and the other mode; each must
# give what it gives on a fresh copy.
@pytest.mark.parametrize("mode,ct,cap_b,cap_k", join_cases(200, seed=9))
def test_attacks_on_an_attacked_ciphertext_match_a_fresh_copy(mode, ct, cap_b, cap_k):
    attacks = stored_attacks(cap_b, cap_k)
    random.Random(f"{ct.packed.hex()}:{cap_b}:{cap_k}").shuffle(attacks)
    shared = CipherText.from_packed(ct.packed)
    for attack in attacks:
        fresh = CipherText.from_packed(ct.packed)
        assert stored_outcome(attack[0], shared, *attack[1:]) == stored_outcome(
            attack[0], fresh, *attack[1:])


def coverage_bound(text):
    """The coverage bound of a shift's text, as _best_shift breaks on it."""
    size = len(text)
    count = sum(1 for byte in text if 65 <= byte <= 90 or 97 <= byte <= 122 or byte == 32)
    return count / size * size / size


@settings(max_examples=200, deadline=None)
@given(attack_inputs())
def test_attacks_at_a_min_score_on_the_pre_filter_boundary_match_a_wrapped_scorer(inputs):
    # min_score at each attack's own best score and at the coverage bound of
    # its shift, and one float step either side of each.  The pre-filter
    # must keep every shift whose bound reaches min_score, on a fresh
    # ciphertext and after the other attack, which leaves its answer at
    # that min_score for a search over all n shifts to start from.
    mode, ct, cap_b, cap_k, _ = inputs

    def wrapped(data):
        return english_score(data)

    def fresh():
        return CipherText.from_packed(ct.packed)

    grid, lane = (brute_force, {"cap_b": cap_b, "cap_k": cap_k}), (caesar_lane_attack, {})
    for (attack, caps), (other, other_caps) in ((grid, lane), (lane, grid)):
        try:
            result = attack(fresh(), mode=mode, **caps)
        except CipherError:
            continue
        edges = [result.score]
        if result.plaintext:
            edges.append(coverage_bound(result.plaintext))
        for edge in edges:
            for min_score in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
                expected = stored_outcome(attack, fresh(), wrapped, mode, caps, min_score)
                assert stored_outcome(attack, fresh(), english_score, mode, caps,
                                      min_score) == expected
                shared = fresh()
                stored_outcome(other, shared, english_score, mode, other_caps, min_score)
                assert stored_outcome(attack, shared, english_score, mode, caps,
                                      min_score) == expected


LETTERS_MESSAGE = b"MEETMEATTHEUSUALPLACEATNOON"


@pytest.mark.parametrize("first", [brute_force, caesar_lane_attack])
def test_stored_lanes_are_checked_against_each_attacks_mode(first):
    # A byte ciphertext's lanes hold non-letters: attacked in byte mode,
    # then in letters mode, it fails as a fresh copy does.
    byte_ct = encrypt(ATTACK_MESSAGE, CipherParams(256, 147, 201, 177, 98, 153))
    first(byte_ct, mode="byte")
    for second in (brute_force, caesar_lane_attack):
        with pytest.raises(NonLetterOutput) as warm:
            second(byte_ct, mode="letters")
        with pytest.raises(NonLetterOutput) as fresh:
            second(CipherText.from_packed(byte_ct.packed), mode="letters")
        assert str(warm.value) == str(fresh.value)
    # A letters ciphertext attacked in letters mode, then in byte mode, and
    # then in letters mode again, gives each mode's fresh result.
    letters_ct = encrypt(LETTERS_MESSAGE, CipherParams(26, 7, 20, 19, 11, 16))
    first(letters_ct, mode="letters")
    for mode in ("byte", "letters"):
        for second in (brute_force, caesar_lane_attack):
            fresh_ct = CipherText.from_packed(letters_ct.packed)
            args = (english_score, mode, {}, None)
            assert (stored_outcome(second, letters_ct, *args)
                    == stored_outcome(second, fresh_ct, *args))


def test_stored_analysis_is_invisible_and_read_back(monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(analysis, name, wrapper)

    counted("deinterleave", deinterleave)
    counted("_shift_counts", _shift_counts)
    ct = encrypt(ATTACK_MESSAGE, CipherParams(256, 77, 9, 13, 4, 7))
    copy = CipherText.from_packed(ct.packed)
    grid = brute_force(ct)
    lane = caesar_lane_attack(ct)
    assert grid.plaintext == lane.plaintext == ATTACK_MESSAGE
    # The second attack reads the lanes and counts that the first kept.
    assert calls == {"deinterleave": 1, "_shift_counts": 1}
    assert ct == copy and hash(ct) == hash(copy) and repr(ct) == repr(copy)
    assert {copy: "found"}[ct] == "found"


def test_threads_attacking_one_ciphertext_get_the_fresh_results():
    # Threads that attack one ciphertext at once may each build its lanes
    # and counts; whichever they keep, every attack gives the fresh result.
    key = CipherParams(256, 77, 9, 13, 4, 7)
    packed = encrypt(ATTACK_MESSAGE, key).packed
    attacks = [(attack, mode) for attack in (brute_force, caesar_lane_attack)
               for mode in ("byte", "letters")]
    fresh = CipherText.from_packed(packed)
    expected = [stored_outcome(attack, fresh, english_score, mode, {}, None)
                for attack, mode in attacks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = CipherText.from_packed(packed)
            results = []

            def attack_all():
                results.append([stored_outcome(attack, shared, english_score, mode, {}, None)
                                for attack, mode in attacks])

            threads = [threading.Thread(target=attack_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


def test_pickles_and_copies_of_an_attacked_ciphertext_carry_only_packed():
    ct = encrypt(ATTACK_MESSAGE, CipherParams(256, 77, 9, 13, 4, 7))
    fresh = CipherText.from_packed(ct.packed)
    brute_force(ct)
    caesar_lane_attack(ct)
    assert "_lanes" in vars(ct)
    assert pickle.dumps(ct) == pickle.dumps(fresh)
    for duplicate in (copy.copy(ct), copy.deepcopy(ct), pickle.loads(pickle.dumps(ct))):
        assert type(duplicate) is CipherText and duplicate == ct
        assert vars(duplicate) == {"packed": ct.packed}
        for attack in (brute_force, caesar_lane_attack):
            for mode in ("byte", "letters"):
                args = (english_score, mode, {}, None)
                assert (stored_outcome(attack, duplicate, *args)
                        == stored_outcome(attack, CipherText.from_packed(ct.packed), *args))


# A byte-mode sentence of the benchmark crack pools whose best shift, 40,
# turns its spaces into NULs and its letters to uppercase; no grid key at
# the default caps agrees at 40, so brute_force finds the plaintext at 8.
DECOY_MESSAGE = b"Just just when back against winter but what year used out on."
DECOY_KEY = CipherParams(256, 89, 6, 4, 1, 2)


def test_grid_attack_after_a_lane_attack_whose_best_shift_does_not_agree():
    ct = encrypt(DECOY_MESSAGE, DECOY_KEY)
    lane = caesar_lane_attack(ct)
    assert lane.effective_shift == 40 and lane.plaintext != DECOY_MESSAGE
    grid = brute_force(ct)
    assert (grid.recovered_key, grid.plaintext) == (DECOY_KEY, DECOY_MESSAGE)
    for min_score in (None, 0.45, 0.47):
        shared = CipherText.from_packed(ct.packed)
        caesar_lane_attack(shared, min_score=min_score)
        for attack in (brute_force, caesar_lane_attack):
            args = (english_score, "byte", {}, min_score)
            assert (stored_outcome(attack, shared, *args)
                    == stored_outcome(attack, CipherText.from_packed(ct.packed), *args))


def agreeing_texts(ct, mode, cap):
    """The texts of the shifts whose lanes agree at caps (cap, cap): the
    texts brute_force hands a scorer that is not the built-in one."""
    texts = set()
    brute_force(CipherText.from_packed(ct.packed), lambda text: texts.add(text) or 0.0,
                mode=mode, cap_b=cap, cap_k=cap)
    return texts


def test_lane_attack_after_the_grid_attack_scores_only_shifts_not_searched(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _score_counts(*args)

    monkeypatch.setattr(analysis, "_score_counts", counted)
    # The lane attack after the grid attack scores only shifts that the
    # grid attack did not search: none when every letters shift agrees at
    # caps 25, at most one when 25 do.
    for key, agreeing in ((CipherParams(26, 5, 3, 4, 2, 3), 26),
                          (CipherParams(26, 7, 20, 19, 11, 16), 25)):
        letters_ct = encrypt(LETTERS_MESSAGE, key)
        assert len(agreeing_texts(letters_ct, "letters", 25)) == agreeing
        grid = brute_force(letters_ct, mode="letters", cap_b=25, cap_k=25)
        del calls[:]
        lane = caesar_lane_attack(letters_ct, mode="letters")
        assert len(calls) <= 26 - agreeing
        assert lane.plaintext == grid.plaintext == LETTERS_MESSAGE
    # In byte mode only some shifts agree, and of the others only those
    # whose coverage bound reaches the grid attack's best are scored.
    byte_ct = encrypt(ATTACK_MESSAGE, CipherParams(256, 77, 9, 13, 4, 7))
    del calls[:]
    caesar_lane_attack(CipherText.from_packed(byte_ct.packed))
    on_a_fresh_copy = len(calls)
    brute_force(byte_ct)
    del calls[:]
    lane = caesar_lane_attack(byte_ct)
    assert len(calls) < on_a_fresh_copy
    assert lane.plaintext == ATTACK_MESSAGE
    # Repeating the search covers no shift not searched before.
    del calls[:]
    assert caesar_lane_attack(byte_ct).plaintext == ATTACK_MESSAGE and calls == []


class TestCaesarLaneAttack:
    def test_recovers_plaintext_and_shift(self):
        key = CipherParams(n=256, m=147, b=201, k=177, ra=98, rc=153)
        ct = encrypt(ENGLISH, key)
        result = caesar_lane_attack(ct)
        assert result.plaintext == ENGLISH
        assert result.candidates_tried <= 256
        assert result.effective_shift == (key.rc * key.k) % 256
        assert result.recovered_key is None

    def test_iteration_counts_are_irrelevant(self):
        # same effective shift, wildly different iteration counts
        for ra, rc, k in ((1, 1, 30), (5, 2, 15), (9, 5, 6)):
            key = CipherParams(n=256, m=9, b=13, k=k, ra=ra, rc=rc)
            result = caesar_lane_attack(encrypt(ENGLISH, key))
            assert result.plaintext == ENGLISH
            assert result.effective_shift == 30

    def test_letters_mode_trial_bound(self):
        key = CipherParams(n=26, m=7, b=20, k=19, ra=11, rc=16)
        message = (
            b"ITWASABRIGHTCOLDDAYINAPRILANDTHECLOCKSWERESTRIKINGTHIRTEEN"
            b"WINSTONSMITHHISCHINNUZZLEDINTOHISBREAST"
        )
        result = caesar_lane_attack(encrypt(message, key), mode="letters")
        assert result.candidates_tried == 26
        assert result.plaintext == message

    def test_not_found_threshold(self):
        key = CipherParams(n=256, m=9, b=13, k=5, ra=1, rc=1)
        with pytest.raises(NotFound):
            caesar_lane_attack(encrypt(ENGLISH, key), min_score=math.inf)


class TestAvalanche:
    KEY = CipherParams(n=256, m=5, b=9, k=11, ra=4, rc=6)

    def test_report_shape(self):
        reports = avalanche(b"GRAIN", self.KEY)
        assert len(reports) == 40
        assert [r.input_bit_flipped for r in reports] == list(range(40))

    def test_per_flip_bounds(self):
        # each flip rewrites one symbol in each lane: 1..16 of 80 bits
        for report in avalanche(b"GRAIN", self.KEY):
            changed = report.ciphertext_hamming_fraction * 80
            assert 1 <= round(changed) <= 16

    def test_locality(self):
        message = b"GRAIN"
        base = encrypt(message, self.KEY).bits
        perm = build_permutation(len(message))
        for bit in range(8 * len(message)):
            mutated = bytearray(message)
            mutated[bit // 8] ^= 1 << (7 - bit % 8)
            other = encrypt(bytes(mutated), self.KEY).bits
            diff = {i for i in range(80) if base[i] != other[i]}
            assert diff <= perm.symbol_positions(bit // 8)

    def test_mean_bound(self):
        reports = avalanche(b"GRAIN", self.KEY)
        assert 0 < mean_fraction(reports) <= 0.2

    def test_empty_plaintext(self):
        assert avalanche(b"", self.KEY) == []
        assert mean_fraction([]) == 0.0

    def test_byte_mode_fractions_count_changed_bits(self):
        message = b"GR\x00\xff"
        base = encrypt(message, self.KEY).bits
        for report in avalanche(message, self.KEY):
            mutated = bytearray(message)
            mutated[report.input_bit_flipped // 8] ^= 1 << (7 - report.input_bit_flipped % 8)
            other = encrypt(bytes(mutated), self.KEY).bits
            changed = sum(x != y for x, y in zip(base, other))
            assert report.ciphertext_hamming_fraction == changed / len(base)


def avalanche_oracle(plaintext, key):
    """avalanche by re-encryption: flip each bit, encrypt the whole message
    again, and count the ciphertext bits that changed."""
    base = int.from_bytes(encrypt(plaintext, key).packed, "big")
    data = bytes(plaintext)
    if key.mode == "letters":
        data = data.upper()
    codes = LANE_CODES[key.n]
    reports = []
    for bit in range(8 * len(data)):
        mutated = bytearray(data)
        i = bit // 8
        symbol = (mutated[i] - codes[0]) ^ 1 << (7 - bit % 8)
        mutated[i] = codes[symbol % key.n]
        other = int.from_bytes(encrypt(bytes(mutated), key).packed, "big")
        reports.append(DiffusionReport(bit, (base ^ other).bit_count() / (16 * len(data))))
    return reports


@st.composite
def avalanche_inputs(draw):
    """(plaintext, key): random bytes, or letters of either case, under a
    random valid key of the mode."""
    n = draw(st.sampled_from([256, 26]))
    if n == 256:
        plaintext = draw(st.binary(max_size=64))
    else:
        plaintext = draw(st.text(string.ascii_letters, max_size=64)).encode()
    m = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]))
    b, k = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
    return plaintext, CipherParams(n, m, b, k, draw(st.integers(1, b)), draw(st.integers(1, k)))


@settings(max_examples=200, deadline=None)
@given(avalanche_inputs())
def test_avalanche_matches_reencryption(inputs):
    plaintext, key = inputs
    assert avalanche(plaintext, key) == avalanche_oracle(plaintext, key)


class TestAvalancheLetters:
    KEY = CipherParams(n=26, m=7, b=9, k=11, ra=4, rc=6)

    def test_flips_the_symbol_index_mod_26(self):
        message = b"GRAIN"
        reports = avalanche(message, self.KEY)
        assert [r.input_bit_flipped for r in reports] == list(range(40))
        base = encrypt(message, self.KEY).bits
        perm = build_permutation(len(message))
        for report in reports:
            i, bit = divmod(report.input_bit_flipped, 8)
            symbol = ((message[i] - 65) ^ 1 << (7 - bit)) % 26
            mutated = message[:i] + bytes([65 + symbol]) + message[i + 1:]
            other = encrypt(mutated, self.KEY).bits
            diff = {j for j in range(80) if base[j] != other[j]}
            # the flip always moves the letter, so both lanes change
            assert 2 <= len(diff) <= 16
            assert diff <= perm.symbol_positions(i)
            assert report.ciphertext_hamming_fraction == len(diff) / 80

    def test_lowercase_folds(self):
        assert avalanche(b"grain", self.KEY) == avalanche(b"GRAIN", self.KEY)

    def test_non_letter_input(self):
        with pytest.raises(NonLetterInput):
            avalanche(b"GR4IN", self.KEY)


class TestReports:
    def test_attack_csv(self):
        key = CipherParams(n=256, m=5, b=4, k=3, ra=2, rc=2)
        ct = encrypt(ENGLISH, key)
        text = attack_csv(brute_force(ct, cap_b=4, cap_k=4))
        header, row = text.strip().splitlines()
        assert header.startswith("method,m,b,k,ra,rc")
        assert row.startswith("brute-force,5,4,3,2,2,")

    def test_attack_csv_lane_method(self):
        key = CipherParams(n=256, m=5, b=4, k=3, ra=2, rc=2)
        text = attack_csv(caesar_lane_attack(encrypt(ENGLISH, key)))
        row = text.strip().splitlines()[1]
        assert row.startswith("caesar-lane-shortcut,,,,,")
        assert row.endswith(",6")  # effective shift 2*3

    def test_avalanche_csv(self):
        reports = avalanche(b"GRAIN", CipherParams(n=256, m=5, b=9, k=11, ra=4, rc=6))
        text = avalanche_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == "bit_index,hamming_fraction"
        assert len(lines) == 42
        assert lines[-1].startswith("# mean_fraction=")

    def test_frequency_csv(self):
        text = frequency_csv(frequency_profile(b"AB"))
        lines = text.strip().splitlines()
        assert lines[0] == "value,fraction"
        assert lines[66] == "65,0.500000"


def test_degenerate_key_flag():
    assert is_degenerate_key(CipherParams(n=256, m=1, b=1, k=1, ra=1, rc=1))
    assert not is_degenerate_key(CipherParams(n=256, m=3, b=1, k=1, ra=1, rc=1))
    # m = -1 applied twice is the identity: the affine lane is the plaintext.
    key = CipherParams(n=256, m=255, b=5, k=7, ra=2, rc=3)
    assert is_degenerate_key(key)
    assert deinterleave(encrypt(b"attack at dawn", key).packed)[0] == b"attack at dawn"


def test_degenerate_key_iff_affine_lane_is_a_shift():
    shifts = {affine_table(26, 1, s) for s in range(26)}
    for m in range(1, 26):
        if math.gcd(m, 26) != 1:
            continue
        for b in range(1, 26):
            for ra in range(1, b + 1):
                key = CipherParams(n=26, m=m, b=b, k=1, ra=ra, rc=1)
                assert is_degenerate_key(key) == (lane_table(key, LANE_AFFINE) in shifts), key


@pytest.mark.parametrize("n", [256, 26])
def test_keyspace_size_counts_the_units(n):
    units = sum(1 for m in range(1, n) if math.gcd(m, n) == 1)
    for cap_b, cap_k in ((1, 1), (2, 5), (16, 16), (n - 1, 3), (n - 1, n - 1)):
        grid = units * (cap_b * (cap_b + 1) // 2) * (cap_k * (cap_k + 1) // 2)
        assert keyspace_size(n, cap_b, cap_k) == grid


def test_keyspace_monotone_in_caps():
    sizes = [keyspace_size(256, cap, cap) for cap in range(1, 9)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
