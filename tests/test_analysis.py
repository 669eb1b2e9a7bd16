"""Unit tests for the cryptanalysis and diffusion suite."""

import math
import random
import string
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt.analysis import (
    ENGLISH_LETTER_FREQ,
    AttackResult,
    attack_csv,
    avalanche,
    avalanche_csv,
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
    CipherParams,
    affine_table,
    check_lane_codes,
    lane_table,
    mod_inverse,
)
from paddycrypt.errors import CipherError, IntegrityMismatch, NonLetterInput, NotFound
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


english_like = st.text(
    alphabet=string.ascii_letters + " .,'\n", max_size=200
).map(str.encode)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.binary(max_size=200), english_like))
def test_scorers_match_reference_bit_for_bit(data):
    assert chi_squared_english(data) == reference_chi_squared_english(data)
    assert english_score(data) == reference_english_score(data)


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
    ])
    def test_rejects_out_of_range_values(self, data, n, value):
        with pytest.raises(CipherError, match=value):
            frequency_profile(data, n=n)

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


def join_cases(count, seed):
    """Seeded brute_force inputs, (mode, ciphertext, cap_b, cap_k): both
    modes, unequal caps and caps below the key's b and k, keys with m = 1
    and m = n - 1, empty, one-symbol and constant messages, messages whose
    lane_b differences are all even (several units M fit the lanes), and
    ciphertexts with one bit flipped."""
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
        b, k = rng.randint(1, 12), rng.randint(1, 12)
        key = CipherParams(n, m, b, k, rng.randint(1, b), rng.randint(1, k))
        ct = encrypt(message, key)
        if ct.packed and rng.random() < 0.25:
            packed = bytearray(ct.packed)
            bit = rng.randrange(8 * len(packed))
            packed[bit // 8] ^= 0x80 >> bit % 8
            ct = CipherText.from_packed(bytes(packed))
        cap_b = rng.randint(1, 8 if mode == "byte" else 25)
        cap_k = rng.randint(1, 8 if mode == "byte" else 25)
        cases.append(pytest.param(mode, ct, cap_b, cap_k, id=f"{i}-{mode}-{len(message)}-{cap_b}-{cap_k}"))
    return cases


@pytest.mark.parametrize("mode,ct,cap_b,cap_k", join_cases(200, seed=9))
def test_brute_force_matches_join_oracle(mode, ct, cap_b, cap_k):
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


def test_keyspace_monotone_in_caps():
    sizes = [keyspace_size(256, cap, cap) for cap in range(1, 9)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
