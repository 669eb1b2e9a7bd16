"""Unit tests for the modular base ciphers and their iteration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt.ciphers import (
    CipherParams,
    LANE_AFFINE,
    LANE_CAESAR,
    LANE_CODES,
    affine_decrypt_symbol,
    affine_encrypt_symbol,
    affine_table,
    caesar_decrypt_symbol,
    caesar_encrypt_symbol,
    check_lane_codes,
    iterate_decrypt,
    iterate_encrypt,
    iterated_affine,
    lane_table,
    mod_inverse,
)
from paddycrypt.errors import InvalidKey, IterationBoundExceeded, NoInverse, NonLetterOutput
from paddycrypt.pipeline import decrypt, encrypt


def units(n):
    return [m for m in range(1, n) if math.gcd(m, n) == 1]


def scan_inverse(m, n):
    """Brute-force oracle: scan x = 0..n-1 for m*x % n == 1."""
    for x in range(n):
        if (m * x) % n == 1:
            return x
    return None


def naive_iterate(stream, params, lane, decrypt=False):
    """Oracle: literally re-apply the single-step map r times per symbol."""
    if lane == LANE_AFFINE:
        rounds = params.ra
        if decrypt:
            step = lambda s: affine_decrypt_symbol(s, params.m, params.b, params.n)
        else:
            step = lambda s: affine_encrypt_symbol(s, params.m, params.b, params.n)
    else:
        rounds = params.rc
        if decrypt:
            step = lambda s: caesar_decrypt_symbol(s, params.k, params.n)
        else:
            step = lambda s: caesar_encrypt_symbol(s, params.k, params.n)
    out = []
    for s in stream:
        for _ in range(rounds):
            s = step(s)
        out.append(s)
    return out


class TestModInverse:
    def test_identity_element(self):
        assert mod_inverse(1, 26) == 1

    def test_known_value(self):
        # oracle: brute-force scan
        assert scan_inverse(5, 26) == 21
        assert mod_inverse(5, 26) == 21

    def test_no_inverse(self):
        with pytest.raises(NoInverse):
            mod_inverse(2, 26)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 1)

    def test_exhaustive_all_moduli(self):
        # every unit of every n <= 256 inverts correctly
        for n in range(2, 257):
            for m in units(n):
                assert (mod_inverse(m, n) * m) % n == 1

    def test_matches_scan_oracle(self):
        for n in (26, 256):
            for m in units(n):
                assert mod_inverse(m, n) == scan_inverse(m, n)


class TestSymbolOps:
    @pytest.mark.parametrize(
        "p,m,b,n,expected",
        [
            (0, 5, 8, 26, 8),      # 5*0+8
            (65, 3, 7, 256, 202),  # 3*65+7
        ],
    )
    def test_affine_encrypt_values(self, p, m, b, n, expected):
        assert affine_encrypt_symbol(p, m, b, n) == expected

    def test_affine_identity_map(self):
        # validation-relaxed: raw ints bypass key rules on purpose
        for p in range(256):
            assert affine_encrypt_symbol(p, 1, 0, 256) == p

    @pytest.mark.parametrize(
        "c,m,b,n,expected",
        [
            (8, 5, 8, 26, 0),
            (202, 3, 7, 256, 65),
        ],
    )
    def test_affine_decrypt_values(self, c, m, b, n, expected):
        assert affine_decrypt_symbol(c, m, b, n) == expected

    @pytest.mark.parametrize(
        "p,k,n,expected",
        [
            (0, 3, 26, 3),
            (65, 3, 256, 68),
            (10, 0, 256, 10),  # zero shift, harness-only
        ],
    )
    def test_caesar_encrypt_values(self, p, k, n, expected):
        assert caesar_encrypt_symbol(p, k, n) == expected

    @pytest.mark.parametrize(
        "c,k,n,expected",
        [
            (3, 3, 26, 0),
            (68, 3, 256, 65),
        ],
    )
    def test_caesar_decrypt_values(self, c, k, n, expected):
        assert caesar_decrypt_symbol(c, k, n) == expected

    def test_affine_round_trip_exhaustive_26(self):
        for m in units(26):
            for b in range(26):
                for p in range(26):
                    c = affine_encrypt_symbol(p, m, b, 26)
                    assert affine_decrypt_symbol(c, m, b, 26) == p

    def test_affine_round_trip_256(self):
        # all multipliers, sampled shifts, all symbols
        for m in units(256):
            for b in (1, 2, 7, 128, 255):
                for p in range(256):
                    c = affine_encrypt_symbol(p, m, b, 256)
                    assert affine_decrypt_symbol(c, m, b, 256) == p

    def test_caesar_round_trip_exhaustive(self):
        for n in (26, 256):
            for k in range(n):
                for c in range(n):
                    assert caesar_encrypt_symbol(caesar_decrypt_symbol(c, k, n), k, n) == c


class TestAffineTable:
    @staticmethod
    def check(n, m, b):
        codes = LANE_CODES[n]
        table = affine_table(n, m, b)
        expected = bytearray(range(256))
        for s in range(n):
            expected[codes[s]] = codes[affine_encrypt_symbol(s, m, b, n)]
        assert table == expected, (n, m, b)

    def test_exhaustive_26(self):
        for m in range(1, 26):
            for b in range(26):
                self.check(26, m, b)

    def test_units_and_shifts_256(self):
        for m in units(256):
            for b in (0, 1, 255):
                self.check(256, m, b)
        for m in (1, 3, 255):
            for b in range(256):
                self.check(256, m, b)


class TestCipherParams:
    def test_valid_key(self):
        key = CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4)
        assert key.mode == "byte"

    def test_letters_mode(self):
        assert CipherParams(n=26, m=3, b=7, k=5, ra=2, rc=4).mode == "letters"

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(n=100, m=3, b=7, k=5, ra=1, rc=1), "n"),
            (dict(n=256, m=0, b=7, k=5, ra=1, rc=1), "m"),
            (dict(n=256, m=256, b=7, k=5, ra=1, rc=1), "m"),
            (dict(n=256, m=4, b=7, k=5, ra=1, rc=1), "m"),
            (dict(n=26, m=13, b=7, k=5, ra=1, rc=1), "m"),
            (dict(n=256, m=3, b=0, k=5, ra=1, rc=1), "b"),
            (dict(n=256, m=3, b=256, k=5, ra=1, rc=1), "b"),
            (dict(n=256, m=3, b=7, k=0, ra=1, rc=1), "k"),
            (dict(n=256, m=3, b=7, k=5, ra=0, rc=1), "ra"),
            (dict(n=256, m=3, b=7, k=5, ra=8, rc=1), "ra"),
            (dict(n=256, m=3, b=7, k=5, ra=1, rc=6), "rc"),
        ],
    )
    def test_invalid_key_names_field(self, kwargs, field):
        with pytest.raises(InvalidKey) as err:
            CipherParams(**kwargs)
        assert field in str(err.value)

    def test_degenerate_m1_b1_accepted(self):
        CipherParams(n=256, m=1, b=1, k=1, ra=1, rc=1)

    def test_shared_shift_constructor(self):
        key = CipherParams.with_shared_shift(n=256, m=3, b=9, ra=2, rc=5)
        assert key.k == key.b == 9


class TestIterate:
    def test_affine_two_rounds_frozen(self):
        # oracle: 3*(3*0+7)+7 = 28
        key = CipherParams(n=256, m=3, b=7, k=1, ra=2, rc=1)
        assert iterate_encrypt([0], key, LANE_AFFINE) == [28]

    def test_caesar_three_rounds_frozen(self):
        # oracle: three single shifts of 5 from 10 -> 25
        key = CipherParams(n=256, m=3, b=7, k=5, ra=1, rc=3)
        assert iterate_encrypt([10], key, LANE_CAESAR) == [25]

    def test_single_round_equals_symbol_op(self):
        key = CipherParams(n=256, m=9, b=5, k=11, ra=1, rc=1)
        stream = list(range(256))
        assert iterate_encrypt(stream, key, LANE_AFFINE) == [
            affine_encrypt_symbol(s, 9, 5, 256) for s in stream
        ]
        assert iterate_encrypt(stream, key, LANE_CAESAR) == [
            caesar_encrypt_symbol(s, 11, 256) for s in stream
        ]

    @pytest.mark.parametrize("lane", [LANE_AFFINE, LANE_CAESAR])
    def test_matches_naive_oracle(self, lane):
        import random

        rng = random.Random(1234)
        for _ in range(40):
            n = rng.choice((26, 256))
            m = rng.choice(units(n))
            b = rng.randrange(1, n)
            k = rng.randrange(1, n)
            key = CipherParams(n=n, m=m, b=b, k=k,
                               ra=rng.randint(1, b), rc=rng.randint(1, k))
            stream = [rng.randrange(n) for _ in range(20)]
            assert iterate_encrypt(stream, key, lane) == naive_iterate(stream, key, lane)
            assert iterate_decrypt(stream, key, lane) == naive_iterate(
                stream, key, lane, decrypt=True
            )

    @pytest.mark.parametrize("lane", [LANE_AFFINE, LANE_CAESAR])
    def test_round_trip(self, lane):
        key = CipherParams(n=26, m=7, b=19, k=23, ra=12, rc=17)
        stream = list(range(26))
        assert iterate_decrypt(iterate_encrypt(stream, key, lane), key, lane) == stream

    def test_affine_closed_form_small_alphabet(self):
        # r applications == multiplier m^r, shift b * sum(m^i, i<r)
        for m in units(26):
            for b in range(1, 13):
                for r in range(1, b + 1):
                    key = CipherParams(n=26, m=m, b=b, k=1, ra=r, rc=1)
                    got = iterate_encrypt(list(range(26)), key, LANE_AFFINE)
                    mult = pow(m, r, 26)
                    shift = b * sum(pow(m, i, 26) for i in range(r)) % 26
                    assert got == [(mult * s + shift) % 26 for s in range(26)]

    def test_caesar_closed_form_small_alphabet(self):
        for k in range(1, 13):
            for r in range(1, k + 1):
                key = CipherParams(n=26, m=1, b=1, k=k, ra=1, rc=r)
                got = iterate_encrypt(list(range(26)), key, LANE_CAESAR)
                assert got == [(s + r * k) % 26 for s in range(26)]

    def test_rejects_out_of_range_symbol(self):
        key = CipherParams(n=26, m=3, b=5, k=5, ra=1, rc=1)
        with pytest.raises(ValueError):
            iterate_encrypt([26], key, LANE_AFFINE)

    def test_rejects_unknown_lane(self):
        key = CipherParams(n=26, m=3, b=5, k=5, ra=1, rc=1)
        with pytest.raises(ValueError):
            iterate_encrypt([0], key, "vigenere")

    def test_defensive_bound_recheck(self):
        # frozen dataclass tampered past validation must still fail, on
        # either lane and in either direction
        for lane, field, bound in ((LANE_AFFINE, "ra", 7), (LANE_CAESAR, "rc", 5)):
            key = CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=3)
            object.__setattr__(key, field, 99)
            for call in (iterate_encrypt, iterate_decrypt):
                with pytest.raises(IterationBoundExceeded,
                                   match=rf"^{field}=99 outside \[1, {bound}\]$"):
                    call([0], key, lane)

    @pytest.mark.parametrize("n,m,ra", [(256, 16, 2), (256, 2, 1), (26, 13, 1), (26, 13, 2),
                                        (256, 16, 9), (26, 13, 9)])
    def test_defensive_unit_recheck(self, n, m, ra):
        # A tampered non-unit m fails in both directions: m^ra = 0 must not
        # escape as a bare ValueError, and an m with m^ra != 0 must not
        # encrypt to output that cannot be decrypted.  With ra > b (= 7) the
        # unit check still comes first.
        key = CipherParams(n=n, m=3, b=7, k=5, ra=1, rc=3)
        ciphertext = encrypt(b"AB", key)
        object.__setattr__(key, "m", m)
        object.__setattr__(key, "ra", ra)
        for call in (
            lambda: lane_table(key, LANE_AFFINE),
            lambda: lane_table(key, LANE_AFFINE, decrypt=True),
            lambda: iterate_encrypt([0], key, LANE_AFFINE),
            lambda: iterate_decrypt([0], key, LANE_AFFINE),
            lambda: encrypt(b"AB", key),
            lambda: decrypt(ciphertext, key),
        ):
            with pytest.raises(NoInverse, match=f"^{m} has no inverse modulo {n}"):
                call()

    def test_dynamic_ciphertexts_distinct(self):
        # one (m, b) family, varying ra: all ciphertext streams differ as
        # long as the step map's order exceeds the bound (m=3, b=5, n=26)
        stream = [0, 1]
        seen = set()
        for r in range(1, 6):
            key = CipherParams(n=26, m=3, b=5, k=1, ra=r, rc=1)
            seen.add(tuple(iterate_encrypt(stream, key, LANE_AFFINE)))
        assert len(seen) == 5


class TestLaneTable:
    """lane_table against r-fold composition of the one-step affine_table."""

    @staticmethod
    def check_rounds(n, m, b, lane, keys):
        """keys(r) is the key with r rounds on `lane`, for r = 1..b."""
        codes = LANE_CODES[n]
        step = affine_table(n, m, b)
        unstep = bytes.maketrans(codes.translate(step), codes)
        enc = dec = LANE_CODES[256]
        for r in range(1, b + 1):
            enc, dec = enc.translate(step), dec.translate(unstep)
            key = keys(r)
            assert lane_table(key, lane) == enc, (key, lane)
            assert lane_table(key, lane, decrypt=True) == dec, (key, lane)

    def check_affine(self, n, m, b):
        self.check_rounds(n, m, b, LANE_AFFINE,
                          lambda r: CipherParams(n=n, m=m, b=b, k=1, ra=r, rc=1))

    def check_caesar(self, n, k):
        self.check_rounds(n, 1, k, LANE_CAESAR,
                          lambda r: CipherParams(n=n, m=1, b=1, k=k, ra=1, rc=r))

    def test_exhaustive_26(self):
        for m in units(26):
            for b in range(1, 26):
                self.check_affine(26, m, b)
        for k in range(1, 26):
            self.check_caesar(26, k)

    def test_units_256(self):
        for m in units(256):
            for b in (1, 2, 128, 255):
                self.check_affine(256, m, b)
        self.check_caesar(256, 255)


class TestIteratedAffine:
    """iterated_affine against r-fold composition of affine_table."""

    @staticmethod
    def check(n, m, b, rounds):
        codes = LANE_CODES[n]
        step = affine_table(n, m, b % n)
        table = LANE_CODES[256]
        for r in range(1, rounds + 1):
            table = table.translate(step)
            M, B = iterated_affine(m, b, r, n)
            assert (M, B) == (pow(m, r, n), table[codes[0]] - codes[0]), (n, m, b, r)
            assert affine_table(n, M, B) == table, (n, m, b, r)

    def test_exhaustive_26(self):
        for m in units(26):
            for b in range(-26, 26):
                self.check(26, m, b, 30)

    def test_units_256(self):
        for m in units(256):
            for b in (-255, -1, 0, 1, 2, 128, 255):
                self.check(256, m, b, 40)


@st.composite
def valid_keys(draw, n):
    m = draw(st.sampled_from(units(n)))
    b = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n - 1))
    ra = draw(st.integers(1, b))
    rc = draw(st.integers(1, k))
    return CipherParams(n=n, m=m, b=b, k=k, ra=ra, rc=rc)


@pytest.mark.parametrize("n", [26, 256])
@pytest.mark.parametrize("lane", [LANE_AFFINE, LANE_CAESAR])
def test_iterate_round_trip_property(n, lane):
    @settings(max_examples=40, deadline=None)
    @given(key=valid_keys(n), stream=st.lists(st.integers(0, n - 1), max_size=32))
    def run(key, stream):
        assert iterate_decrypt(iterate_encrypt(stream, key, lane), key, lane) == stream

    run()


def test_check_lane_codes():
    check_lane_codes(bytes(range(256)), 256)
    check_lane_codes(LANE_CODES[26] * 2, 26)
    with pytest.raises(NonLetterOutput, match="^lane byte 0x61 is outside A-Z$"):
        check_lane_codes(b"ABaZ\x00", 26)
