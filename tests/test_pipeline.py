"""Unit tests for end-to-end encryption, key files and ciphertext files."""

import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt.bitmatrix import (
    build_permutation,
    deinterleave,
    harvest,
    place,
    symbols_to_bits,
    unharvest,
)
from paddycrypt.ciphers import (
    LANE_AFFINE,
    LANE_CAESAR,
    CipherParams,
    iterate_decrypt,
    iterate_encrypt,
    lane_table,
)
from paddycrypt.errors import (
    BadLength,
    CipherError,
    IntegrityMismatch,
    InvalidKey,
    NonLetterInput,
    NonLetterOutput,
    ParseError,
)
from paddycrypt.pipeline import (
    CipherText,
    _check_chars,
    decrypt,
    encrypt,
    format_ciphertext,
    keygen,
    parse_ciphertext,
    parse_key,
    serialize_key,
)


BYTE_KEY = CipherParams(n=256, m=3, b=7, k=3, ra=1, rc=1)


def parse_lines_oracle(text):
    """Reference for parse_ciphertext: split the text into lines, strip
    them, drop the blank ones, and join the rest after a hex header."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if lines and lines[0] == "fmt=hex":
        return CipherText.from_hex("".join(lines[1:]))
    return CipherText.from_bitstring("".join(lines))


def outcome(parse, text):
    """What parse does with text: the ciphertext, or the error and its message."""
    try:
        return parse(text)
    except CipherError as err:
        return type(err), str(err)


# Every line break str.splitlines() honours ("\r\n" is one), and some
# whitespace that is not a line break.
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\xa0", "\u3000"]


class TestEncrypt:
    def test_single_byte_frozen_vector(self):
        # hand-simulated: lanes 202/68, single-pair harvest order
        ct = encrypt(b"A", BYTE_KEY)
        assert ct.to_bitstring() == "1001010010001100"

    def test_five_chars_make_80_bits(self):
        key = CipherParams(n=256, m=5, b=9, k=11, ra=3, rc=2)
        assert len(encrypt(b"PADDY", key).bits) == 80
        letters_key = CipherParams(n=26, m=5, b=9, k=11, ra=3, rc=2)
        assert len(encrypt(b"PADDY", letters_key).bits) == 80

    def test_empty(self):
        ct = encrypt(b"", BYTE_KEY)
        assert ct.bits == ()
        assert decrypt(ct, BYTE_KEY) == b""

    def test_deterministic(self):
        key = keygen("byte", seed=3)
        assert encrypt(b"same input", key) == encrypt(b"same input", key)

    def test_length_always_16n(self):
        rng = random.Random(8)
        for length in (1, 2, 31, 64):
            data = rng.randbytes(length)
            assert len(encrypt(data, BYTE_KEY).bits) == 16 * length

    @pytest.mark.parametrize("key", [BYTE_KEY, CipherParams(n=26, m=7, b=9, k=11, ra=4, rc=6)])
    def test_matches_matrix_reference(self, key):
        # closed-form layout vs planting and harvest cell by cell; 4097
        # symbols make three transposition chunks, the last one short
        rng = random.Random(key.n)
        offset = 0 if key.n == 256 else 65  # letters travel as A-Z codes
        for length in list(range(70)) + [1000, 4096, 4097, 32768]:
            symbols = [rng.randrange(key.n) for _ in range(length)]
            plaintext = bytes(offset + s for s in symbols)
            codes_a = [offset + s for s in iterate_encrypt(symbols, key, LANE_AFFINE)]
            codes_b = [offset + s for s in iterate_encrypt(symbols, key, LANE_CAESAR)]
            expected = harvest(place(symbols_to_bits(codes_a), symbols_to_bits(codes_b)))
            ct = encrypt(plaintext, key)
            assert list(ct.bits) == expected
            bitstring = "".join(map(str, expected))
            assert ct.to_bitstring() == bitstring
            octets = bytes(int(bitstring[i:i + 8], 2) for i in range(0, len(bitstring), 8))
            assert ct.packed == octets
            assert ct.to_hex() == octets.hex()


    @pytest.mark.parametrize("key", [BYTE_KEY, CipherParams(n=26, m=7, b=9, k=11, ra=4, rc=6)],
                             ids=["byte", "letters"])
    @pytest.mark.parametrize("value", [300, -1])
    def test_out_of_range_int_is_cipher_error(self, key, value):
        with pytest.raises(CipherError, match=r"\[0, 256\)"):
            encrypt([65, value], key)


class TestLettersMode:
    KEY = CipherParams(n=26, m=7, b=10, k=17, ra=4, rc=9)

    def test_round_trip_upper(self):
        assert decrypt(encrypt(b"HELLO", self.KEY), self.KEY) == b"HELLO"

    def test_lowercase_folds(self):
        assert encrypt(b"hello", self.KEY) == encrypt(b"HELLO", self.KEY)
        assert decrypt(encrypt(b"hello", self.KEY), self.KEY) == b"HELLO"

    @pytest.mark.parametrize("data", [b"HI THERE", b"A1", b"\xc3\xa9", b" "])
    def test_non_letter_rejected(self, data):
        with pytest.raises(NonLetterInput):
            encrypt(data, self.KEY)

    def test_non_letter_output_on_corruption(self):
        # clearing/setting the top bit of a lane byte leaves A-Z
        ct = encrypt(b"A", self.KEY)
        perm = build_permutation(1)
        for lane_bit in (0, 8):  # MSB of the affine, then the caesar lane byte
            bits = list(ct.bits)
            bits[perm.forward[lane_bit]] ^= 1
            with pytest.raises(NonLetterOutput):
                decrypt(CipherText(tuple(bits)), self.KEY)


class TestDecrypt:
    def test_rejects_bad_length(self):
        with pytest.raises(BadLength):
            CipherText((0,) * 24)

    @pytest.mark.parametrize("cell", [2, -1, "1"])
    def test_rejects_non_bit_cells(self, cell):
        with pytest.raises(ParseError):
            CipherText((cell,) * 16)

    def test_length_checked_before_cells(self):
        with pytest.raises(BadLength):
            CipherText((2,) * 24)
        with pytest.raises(ParseError):
            CipherText((2,) * 16)

    def test_integrity_mismatch_names_the_flipped_symbol(self):
        # byte mode: every lane byte is valid, so each flip reaches the lane comparison
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        ct = encrypt(bytes(range(60, 70)), key)
        perm = build_permutation(10)
        owner = {pos: i for i in range(10) for pos in perm.symbol_positions(i)}
        for position in range(len(ct.cells)):
            cells = bytearray(ct.cells)
            cells[position] ^= 1
            with pytest.raises(IntegrityMismatch) as err:
                decrypt(CipherText(cells), key)
            assert err.value.indices == (owner[position],)
            assert str(err.value).startswith(
                "affine and caesar lanes disagree (corrupt data or wrong key)")
            assert f"first index {owner[position]}" in str(err.value)

    def test_wrong_key_indices_are_built_once_and_survive_a_pickle(self):
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        wrong = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=7)
        message = b"the wrong key decrypts the lanes apart"
        ct = encrypt(message, key)
        with pytest.raises(IntegrityMismatch) as err:
            decrypt(ct, wrong)
        plain_a, plain_b = deinterleave(ct.packed, lane_table(wrong, LANE_AFFINE, decrypt=True),
                                        lane_table(wrong, LANE_CAESAR, decrypt=True))
        indices = err.value.indices
        assert indices == tuple(i for i, (x, y) in enumerate(zip(plain_a, plain_b)) if x != y)
        assert type(indices) is tuple and indices and err.value.indices is indices
        assert f"at {len(indices)} of {len(message)} symbols, first index {indices[0]}" in str(
            err.value)
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is IntegrityMismatch
        assert (str(copy), copy.indices) == (str(err.value), indices)
        given = IntegrityMismatch("message", (3, 5))
        assert given.indices == (3, 5) and IntegrityMismatch("message").indices == ()

    def test_integrity_mismatch_indices_stay_a_plain_attribute(self):
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        wrong = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=7)
        for read_first in (False, True):
            with pytest.raises(IntegrityMismatch) as err:
                decrypt(encrypt(b"assign over the indices", key), wrong)
            if read_first:
                assert err.value.indices
            err.value.indices = (7,)
            assert err.value.indices == (7,)
            assert pickle.loads(pickle.dumps(err.value)).indices == (7,)
        with pytest.raises(IntegrityMismatch) as err:
            decrypt(encrypt(b"copied before a read", key), wrong)
        built = copy.copy(err.value).indices
        assert built and copy.deepcopy(err.value).indices == built == err.value.indices
        with pytest.raises(AttributeError):
            err.value.no_such_field
        # IntegrityMismatch("affine and caesar lanes disagree", (1, 4)) pickled
        # when indices was set in __init__ as a plain attribute.
        saved = (b"\x80\x04\x95f\x00\x00\x00\x00\x00\x00\x00\x8c\x11paddycrypt.errors\x94\x8c"
                 b"\x11IntegrityMismatch\x94\x93\x94\x8c affine and caesar lanes disagree\x94"
                 b"\x85\x94R\x94}\x94\x8c\x07indices\x94K\x01K\x04\x86\x94sb.")
        loaded = pickle.loads(saved)
        assert type(loaded) is IntegrityMismatch
        assert (str(loaded), loaded.indices) == ("affine and caesar lanes disagree", (1, 4))

    def test_single_bit_corruption_never_silent(self):
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        message = b"corn"
        ct = encrypt(message, key)
        for position in range(len(ct.bits)):
            bits = list(ct.bits)
            bits[position] ^= 1
            try:
                recovered = decrypt(CipherText(tuple(bits)), key)
            except IntegrityMismatch:
                continue
            assert recovered != message

    def test_wrong_key_integrity(self):
        rng = random.Random(13)
        message = b"MEETM"
        for _ in range(100):
            key = keygen("byte", seed=rng.getrandbits(32))
            wrong_k = key.k + 1 if key.k + 1 < 256 else key.k - 1
            wrong = CipherParams(n=256, m=key.m, b=key.b, k=wrong_k,
                                 ra=key.ra, rc=min(key.rc, wrong_k))
            ct = encrypt(message, key)
            with pytest.raises(IntegrityMismatch):
                decrypt(ct, wrong)

    def test_lane_a_corruption_leaves_caesar_lane_intact(self):
        key = CipherParams(n=256, m=11, b=20, k=9, ra=3, rc=2)
        message = b"harvest time"
        ct = encrypt(message, key)
        perm = build_permutation(len(message))
        _, clean_b = unharvest(ct.bits)
        rng = random.Random(3)
        lane_a_positions = [perm.forward[i] for i in range(8 * len(message))]
        for _ in range(50):
            bits = list(ct.bits)
            for position in rng.sample(lane_a_positions, 5):
                bits[position] ^= 1
            _, lane_b = unharvest(bits)
            assert lane_b == clean_b  # caesar lane untouched
            from paddycrypt.bitmatrix import bits_to_symbols

            recovered = iterate_decrypt(bits_to_symbols(lane_b), key, LANE_CAESAR)
            assert bytes(recovered) == message


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(max_size=256), seed=st.integers(0, 2**32 - 1))
    def test_byte_mode(self, data, seed):
        key = keygen("byte", seed=seed)
        assert decrypt(encrypt(data, key), key) == data

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.text(alphabet=st.characters(min_codepoint=65, max_codepoint=90), max_size=80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_letters_mode(self, text, seed):
        data = text.encode("ascii")
        key = keygen("letters", seed=seed)
        assert decrypt(encrypt(data, key), key) == data


class TestKeygen:
    def test_many_keys_valid(self):
        # CipherParams validates on construction, so surviving is the test
        for seed in range(10_000):
            keygen("byte", seed=seed)
        for seed in range(2_000):
            keygen("letters", seed=seed)

    def test_byte_mode_multiplier_is_odd(self):
        assert all(keygen("byte", seed=s).m % 2 == 1 for s in range(500))

    def test_letters_mode_multiplier_is_unit(self):
        for seed in range(500):
            m = keygen("letters", seed=seed).m
            assert m % 2 != 0 and m % 13 != 0

    def test_seed_reproducible(self):
        assert keygen("byte", seed=99) == keygen("byte", seed=99)

    def test_unseeded_keys_vary(self):
        assert len({keygen("byte") for _ in range(20)}) > 1

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            keygen("words")


class TestKeyFile:
    def test_round_trip_many(self):
        rng = random.Random(314)
        for _ in range(1000):
            mode = rng.choice(("byte", "letters"))
            key = keygen(mode, seed=rng.getrandbits(32))
            assert parse_key(serialize_key(key)) == key

    def test_comments_order_whitespace(self):
        text = (
            "# stored next to the field notes\n"
            "rc=4\n"
            "ra = 2\n"
            "k=5\n"
            "b=7\n"
            "m=3  # multiplier\n"
            "n=256\n"
            "mode=byte\n"
        )
        assert parse_key(text) == CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4)

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("mode=byte\nn=256\nm=4\nb=7\nk=5\nra=2\nrc=4\n", "m"),
            ("mode=byte\nn=256\nm=3\nb=7\nk=5\nra=9\nrc=4\n", "ra"),
            ("mode=byte\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=6\n", "rc"),
            ("mode=letters\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=4\n", "mode"),
        ],
    )
    def test_invalid_key_names_field(self, text, needle):
        with pytest.raises(InvalidKey) as err:
            parse_key(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "mode=byte\nn=256\nm=3\nb=7\nk=5\nra=2\n",          # missing rc
            "mode=byte\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=x\n",    # non-integer
            "mode=byte\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=4\nq=1\n",  # unknown
            "mode=byte\nmode=byte\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=4\n",  # dup
            "mode byte\n",                                       # no '='
            "mode=octal\nn=256\nm=3\nb=7\nk=5\nra=2\nrc=4\n",   # bad mode
            "mode=byte\nn=256\nm=1_1\nb=7\nk=5\nra=2\nrc=4\n",   # int() takes '_'
            "mode=byte\nn=256\nm=+3\nb=7\nk=5\nra=2\nrc=4\n",    # sign
            "mode=byte\nn=256\nm=\u0663\nb=7\nk=5\nra=2\nrc=4\n",  # Arabic-Indic 3
            pytest.param("mode=byte\nn=256\nm=" + "9" * 5000 + "\nb=7\nk=5\nra=2\nrc=4\n",
                         id="past-int-digit-limit"),
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_key(text)


class TestCipherTextCells:
    BITS = (0, 1, 1, 0) * 8

    def test_every_form_gives_one_ciphertext(self):
        forms = [
            CipherText(self.BITS),
            CipherText(list(self.BITS)),
            CipherText(bytearray(self.BITS)),
            CipherText(bytes(self.BITS)),
            CipherText.from_bitstring("0110" * 8),
            CipherText.from_hex("66666666"),
            CipherText.from_hex("66666666".upper()),
            CipherText.from_packed(bytes.fromhex("66666666")),
            CipherText.from_packed(bytearray.fromhex("66666666")),
        ]
        for ct in forms:
            assert type(ct.packed) is bytes
            assert ct.packed == bytes.fromhex("66666666")
            assert type(ct.cells) is bytes
            assert ct.cells == bytes(self.BITS)
            assert ct.bits == self.BITS
            assert ct == forms[0]
            assert hash(ct) == hash(forms[0])

    def test_cells_are_copied_from_a_bytearray(self):
        source = bytearray(self.BITS)
        ct = CipherText(source)
        source[0] ^= 1
        assert ct.bits == self.BITS

    def test_round_trip_memory_per_cell(self):
        # encrypt -> hex -> parse -> decrypt of 32 KB must not hold a
        # Python object per ciphertext bit
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        data = random.Random(5).randbytes(32768)
        decrypt(encrypt(data[:16], key), key)  # first-call allocations aside
        tracemalloc.start()
        try:
            text = format_ciphertext(encrypt(data, key), "hex")
            recovered = decrypt(parse_ciphertext(text), key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recovered == data
        assert peak < 6 * 16 * len(data)


class TestPackedCipherText:
    def test_from_packed_rejects_odd_byte_count(self):
        with pytest.raises(BadLength):
            CipherText.from_packed(bytes(3))

    @pytest.mark.parametrize("parse,text,error", [
        ("hex", "abc", BadLength),                 # odd length
        ("hex", "abcdef", BadLength),              # whole bytes, not whole symbols
        ("hex", "ab cd", ParseError),              # embedded whitespace
        ("hex", "abcd\tef01", ParseError),
        ("hex", "ab_c", ParseError),
        ("hex", "+abc", ParseError),
        ("hex", "-abc", ParseError),
        ("hex", "0xab", ParseError),
        ("hex", "ab\uff11c", ParseError),          # full-width digit one
        ("hex", "ab\ud800c", ParseError),          # lone surrogate
        ("bits", "0" * 15, BadLength),
        ("bits", "0101 0101" + "0" * 7, ParseError),
        ("bits", "0_1" + "0" * 13, ParseError),
        ("bits", "+1" + "0" * 14, ParseError),
        ("bits", "0b1" + "0" * 13, ParseError),
        ("bits", "\uff11" + "0" * 15, ParseError),
        ("bits", "\ud800" + "0" * 15, ParseError),
        ("file", "fmt=hex\n" + "01" * 9, BadLength),  # bits body after a hex header
        ("file", "fmt=hex\n0101 0101", ParseError),
        ("file", "fmt=hex\nabc\n", BadLength),
    ])
    def test_malformed_text_error_type(self, parse, text, error):
        parser = {"hex": CipherText.from_hex, "bits": CipherText.from_bitstring,
                  "file": parse_ciphertext}[parse]
        with pytest.raises(error):
            parser(text)

    @pytest.mark.parametrize("parser,text,message", [
        (CipherText.from_hex, "ab_c", "invalid hex digit '_'"),
        (CipherText.from_hex, "ab\ud800c", "invalid hex digit '\\ud800'"),
        (CipherText.from_hex, "abcdef", "ciphertext bit count 24 is not a multiple of 16"),
        (CipherText.from_hex, "ab cdef0", "invalid hex digit ' '"),  # bytes.fromhex skips it
        (CipherText.from_hex, "abcdefg", "invalid hex digit 'g'"),   # odd length and a bad digit
        (CipherText.from_bitstring, "0101 0101", "ciphertext may contain only 0 and 1, got ' '"),
        (CipherText.from_bitstring, "0" * 15, "ciphertext bit count 15 is not a multiple of 16"),
    ])
    def test_error_messages(self, parser, text, message):
        with pytest.raises(CipherError) as err:
            parser(text)
        assert str(err.value) == message

    def test_hex_header_takes_a_bits_body_as_hex(self):
        body = "0110" * 4
        assert parse_ciphertext("fmt=hex\n" + body) == CipherText.from_hex(body)
        assert CipherText.from_hex(body).n_symbols == 4

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                             st.sampled_from("0123456789abcdefABCDEF"))))
    def test_arbitrary_text_fails_only_as_parse_or_length_error(self, text):
        cases = ((CipherText.from_hex, CipherText.to_hex, text.lower()),
                 (CipherText.from_bitstring, CipherText.to_bitstring, text))
        for parse, render, canonical in cases:
            try:
                ct = parse(text)
            except (ParseError, BadLength):
                continue
            assert render(ct) == canonical

    # 0/1 runs (8 digits make half a symbol), then each character int()
    # takes in base 2 though it is not 0 or 1, and some it does not take.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["0", "1", "01" * 4, "10" * 4, "_", " ", "\t", "\n", "\xa0",
                                     "b", "B", "+", "-", "2", "x", "\u0661", "\ud800"]),
                    max_size=12).map("".join))
    def test_bitstring_parse_matches_a_check_every_character_reference(self, text):
        def reference(text):
            _check_chars(text, "01", "ciphertext may contain only 0 and 1, got {!r}")
            if len(text) % 16:
                raise BadLength(f"ciphertext bit count {len(text)} is not a multiple of 16")
            return CipherText.from_packed(int(text or "0", 2).to_bytes(len(text) // 8, "big"))

        assert outcome(CipherText.from_bitstring, text) == outcome(reference, text)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=64).map(lambda raw: raw[:len(raw) // 2 * 2]))
    def test_valid_text_round_trips(self, raw):
        ct = CipherText.from_packed(raw)
        assert CipherText.from_hex(ct.to_hex()) == ct
        assert CipherText.from_hex(ct.to_hex().upper()) == ct
        assert CipherText.from_bitstring(ct.to_bitstring()) == ct
        assert len(ct.to_bitstring()) == 8 * len(raw) == len(ct.cells)

    def test_round_trip_memory_per_plaintext_byte(self):
        # encrypt -> hex -> parse -> decrypt of 32 KB holds the packed form
        # (2 bytes per symbol) and the hex text, never one cell per bit
        key = CipherParams(n=256, m=9, b=12, k=21, ra=5, rc=8)
        data = random.Random(6).randbytes(32768)
        decrypt(encrypt(data[:16], key), key)  # first-call allocations aside
        tracemalloc.start()
        try:
            text = format_ciphertext(encrypt(data, key), "hex")
            recovered = decrypt(parse_ciphertext(text), key)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recovered == data
        assert peak < 24 * len(data)


class TestCipherTextFormats:
    def test_bitstring_round_trip(self):
        ct = encrypt(b"grain", BYTE_KEY)
        assert CipherText.from_bitstring(ct.to_bitstring()) == ct

    def test_hex_round_trip(self):
        ct = encrypt(b"grain", BYTE_KEY)
        assert CipherText.from_hex(ct.to_hex()) == ct
        assert len(ct.to_hex()) == len(ct.bits) // 4

    def test_file_round_trips(self):
        ct = encrypt(b"grain", BYTE_KEY)
        assert parse_ciphertext(format_ciphertext(ct, "bits")) == ct
        assert parse_ciphertext(format_ciphertext(ct, "hex")) == ct

    def test_empty_files(self):
        empty = CipherText(())
        assert parse_ciphertext(format_ciphertext(empty, "bits")) == empty
        assert parse_ciphertext(format_ciphertext(empty, "hex")) == empty

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_ciphertext("010a" * 4)
        with pytest.raises(ParseError):
            parse_ciphertext("fmt=hex\nzz\n")
        # int() would accept each of these in base 16 or 2
        for text in ("a_b", "+f", " f", "0xff", "\uff11"):
            with pytest.raises(ParseError):
                CipherText.from_hex(text)
        for text in ("a_b", "+f", " f", "0xff", "\uff11", "0_1", "+1", " 1", "0b1"):
            with pytest.raises(ParseError):
                CipherText.from_bitstring(text)
        with pytest.raises(ValueError):
            format_ciphertext(CipherText(()), "base64")

    def test_bad_bit_count(self):
        with pytest.raises(BadLength):
            parse_ciphertext("0101\n")

    # Blank lines, a header line (or a near miss), a separator, then a body
    # of digits, whitespace and line breaks.
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(
        st.lists(st.sampled_from(LINE_BREAKS + SPACES), max_size=3).map("".join),
        st.sampled_from(["fmt=hex", "", "fmt", "fmt=hexa"]),
        st.sampled_from(LINE_BREAKS + SPACES + [""]),
        st.lists(st.one_of(
            st.sampled_from(["fmt=hex", "0", "1", "01" * 8, "ab", "c", "0f1e", "g", "_", "\ud800"]
                            + LINE_BREAKS + SPACES),
            st.text("0123456789abcdefABCDEF", max_size=9),
        ), max_size=12).map("".join),
    ).map("".join))
    def test_parse_matches_the_line_oracle(self, text):
        assert outcome(parse_ciphertext, text) == outcome(parse_lines_oracle, text)

    @pytest.mark.parametrize("sep", LINE_BREAKS + SPACES)
    def test_every_line_break_and_space_parses_as_the_line_oracle(self, sep):
        for text in (f"fmt=hex{sep}01{sep}23{sep}", f"{sep}fmt=hex {sep}0123",
                     f"0101{sep}0101{sep}0101{sep}0101{sep}", f"01010101{sep}0101{sep}0101"):
            assert outcome(parse_ciphertext, text) == outcome(parse_lines_oracle, text)

    @pytest.mark.parametrize("text", [
        "fmt=hex\n0123\n4567\n",
        " \r\n fmt=hex \u2028 01\x1c23 \n\n",
        "fmt=hex\r\n01\r\n2\r\n3",
        "fmt=hex\n01 23\n",
        "fmt=hex\n0\n1g\n",
        "fmt=hexab\n",
        "\n\x85 fmt=hex",
        " \t ",
        "fmt=hex\n0123" + " \n" * 20,
        "01" * 8 + "\t" * 40,
        "01" * 7 + " 01" + "\r\n" * 20,
    ])
    def test_multi_line_bodies_parse_as_the_line_oracle(self, text):
        assert outcome(parse_ciphertext, text) == outcome(parse_lines_oracle, text)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=40), st.integers(0, 2**32 - 1))
    def test_transport_round_trip_property(self, data, seed):
        key = keygen("byte", seed=seed)
        ct = encrypt(data, key)
        for fmt in ("bits", "hex"):
            assert decrypt(parse_ciphertext(format_ciphertext(ct, fmt)), key) == data


class TestDynamicCiphertexts:
    def test_distinct_over_iteration_grid(self):
        # fixed plaintext and (n, m, b, k); every (ra, rc) gives new bits
        seen = set()
        for ra in range(1, 7):
            for rc in range(1, 6):
                key = CipherParams(n=256, m=3, b=6, k=5, ra=ra, rc=rc)
                seen.add(encrypt(b"AB", key).bits)
        assert len(seen) == 30
