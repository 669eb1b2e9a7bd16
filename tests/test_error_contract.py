"""Error contract, checked by fuzzing: bad input fails as a CipherError in
the library and as exit code 1 from the CLI, never as a traceback."""

import os
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paddycrypt.analysis import (
    DiffusionReport,
    _check_caps,
    attack_csv,
    avalanche,
    avalanche_csv,
    brute_force,
    caesar_lane_attack,
    chi_squared_english,
    english_score,
    frequency_profile,
    is_degenerate_key,
    keyspace_size,
    mean_fraction,
    printable_ratio,
)
from paddycrypt.bitmatrix import build_permutation, symbol_to_bits, symbols_to_bits
from paddycrypt.ciphers import (
    LANE_AFFINE,
    LANE_CAESAR,
    affine_decrypt_symbol,
    affine_encrypt_symbol,
    alphabet_size,
    caesar_decrypt_symbol,
    caesar_encrypt_symbol,
    iterate_decrypt,
    iterate_encrypt,
    lane_table,
    mod_inverse,
)
from paddycrypt.cli import main
from paddycrypt.errors import CipherError, IndexOutOfRange, InvalidArgument, InvalidKey
from paddycrypt.pipeline import (
    KEY_FIELDS,
    CipherParams,
    CipherText,
    decrypt,
    encrypt,
    format_ciphertext,
    keygen,
    parse_ciphertext,
    parse_key,
    serialize_key,
)

KEYS = (
    CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4),
    CipherParams(n=26, m=5, b=4, k=3, ra=2, rc=1),
)


@pytest.mark.parametrize("call,message", [
    (lambda: symbol_to_bits(256), "symbol 256 outside [0, 256)"),
    (lambda: symbols_to_bits(["a"]), "symbol 'a' outside [0, 256)"),
    (lambda: build_permutation(-1), "symbol count must be >= 0, got -1"),
    (lambda: build_permutation("3"), "symbol count must be an int, got '3'"),
    (lambda: build_permutation(2.0), "symbol count must be an int, got 2.0"),
    (lambda: build_permutation(2).symbol_positions("a"), "symbol index must be an int, got str"),
    (lambda: build_permutation(2).symbol_positions(1.5), "symbol index must be an int, got float"),
    (lambda: build_permutation(2).symbol_positions(None),
     "symbol index must be an int, got NoneType"),
    (lambda: build_permutation(2).symbol_positions(True), "symbol index must be an int, got bool"),
    (lambda: _check_caps(26, 1, 26), "cap_k must be in [1, 26), got 26"),
    (lambda: brute_force(encrypt(b"x", KEYS[0]), cap_b=0), "cap_b must be in [1, 256), got 0"),
    (lambda: alphabet_size("bogus"), "mode must be one of ['byte', 'letters'], got 'bogus'"),
    (lambda: mod_inverse(3, 1), "modulus must be >= 2, got 1"),
    (lambda: mod_inverse(3, 1.5), "modulus must be an int, got 1.5"),
    (lambda: mod_inverse(3, 2.5), "modulus must be an int, got 2.5"),
    (lambda: mod_inverse(3.0, 7), "m must be an int, got 3.0"),
    (lambda: lane_table(KEYS[0], "x"), "unknown lane 'x'"),
    (lambda: iterate_encrypt([300], KEYS[0], LANE_AFFINE), "symbol 300 outside [0, 256)"),
    (lambda: iterate_encrypt(["a"], KEYS[0], LANE_AFFINE), "symbol 'a' outside [0, 256)"),
    (lambda: iterate_encrypt([None], KEYS[0], LANE_AFFINE), "symbol None outside [0, 256)"),
    (lambda: iterate_encrypt([1.0], KEYS[0], LANE_AFFINE), "symbol 1.0 outside [0, 256)"),
    (lambda: iterate_decrypt(["a"], KEYS[0], LANE_CAESAR), "symbol 'a' outside [0, 256)"),
    (lambda: format_ciphertext(encrypt(b"x", KEYS[0]), "xml"),
     "format must be 'bits' or 'hex', got 'xml'"),
    (lambda: encrypt([256], KEYS[0]), "plaintext values must be bytes in [0, 256)"),
    (lambda: encrypt([1.5], KEYS[0]), "plaintext values must be bytes in [0, 256)"),
    (lambda: encrypt("text", KEYS[0]), "plaintext values must be bytes in [0, 256)"),
    (lambda: encrypt(None, KEYS[0]), "plaintext values must be bytes in [0, 256)"),
    (lambda: encrypt(5, KEYS[0]), "plaintext values must be bytes in [0, 256)"),
    (lambda: frequency_profile([1.5], 4), "values must be ints in [0, 4)"),
    (lambda: frequency_profile(["a"], 4), "values must be ints in [0, 4)"),
    (lambda: frequency_profile(b"ab", n="x"), "n must be an int, got 'x'"),
    (lambda: frequency_profile([5], 4), "value 5 outside [0, 4)"),
    (lambda: keyspace_size(27, 1, 1), "n must be 26 or 256, got 27"),
    (lambda: keyspace_size(256, 300, 300), "cap_b must be in [1, 256), got 300"),
    (lambda: keyspace_size(256.0, 1, 1), "n must be 26 or 256, got 256.0"),
    (lambda: keyspace_size(256, 1, 1.5), "cap_k must be in [1, 256), got 1.5"),
    # A ciphertext or key of the wrong type is named by its type alone.
    (lambda: decrypt(encrypt(b"x", KEYS[0]).packed, KEYS[0]),
     "ciphertext must be a CipherText, got bytes"),
    (lambda: format_ciphertext("0" * 16), "ciphertext must be a CipherText, got str"),
    (lambda: brute_force(b"\0" * 4), "ciphertext must be a CipherText, got bytes"),
    (lambda: caesar_lane_attack(None), "ciphertext must be a CipherText, got NoneType"),
    (lambda: encrypt(b"x", "mode=byte"), "key must be a CipherParams, got str"),
    (lambda: decrypt(encrypt(b"x", KEYS[0]), {"n": 256}), "key must be a CipherParams, got dict"),
    (lambda: avalanche(b"x", None), "key must be a CipherParams, got NoneType"),
    (lambda: lane_table((256, 3, 7, 5, 2, 4), LANE_AFFINE),
     "key must be a CipherParams, got tuple"),
    (lambda: serialize_key("mode=byte"), "key must be a CipherParams, got str"),
    (lambda: is_degenerate_key("x"), "key must be a CipherParams, got str"),
    (lambda: attack_csv("x"), "result must be a AttackResult, got str"),
    (lambda: mean_fraction([1]), "report must be a DiffusionReport, got int"),
    (lambda: avalanche_csv([1]), "report must be a DiffusionReport, got int"),
    # An unhashable mode, a scorer or min_score of the wrong type, and text
    # or packed bytes of the wrong type.
    (lambda: alphabet_size([]), "mode must be one of ['byte', 'letters'], got []"),
    (lambda: brute_force(encrypt(b"x", KEYS[0]), mode=[]),
     "mode must be one of ['byte', 'letters'], got []"),
    (lambda: caesar_lane_attack(encrypt(b"x", KEYS[0]), mode=[]),
     "mode must be one of ['byte', 'letters'], got []"),
    (lambda: keygen(mode=[]), "mode must be one of ['byte', 'letters'], got []"),
    (lambda: brute_force(encrypt(b"x", KEYS[0]), None), "scorer must be a Callable, got NoneType"),
    (lambda: caesar_lane_attack(encrypt(b"x", KEYS[0]), None),
     "scorer must be a Callable, got NoneType"),
    (lambda: brute_force(encrypt(b"x", KEYS[0]), min_score="x"),
     "min_score must be a Real, got str"),
    (lambda: caesar_lane_attack(encrypt(b"x", KEYS[0]), min_score="x"),
     "min_score must be a Real, got str"),
    (lambda: parse_key(serialize_key(KEYS[0]).encode()), "text must be a str, got bytes"),
    (lambda: parse_ciphertext(b"0" * 16), "text must be a str, got bytes"),
    (lambda: parse_ciphertext(None), "text must be a str, got NoneType"),
    (lambda: CipherText(None), "cells must be a Sequence, got NoneType"),
    (lambda: CipherText.from_packed(5), "raw must be a bytes, got int"),
    # A str, or ints outside [0, 256), of a length bytes() would take.
    (lambda: CipherText.from_packed("abcd"), "raw must be a bytes, got str"),
    (lambda: CipherText.from_packed([1, 300]), "raw must be a bytes, got list"),
    (lambda: keygen(seed=[1]), "seed must be an int, float, str, bytes or bytearray, got list"),
    # Reports read once, without len: an iterator.
    (lambda: mean_fraction(iter(avalanche(b"x", KEYS[0]))),
     "reports must be a Sequence, got list_iterator"),
    (lambda: avalanche_csv(iter(avalanche(b"x", KEYS[0]))),
     "reports must be a Sequence, got list_iterator"),
    (lambda: mean_fraction(5), "reports must be a Sequence, got int"),
    (lambda: avalanche_csv(5), "reports must be a Sequence, got int"),
    # A report whose fraction is not a number.
    (lambda: mean_fraction([DiffusionReport(0, "x")]),
     "report.ciphertext_hamming_fraction must be a Real, got str"),
    (lambda: avalanche_csv([DiffusionReport(0, "x")]),
     "report.ciphertext_hamming_fraction must be a Real, got str"),
    (lambda: avalanche_csv([DiffusionReport("a", None)]),
     "report.ciphertext_hamming_fraction must be a Real, got NoneType"),
    (lambda: CipherText.from_hex(None), "text must be a str, got NoneType"),
    (lambda: CipherText.from_hex(b"abcd"), "text must be a str, got bytes"),
    (lambda: CipherText.from_hex(memoryview(b"abcd")), "text must be a str, got memoryview"),
    (lambda: CipherText.from_hex(b"abc"), "text must be a str, got bytes"),
    (lambda: CipherText.from_hex(b"zzzz"), "text must be a str, got bytes"),
    (lambda: CipherText.from_hex(bytearray(b"abcdef")), "text must be a str, got bytearray"),
    (lambda: CipherText.from_bitstring(5), "text must be a str, got int"),
    # A scorer's text that is not bytes, empty or not.
    (lambda: english_score(None), "data must be bytes or a bytearray, got NoneType"),
    (lambda: english_score("text"), "data must be bytes or a bytearray, got str"),
    (lambda: chi_squared_english([1]), "data must be bytes or a bytearray, got list"),
    (lambda: chi_squared_english(""), "data must be bytes or a bytearray, got str"),
    (lambda: printable_ratio(None), "data must be bytes or a bytearray, got NoneType"),
    (lambda: printable_ratio([]), "data must be bytes or a bytearray, got list"),
    (lambda: printable_ratio(""), "data must be bytes or a bytearray, got str"),
    (lambda: printable_ratio("text"), "data must be bytes or a bytearray, got str"),
    (lambda: printable_ratio([1]), "data must be bytes or a bytearray, got list"),
    # A symbol, key part or n that is not an int (a bool is not one), and
    # an n below 2.
    (lambda: affine_encrypt_symbol(1.5, 3, 5, 256), "p must be an int, got 1.5"),
    (lambda: affine_encrypt_symbol("a", 3, 5, 256), "p must be an int, got 'a'"),
    (lambda: affine_encrypt_symbol(1, 3, None, 256), "b must be an int, got None"),
    (lambda: affine_decrypt_symbol(True, 3, 5, 256), "c must be an int, got True"),
    (lambda: affine_decrypt_symbol(1, 3, 5, 256.0), "n must be an int, got 256.0"),
    (lambda: caesar_encrypt_symbol(1, 2, 0), "n must be >= 2, got 0"),
    (lambda: caesar_encrypt_symbol(1, 2.5, 26), "k must be an int, got 2.5"),
    (lambda: caesar_decrypt_symbol(1, 2, 2.0), "n must be an int, got 2.0"),
    (lambda: caesar_decrypt_symbol(1, 2, 1), "n must be >= 2, got 1"),
    # Counts past what a list can hold.
    (lambda: build_permutation(10**30), f"symbol count too large to index, got {10**30}"),
    (lambda: frequency_profile(b"a", 10**30), f"n must be <= {sys.maxsize}, got {10**30}"),
], ids=["symbol_to_bits", "symbols_to_bits", "build_permutation", "build_permutation-str",
        "build_permutation-float", "symbol_positions-str", "symbol_positions-float",
        "symbol_positions-None", "symbol_positions-bool", "_check_caps", "brute_force",
        "alphabet_size", "mod_inverse", "mod_inverse-float-1.5", "mod_inverse-float-n",
        "mod_inverse-float-m", "lane_table",
        "iterate_encrypt", "iterate_encrypt-str", "iterate_encrypt-None", "iterate_encrypt-float",
        "iterate_decrypt-str", "format_ciphertext", "encrypt-256", "encrypt-float", "encrypt-str",
        "encrypt-None", "encrypt-int", "frequency_profile-float", "frequency_profile-str",
        "frequency_profile-str-n", "frequency_profile-range", "keyspace_size-n",
        "keyspace_size-caps", "keyspace_size-float-n", "keyspace_size-float-cap",
        "decrypt-ciphertext", "format_ciphertext-ciphertext", "brute_force-ciphertext",
        "caesar_lane_attack-ciphertext", "encrypt-key", "decrypt-key", "avalanche-key",
        "lane_table-key", "serialize_key-key", "is_degenerate_key-key", "attack_csv-result",
        "mean_fraction-report", "avalanche_csv-report", "alphabet_size-list",
        "brute_force-mode-list", "caesar_lane_attack-mode-list", "keygen-mode-list",
        "brute_force-scorer", "caesar_lane_attack-scorer", "brute_force-min_score",
        "caesar_lane_attack-min_score", "parse_key-bytes", "parse_ciphertext-bytes",
        "parse_ciphertext-None", "CipherText-None", "from_packed-int", "from_packed-str",
        "from_packed-out-of-range", "keygen-seed-list", "mean_fraction-iterator",
        "avalanche_csv-iterator", "mean_fraction-int", "avalanche_csv-int",
        "mean_fraction-fraction-str", "avalanche_csv-fraction-str",
        "avalanche_csv-fraction-None", "from_hex-None",
        "from_hex-bytes", "from_hex-memoryview", "from_hex-bytes-odd", "from_hex-bytes-bad-digit",
        "from_hex-bytearray",
        "from_bitstring-int", "english_score-None", "english_score-str",
        "chi_squared_english-list", "chi_squared_english-str-empty", "printable_ratio-None",
        "printable_ratio-list-empty", "printable_ratio-str-empty", "printable_ratio-str",
        "printable_ratio-list", "affine_encrypt_symbol-float", "affine_encrypt_symbol-str",
        "affine_encrypt_symbol-None", "affine_decrypt_symbol-bool", "affine_decrypt_symbol-float-n",
        "caesar_encrypt_symbol-n-0", "caesar_encrypt_symbol-float", "caesar_decrypt_symbol-float-n",
        "caesar_decrypt_symbol-n-1", "build_permutation-huge", "frequency_profile-huge-n"])
def test_bad_arguments_raise_a_cipher_error_that_is_a_value_error(call, message):
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, CipherError)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message


@pytest.mark.parametrize("index", [-1, 2, 10**30])
def test_symbol_index_out_of_range_is_a_cipher_error_and_an_index_error(index):
    with pytest.raises(IndexOutOfRange) as err:
        build_permutation(2).symbol_positions(index)
    assert isinstance(err.value, CipherError)
    assert isinstance(err.value, IndexError)
    assert str(err.value) == f"symbol index {index} outside [0, 2)"


@pytest.mark.parametrize("fields,message", [
    ((256, 77, 9.5, 13, 4, 7), "b must be an int, got 9.5"),
    ((256, 77, 9, 13, 4.0, 7), "ra must be an int, got 4.0"),
    ((256, 1.0, 9, 13, 4, 7), "m must be an int, got 1.0"),
    (("256", 77, 9, 13, 4, 7), "n must be an int, got '256'"),
], ids=["float-b", "float-ra", "float-m", "str-n"])
def test_key_fields_that_are_not_ints_raise_invalid_key(fields, message):
    with pytest.raises(InvalidKey) as err:
        CipherParams(*fields)
    assert str(err.value) == message


# Key-file-like text: name=value lines mixed with arbitrary ones.
key_texts = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            st.text(max_size=12),
            st.builds(
                "{}={}".format,
                st.sampled_from(KEY_FIELDS),
                st.one_of(st.integers(-3, 300).map(str), st.sampled_from(["byte", "letters"]),
                          st.text(max_size=4)),
            ),
        ),
        max_size=9,
    ).map("\n".join),
    st.sampled_from(KEYS).map(serialize_key),
)

# Ciphertext-file-like text: bit strings, hex bodies and arbitrary text.
ciphertext_texts = st.one_of(
    st.text(),
    st.text(alphabet="01 \n", max_size=80),
    st.text(alphabet="0123456789abcdefxyz_ \n", max_size=40).map("fmt=hex\n".__add__),
    st.builds(lambda p, key, fmt: format_ciphertext(encrypt(p, key), fmt),
              st.text(alphabet="ADGKPZadz", max_size=6).map(str.encode),
              st.sampled_from(KEYS), st.sampled_from(["bits", "hex"])),
)


@settings(max_examples=100, deadline=None)
@given(text=key_texts)
def test_parse_key_raises_only_cipher_errors(text):
    try:
        parse_key(text)
    except CipherError:
        pass


@settings(max_examples=100, deadline=None)
@given(text=ciphertext_texts, key=st.sampled_from(KEYS))
def test_parse_and_decrypt_raise_only_cipher_errors(text, key):
    try:
        decrypt(parse_ciphertext(text), key)
    except CipherError:
        pass


COMMANDS = (
    ("decrypt", "{ct}", "--key", "{key}"),
    ("crack", "{ct}", "--cap-b", "2", "--cap-k", "2"),
    ("crack", "{ct}", "--mode", "letters", "--cap-b", "2", "--cap-k", "2"),
    ("freq", "{ct}", "--bits"),
    ("encrypt", "{ct}", "--key", "{key}"),
)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(COMMANDS),
    key_bytes=st.one_of(st.binary(max_size=64), key_texts.map(lambda t: t.encode("utf-8", "surrogatepass"))),
    ct_bytes=st.one_of(st.binary(max_size=64), ciphertext_texts.map(lambda t: t.encode("utf-8", "surrogatepass"))),
)
def test_cli_on_arbitrary_files_exits_0_or_1(command, key_bytes, ct_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("key", "ct", "out")}
        with open(paths["key"], "wb") as fh:
            fh.write(key_bytes)
        with open(paths["ct"], "wb") as fh:
            fh.write(ct_bytes)
        argv = [arg.format(**paths) for arg in command] + ["-o", paths["out"]]
        assert main(argv) in (0, 1)


@settings(max_examples=100, deadline=None)
@given(
    text=st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]))),
    key=st.sampled_from(KEYS),
)
@example(text="--", key=KEYS[0])
def test_cli_inline_text_exits_0_or_1(text, key):
    with tempfile.TemporaryDirectory() as tmp:
        keyfile = os.path.join(tmp, "key")
        with open(keyfile, "w", encoding="utf-8") as fh:
            fh.write(serialize_key(key))
        argv = ["encrypt", f"--text={text}", "--key", keyfile, "-o", os.path.join(tmp, "out")]
        assert main(argv) in (0, 1)
