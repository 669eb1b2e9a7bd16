"""End-to-end tests of the command-line front-end."""

import argparse
import contextlib
import io
import math
import os
import stat
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paddycrypt.analysis import _check_caps
from paddycrypt.ciphers import alphabet_size
from paddycrypt.cli import _build_parser, main
from paddycrypt.errors import InvalidArgument
from paddycrypt.pipeline import (
    CipherParams,
    decrypt,
    encrypt,
    format_ciphertext,
    parse_key,
    serialize_key,
)


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text(serialize_key(CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4)))
    return str(path)


@pytest.fixture
def stdin(monkeypatch):
    """Feed the given bytes to the CLI as its stdin."""
    def feed(data: bytes) -> None:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    return feed


def run(*argv):
    return main(list(argv))


class TestRoundTrip:
    def test_encrypt_decrypt_files(self, tmp_path, keyfile):
        data = bytes(range(256)) + b"\x00\xff paddy"
        src = tmp_path / "plain.bin"
        src.write_bytes(data)
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        assert run("encrypt", str(src), "--key", keyfile, "-o", str(ct)) == 0
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == data

    def test_hex_format_round_trip(self, tmp_path, keyfile):
        src = tmp_path / "plain.txt"
        src.write_bytes(b"rice terraces")
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        assert run("encrypt", str(src), "--key", keyfile, "--format", "hex", "-o", str(ct)) == 0
        assert ct.read_text().startswith("fmt=hex\n")
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == b"rice terraces"

    def test_five_chars_write_80_digits(self, tmp_path, keyfile):
        src = tmp_path / "plain.txt"
        src.write_bytes(b"PADDY")
        ct = tmp_path / "msg.ct"
        assert run("encrypt", str(src), "--key", keyfile, "-o", str(ct)) == 0
        body = ct.read_text().strip()
        assert len(body) == 80
        assert set(body) <= {"0", "1"}

    def test_inline_text(self, tmp_path, keyfile, capsys):
        assert run("encrypt", "--text", "hi", "--key", keyfile) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.strip()) == 32

    def test_inline_text_keeps_undecodable_argv_bytes(self, tmp_path, keyfile, capsys):
        # On POSIX, Python decodes argv byte 0xff as the lone surrogate U+DCFF.
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        assert run("encrypt", "--text", "\udcff", "--key", keyfile, "-o", str(ct)) == 0
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == b"\xff"
        letters = tmp_path / "letters.key"
        letters.write_text(serialize_key(CipherParams(n=26, m=3, b=7, k=5, ra=2, rc=4)))
        assert run("encrypt", "--text", "\udcff", "--key", str(letters)) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_identical_invocations_identical_output(self, tmp_path, keyfile):
        src = tmp_path / "plain.txt"
        src.write_bytes(b"same seed, same furrow")
        first = tmp_path / "a.ct"
        second = tmp_path / "b.ct"
        assert run("encrypt", str(src), "--key", keyfile, "-o", str(first)) == 0
        assert run("encrypt", str(src), "--key", keyfile, "-o", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()


class TestOutputFiles:
    def test_shorter_output_replaces_longer_file(self, tmp_path, keyfile):
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        ct.write_text("0" * 4096)
        out.write_bytes(b"x" * 4096)
        assert run("encrypt", "--text", "rice", "--key", keyfile, "--format", "hex", "-o", str(ct)) == 0
        assert len(ct.read_text()) == len("fmt=hex\n") + 16 + 1
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == b"rice"

    def test_same_length_output_is_written_over(self, tmp_path, keyfile, monkeypatch):
        ct = tmp_path / "msg.ct"
        assert run("encrypt", "--text", "rice", "--key", keyfile, "-o", str(ct)) == 0
        first = ct.read_bytes()
        truncated = []
        monkeypatch.setattr(os, "ftruncate", lambda *args: truncated.append(args))
        assert run("encrypt", "--text", "husk", "--key", keyfile, "-o", str(ct)) == 0
        assert truncated == []
        second = ct.read_bytes()
        assert len(second) == len(first) and second != first
        assert second == format_ciphertext(encrypt(b"husk", parse_key(Path(keyfile).read_text()))).encode()

    def test_output_path_is_the_input_path(self, tmp_path, keyfile):
        data = b"the ciphertext replaces its own plaintext"
        path = tmp_path / "msg"
        path.write_bytes(data)
        assert run("encrypt", str(path), "--key", keyfile, "-o", str(path)) == 0
        assert len(path.read_bytes()) == 16 * len(data) + 1
        assert run("decrypt", str(path), "--key", keyfile, "-o", str(path)) == 0
        assert path.read_bytes() == data

    def test_empty_output_empties_file(self, tmp_path, keyfile):
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        out.write_bytes(b"stale")
        assert run("encrypt", "--text", "", "--key", keyfile, "-o", str(ct)) == 0
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == b""

    def test_new_file_mode_follows_umask(self, tmp_path, keyfile):
        ct = tmp_path / "msg.ct"
        old = os.umask(0o027)
        try:
            assert run("encrypt", "--text", "rice", "--key", keyfile, "-o", str(ct)) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(ct.stat().st_mode) == 0o640

    def test_output_to_character_device(self, keyfile):
        assert run("encrypt", "--text", "rice", "--key", keyfile, "-o", os.devnull) == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_to_named_pipe(self, tmp_path, keyfile):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            assert run("encrypt", "--text", "rice", "--key", keyfile, "--format", "hex", "-o", str(fifo)) == 0
        finally:
            reader.join(timeout=10)
        assert received and received[0].startswith("fmt=hex\n")


class TestKeygen:
    def test_seeded_deterministic(self, tmp_path):
        a = tmp_path / "a.key"
        b = tmp_path / "b.key"
        assert run("keygen", "--seed", "7", "-o", str(a)) == 0
        assert run("keygen", "--seed", "7", "-o", str(b)) == 0
        assert a.read_text() == b.read_text()
        parse_key(a.read_text())  # well-formed and valid

    def test_letters_mode(self, capsys):
        assert run("keygen", "--mode", "letters", "--seed", "1") == 0
        key = parse_key(capsys.readouterr().out)
        assert key.n == 26

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        assert run("keygen", "--seed", "7") == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["paddycrypt", "keygen", "--seed", "7"])
        assert main() == 0
        assert capsys.readouterr().out == expected


class TestCrack:
    def test_grid_prints_key_file(self, tmp_path, capsys):
        key = CipherParams(n=256, m=3, b=4, k=3, ra=1, rc=2)
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(encrypt(b"meet me at the usual place", key)))
        report = tmp_path / "report.csv"
        assert run("crack", str(ct), "--cap-b", "4", "--cap-k", "4",
                   "--report", str(report)) == 0
        recovered = parse_key(capsys.readouterr().out)
        assert recovered == key
        assert report.read_text().splitlines()[1].startswith("brute-force,")

    def test_grid_covers_whole_letters_keyspace(self, tmp_path):
        key = CipherParams(n=26, m=19, b=23, k=21, ra=17, rc=20)
        message = b"THERICEISREADYFORTHEHARVEST"
        ciphertext = encrypt(message, key)
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(ciphertext))
        out = tmp_path / "found.key"
        assert run("crack", str(ct), "--mode", "letters", "--cap-b", "25", "--cap-k", "25",
                   "-o", str(out)) == 0
        assert decrypt(ciphertext, parse_key(out.read_text())) == message

    def test_caesar_lane_prints_plaintext(self, tmp_path, capsysbinary):
        key = CipherParams(n=256, m=201, b=133, k=90, ra=40, rc=77)
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(encrypt(b"meet me at the usual place", key)))
        assert run("crack", str(ct), "--method", "caesar-lane") == 0
        assert capsysbinary.readouterr().out == b"meet me at the usual place"

    @pytest.mark.parametrize("method", ["grid", "caesar-lane"])
    def test_plaintext_out(self, tmp_path, method):
        key = CipherParams(n=256, m=3, b=4, k=3, ra=1, rc=2)
        ciphertext = encrypt(b"meet me at the usual place", key)
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(ciphertext))
        out, plaintext = tmp_path / "out", tmp_path / "plain.out"
        assert run("crack", str(ct), "--method", method, "--cap-b", "4", "--cap-k", "4",
                   "--plaintext-out", str(plaintext), "-o", str(out)) == 0
        assert plaintext.read_bytes() == b"meet me at the usual place"
        if method == "grid":
            assert decrypt(ciphertext, parse_key(out.read_text())) == plaintext.read_bytes()
        else:
            assert out.read_bytes() == plaintext.read_bytes()

    @pytest.mark.parametrize("method, error", [
        ("grid", "error: no key with b<=16, k<=16 produced agreeing lanes above the threshold\n"),
        ("caesar-lane", "error: no shift scored above 2.0\n"),
    ])
    def test_min_score(self, tmp_path, capsysbinary, method, error):
        key = CipherParams(n=256, m=3, b=4, k=3, ra=1, rc=2)
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(encrypt(b"meet me at the usual place", key)))
        assert run("crack", str(ct), "--method", method) == 0
        expected = capsysbinary.readouterr().out
        assert expected in (serialize_key(key).encode(), b"meet me at the usual place")
        # A threshold below the winner's score (0.52) changes nothing.
        assert run("crack", str(ct), "--method", method, "--min-score", "0.25") == 0
        assert capsysbinary.readouterr().out == expected
        # No candidate reaches a score of 2 (scores are at most 1).
        assert run("crack", str(ct), "--method", method, "--min-score", "2") == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode() == error


class TestReportsCommands:
    def test_avalanche_csv(self, tmp_path, keyfile):
        src = tmp_path / "plain.txt"
        src.write_bytes(b"GRAIN")
        out = tmp_path / "diffusion.csv"
        assert run("avalanche", str(src), "--key", keyfile, "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bit_index,hamming_fraction"
        assert len(lines) == 42

    def test_avalanche_letters_key(self, tmp_path, capsys):
        letters = tmp_path / "letters.key"
        letters.write_text(serialize_key(CipherParams(n=26, m=7, b=9, k=11, ra=4, rc=6)))
        assert run("avalanche", "--text", "GRAIN", "--key", str(letters)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.strip().splitlines()
        assert lines[0] == "bit_index,hamming_fraction"
        assert len(lines) == 42

    def test_freq_csv(self, tmp_path):
        src = tmp_path / "data.bin"
        src.write_bytes(b"AAAB")
        out = tmp_path / "freq.csv"
        assert run("freq", str(src), "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[66] == "65,0.750000"

    def test_freq_bits(self, tmp_path, keyfile, capsys):
        ct = tmp_path / "msg.ct"
        key = parse_key(Path(keyfile).read_text())
        ct.write_text(format_ciphertext(encrypt(b"some data", key)))
        assert run("freq", str(ct), "--bits") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + two bit values

    def test_freq_bits_inline_text(self, capsys):
        assert run("freq", "--bits", "--text", "0101010101010111") == 0
        assert capsys.readouterr().out == "value,fraction\n0,0.437500\n1,0.562500\n"


class TestStdinDefault:
    """decrypt, crack and freq --bits read stdin when INPUT is not given."""

    KEY = CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4)
    MESSAGE = b"meet me at the usual place"
    CT = format_ciphertext(encrypt(MESSAGE, KEY), "hex").encode()

    def test_decrypt(self, stdin, keyfile, capsysbinary):
        stdin(self.CT)
        assert run("decrypt", "--key", keyfile) == 0
        assert capsysbinary.readouterr().out == self.MESSAGE

    def test_crack(self, stdin, capsysbinary):
        stdin(self.CT)
        assert run("crack", "--cap-b", "7", "--cap-k", "5") == 0
        assert parse_key(capsysbinary.readouterr().out.decode()) == self.KEY
        stdin(self.CT)
        assert run("crack", "--method", "caesar-lane") == 0
        assert capsysbinary.readouterr().out == self.MESSAGE

    def test_freq_bits(self, stdin, tmp_path, capsysbinary):
        ct = tmp_path / "msg.ct"
        ct.write_bytes(self.CT)
        assert run("freq", "--bits", str(ct)) == 0
        from_path = capsysbinary.readouterr().out
        stdin(self.CT)
        assert run("freq", "--bits") == 0
        assert capsysbinary.readouterr().out == from_path

    def test_encrypt_needs_an_input(self, stdin, keyfile, capsys):
        stdin(b"not read")
        assert run("encrypt", "--key", keyfile) == 1
        assert capsys.readouterr().err == "error: no input: give a path, -, or --text\n"

    @pytest.mark.parametrize("argv", [
        ["encrypt", "--key"], ["decrypt", "--key"], ["crack"],
        ["avalanche", "--key"], ["freq"], ["freq", "--bits"],
    ])
    def test_empty_input_is_a_path(self, argv, stdin, keyfile, capsys):
        stdin(self.CT)
        if argv[-1] == "--key":
            argv = argv + [keyfile]
        assert run(argv[0], "", *argv[1:]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


class TestLineEndings:
    @pytest.mark.parametrize("fmt", ["bits", "hex"])
    def test_crlf_files_parse_like_lf(self, tmp_path, fmt, capsysbinary):
        key = CipherParams(n=256, m=3, b=7, k=5, ra=2, rc=4)
        texts = {"key": serialize_key(key), "ct": format_ciphertext(encrypt(b"rice", key), fmt)}
        outputs = []
        for ending in ("\n", "\r\n"):
            paths = {}
            for name, text in texts.items():
                paths[name] = tmp_path / f"{name}{len(ending)}"
                paths[name].write_bytes(text.replace("\n", ending).encode())
            assert run("decrypt", str(paths["ct"]), "--key", str(paths["key"])) == 0
            assert run("freq", "--bits", str(paths["ct"])) == 0
            outputs.append(capsysbinary.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith(b"rice") and outputs[0].err == b""


class TestDiagnostics:
    def test_invalid_key_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.key"
        bad.write_text("mode=byte\nn=256\nm=4\nb=7\nk=5\nra=2\nrc=4\n")
        code = run("encrypt", "--text", "x", "--key", str(bad))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err and "m" in captured.err

    def test_corrupt_ciphertext(self, tmp_path, keyfile, capsys):
        key = parse_key(Path(keyfile).read_text())
        ct_text = format_ciphertext(encrypt(b"grain", key))
        flipped = ("1" if ct_text[0] == "0" else "0") + ct_text[1:]
        path = tmp_path / "bad.ct"
        path.write_text(flipped)
        code = run("decrypt", str(path), "--key", keyfile)
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_missing_file(self, tmp_path, keyfile, capsys):
        code = run("encrypt", str(tmp_path / "nope.bin"), "--key", keyfile)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run("encrypt", "--format", "morse", "--key", "k", "--text", "x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("caps", [
        ("--cap-b", "0"),
        ("--cap-b", "300"),
        ("--cap-k", "256"),
        ("--mode", "letters", "--cap-b", "26"),
        ("--mode", "letters", "--cap-k", "30"),
    ])
    def test_crack_caps_are_usage_errors(self, tmp_path, caps, capsys):
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(encrypt(b"FIELD", CipherParams(n=26, m=3, b=4, k=3, ra=1, rc=2))))
        with pytest.raises(SystemExit) as exc:
            run("crack", str(ct), *caps)
        assert exc.value.code == 2
        assert "cap_" in capsys.readouterr().err

    def test_non_utf8_key_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.key"
        bad.write_bytes(b"mode=byte\nn=256\nm=3\xff\nb=7\nk=5\nra=2\nrc=4\n")
        code = run("encrypt", "--text", "x", "--key", str(bad))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_non_utf8_ciphertext_file(self, tmp_path, keyfile, capsys):
        bad = tmp_path / "bad.ct"
        bad.write_bytes(b"\xff" * 16)
        for argv in (("decrypt", str(bad), "--key", keyfile), ("crack", str(bad))):
            assert run(*argv) == 1
            assert capsys.readouterr().err.startswith("error:")

    def test_both_input_and_text(self, tmp_path, keyfile, capsys):
        src = tmp_path / "p.txt"
        src.write_text("x")
        code = run("encrypt", str(src), "--text", "y", "--key", keyfile)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_freq_bits_both_input_and_text(self, tmp_path, keyfile, capsys):
        ct = tmp_path / "msg.ct"
        ct.write_text(format_ciphertext(encrypt(b"some data", parse_key(Path(keyfile).read_text()))))
        assert run("freq", "--bits", str(ct), "--text", "0" * 16) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: give either an input path or --text, not both\n"

    @pytest.mark.parametrize("command", ["encrypt", "avalanche"])
    def test_both_input_and_text_before_the_key_file(self, tmp_path, command, capsys):
        missing = str(tmp_path / "nokey")
        assert run(command, str(tmp_path / "p.bin"), "--text", "x", "--key", missing) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: give either an input path or --text, not both\n"


# main() hands an argv that starts with a command name to that command's
# subparser; each of these must end as a full parse_args of it would.
DISPATCH_ARGVS = [
    ["encrypt", "--text", "x", "--key", "k", "--format", "hex", "-o", "o"],
    ["decrypt", "ct", "--key", "k"],
    ["crack", "ct", "--method", "caesar-lane", "--mode", "letters"],
    ["crack", "--cap-b=7", "--cap-k", "5", "--report", "r.csv", "--plaintext-out", "p"],
    ["crack", "x", "--min-score", "nan"],
    ["encrypt", "pt", "--key", "k"],
    ["keygen", "--seed", "3"],
    ["freq", "data", "--bits"],
    ["avalanche", "--text=--", "--key", "k"],
    ["encrypt", "--text", "x", "--key", "k", "--form", "hex"],  # an abbreviation
    ["encrypt", "--key", "k", "--", "-pt"],
    ["encrypt", "--key", "k", "--text", "x", "extra"],  # extra is INPUT
    # Usage errors and help.
    ["encrypt", "pt", "--key", "k", "extra"],
    ["encrypt", "pt", "extra", "--key", "k", "more"],
    ["decrypt", "ct", "--key", "k", "--bogus"],
    ["decrypt", "ct", "--key", "k", "--bogus=1", "-z"],
    ["keygen", "--seed", "three"],
    ["crack", "--cap-b"],
    ["crack", "--cap-b", "300"],
    ["crack", "--mode", "letters", "--cap-k", "-5"],
    ["encrypt", "--text", "x"],
    ["avalanche", "--text", "x"],
    ["encrypt", "--text", "x", "--key", "k", "--format", "morse"],
    *([command, "-h"] for command in ("encrypt", "decrypt", "keygen", "crack", "avalanche", "freq")),
    ["decrypt", "--help", "extra"],
    [],
    ["-h"],
    ["--bogus", "encrypt"],
    ["encode", "--key", "k"],
    ["Encrypt"],
]


# Values for mixed argvs: plain ones, and ones argparse must read ("-" is
# plain; "--", "-5" and "--key=k" are not).
ARGV_VALUES = ["x", "-", "--", "", "3", "-5", "\u0663", "hex", "letters", "caesar-lane",
               "printable", "0.5", "nan", "--key=k", "extra"]

# The argv shapes of the README's CLI examples and of the benchmark's
# messages op, all plain; run in this order in one directory.
PLAIN_ARGVS = [
    ["keygen", "--seed", "7", "-o", "field.key"],
    ["encrypt", "note.txt", "--key", "field.key", "--format", "bits", "-o", "note.ct"],
    ["decrypt", "note.ct", "--key", "field.key", "-o", "note.out"],
    ["encrypt", "note.txt", "--key", "field.key", "-o", "note.ct"],
    ["encrypt", "--text", "inline works too", "--key", "field.key"],
    ["crack", "note.ct", "--cap-b", "8", "--cap-k", "8", "-o", "recovered.key",
     "--report", "attack.csv"],
    ["crack", "note.ct", "--method", "caesar-lane"],
    ["avalanche", "note.txt", "--key", "field.key", "-o", "diffusion.csv"],
    ["freq", "note.ct", "--bits"],
    ["freq", "--bits", "--text", "0101010101010111"],
    ["encrypt", "note.txt", "--key", "field.key", "--format", "hex", "-o", "note.ct"],
    ["decrypt", "note.ct", "--key", "field.key", "-o", "note.out"],
]


def _outcome(call, argv):
    """call(argv)'s return value or SystemExit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _comparable(namespace):
    """namespace's values bar func, a NaN (equal to nothing, itself
    included) replaced by a marker that equals the next NaN's."""
    return {key: "<nan>" if isinstance(value, float) and math.isnan(value) else value
            for key, value in namespace.items() if key != "func"}


def check_dispatch_matches_a_full_parse(argv):
    """main(argv), with each command's func replaced by a recorder, ends
    as a fresh parser's parse_args(argv) does: the same namespace (bar
    func, and with main's "--text=--" repair), exit code and output.  An
    INPUT given with --text, and a crack cap out of range, are refused by
    main before the command runs."""
    commands = _build_parser().commands
    funcs = {name: command.get_default("func") for name, command in commands.items()}
    seen = []
    for command in commands.values():
        command.set_defaults(func=lambda args: seen.append(dict(vars(args))))
    try:
        dispatched = _outcome(main, list(argv))
    finally:
        for name, command in commands.items():
            command.set_defaults(func=funcs[name])
    fresh = _build_parser.__wrapped__()
    parsed, out, err = _outcome(fresh.parse_args, list(argv))
    if isinstance(parsed, argparse.Namespace):
        assert parsed.func is funcs[argv[0]]
        if parsed.command == "crack":  # main refuses out-of-range caps as a usage error
            try:
                _check_caps(alphabet_size(parsed.mode), parsed.cap_b, parsed.cap_k)
            except InvalidArgument as caps:
                assert seen == []
                assert dispatched == _outcome(fresh.error, str(caps))
                return
        if getattr(parsed, "text", None) is not None and parsed.input is not None:
            assert seen == []
            assert dispatched == (1, "", "error: give either an input path or --text, not both\n")
            return
        expected = {key: "--" if value == [] else value for key, value in vars(parsed).items()}
        assert [_comparable(ns) for ns in seen] == [_comparable(expected)]
        assert dispatched == (0, out, err)
    else:
        assert seen == []
        assert dispatched == (parsed, out, err)


class TestParserReuse:
    def test_sequential_commands_share_no_values(self, tmp_path, keyfile, capsys):
        ct = tmp_path / "msg.ct"
        out = tmp_path / "plain.out"
        assert run("encrypt", "--text", "meet me at the usual place", "--key", keyfile,
                   "--format", "hex", "-o", str(ct)) == 0
        assert run("decrypt", str(ct), "--key", keyfile, "-o", str(out)) == 0
        assert out.read_bytes() == b"meet me at the usual place"
        assert run("crack", str(ct), "--cap-b", "7", "--cap-k", "5") == 0
        assert parse_key(capsys.readouterr().out) == parse_key(Path(keyfile).read_text())

    def test_namespaces_match_a_fresh_parser(self):
        fresh = _build_parser.__wrapped__
        argvs = [
            ["encrypt", "--text", "x", "--key", "k", "--format", "hex", "-o", "o"],
            ["decrypt", "ct", "--key", "k"],
            ["crack", "ct", "--method", "caesar-lane", "--mode", "letters"],
            ["encrypt", "pt", "--key", "k"],
            ["keygen", "--seed", "3"],
            ["freq", "data", "--bits"],
            ["avalanche", "--text=--", "--key", "k"],
        ]
        for argv in argvs:
            assert vars(_build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_dispatch_matches_a_full_parse(self, argv):
        check_dispatch_matches_a_full_parse(argv)

    @settings(max_examples=300, deadline=None)
    @given(argv=st.sampled_from(sorted(_build_parser().commands)).flatmap(
        lambda name: st.lists(
            st.sampled_from(sorted(_build_parser().commands[name]._option_string_actions)
                            + ARGV_VALUES),
            max_size=8,
        ).map(lambda rest: [name, *rest])))
    def test_dispatch_matches_a_full_parse_on_mixed_argvs(self, argv):
        check_dispatch_matches_a_full_parse(argv)

    def test_plain_argvs_need_no_argparse_pass(self, tmp_path, monkeypatch, capsysbinary):
        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain argv")

        outcomes = []
        for patched in (False, True):
            work = tmp_path / str(patched)
            work.mkdir()
            (work / "note.txt").write_bytes(b"meet me at the usual place at noon")
            monkeypatch.chdir(work)
            with monkeypatch.context() as patch:
                if patched:
                    patch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
                codes = [main(list(argv)) for argv in PLAIN_ARGVS]
            files = {path.name: path.read_bytes() for path in work.iterdir()}
            report = [line.split(",") for line in files.pop("attack.csv").decode().splitlines()]
            elapsed = report[0].index("elapsed_s")
            report = [row[:elapsed] + row[elapsed + 1:] for row in report]
            outcomes.append((codes, capsysbinary.readouterr(), files, report))
        assert outcomes[0][0] == [0] * len(PLAIN_ARGVS)
        assert outcomes[0] == outcomes[1]
