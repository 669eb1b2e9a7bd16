"""End-to-end tests of the command-line front-end."""

import io
import os
import stat
import sys
import threading
from pathlib import Path

import pytest

from paddycrypt.cli import _build_parser, main
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
