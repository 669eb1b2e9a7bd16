"""Command-line front-end.

Every input and output is bytes: key and ciphertext text is decoded where
it is read, and text output is encoded where it is written.  Payload
(ciphertext, plaintext, keys, CSV reports) goes to the output path or
stdout; diagnostics go to stderr.  Exit codes: 0 success, 1 runtime
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import analysis, ciphers, pipeline
from .errors import CipherError


def _add_input_args(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument("input", nargs="?", metavar="INPUT",
                        help=f"{what} path, or - for stdin")
    parser.add_argument("--text", metavar="TEXT",
                        help=f"inline {what} instead of a path (its argv bytes)")


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _read_input(args, stdin_default: bool = False) -> bytes:
    """The payload: --text, else the INPUT path, else stdin if stdin_default."""
    text = getattr(args, "text", None)
    if text is not None and args.input is not None:
        raise CipherError("give either an input path or --text, not both")
    if text is not None:
        try:  # the exact argv bytes, even ones that are not UTF-8
            return os.fsencode(text)
        except UnicodeEncodeError as err:
            raise CipherError(f"--text cannot be encoded: {err}") from None
    if args.input is not None:
        return _read(args.input)
    if stdin_default:
        return _read("-")
    raise CipherError("no input: give a path, -, or --text")


# Undecodable bytes become U+FFFD, which the parsers reject (bar comments).
def _load_key(args) -> pipeline.CipherParams:
    return pipeline.parse_key(_read(args.key).decode("utf-8", "replace"))


def _read_ciphertext(args) -> pipeline.CipherText:
    text = _read_input(args, stdin_default=True).decode("utf-8", "replace")
    return pipeline.parse_ciphertext(text)


def _open_in_place(path, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path, data: bytes) -> None:
    """Write data to stdout (path None) or make it the contents of path.

    A regular file is written over in place and then cut to its new length.
    Truncating it to zero on open instead would make ext4 (auto_da_alloc)
    start writing it out to disk when it is closed, which takes about 0.1 ms
    a write, more when the disk is busy.
    """
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    with open(path, "wb", opener=_open_in_place) as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _cmd_encrypt(args) -> int:
    key = _load_key(args)
    ciphertext = pipeline.encrypt(_read_input(args), key)
    _write(args.output, pipeline.format_ciphertext(ciphertext, args.format).encode())
    return 0


def _cmd_decrypt(args) -> int:
    key = _load_key(args)
    _write(args.output, pipeline.decrypt(_read_ciphertext(args), key))
    return 0


def _cmd_keygen(args) -> int:
    key = pipeline.keygen(mode=args.mode, seed=args.seed)
    _write(args.output, pipeline.serialize_key(key).encode())
    return 0


_SCORERS = {"english": analysis.english_score, "printable": analysis.printable_ratio}


def _cmd_crack(args) -> int:
    ciphertext = _read_ciphertext(args)
    scorer = _SCORERS[args.scorer]
    if args.method == "grid":
        result = analysis.brute_force(
            ciphertext, scorer, mode=args.mode,
            cap_b=args.cap_b, cap_k=args.cap_k, min_score=args.min_score,
        )
        _write(args.output, pipeline.serialize_key(result.recovered_key).encode())
    else:
        result = analysis.caesar_lane_attack(
            ciphertext, scorer, mode=args.mode, min_score=args.min_score,
        )
        _write(args.output, result.plaintext)
    if args.report:
        _write(args.report, analysis.attack_csv(result).encode())
    if args.plaintext_out:
        _write(args.plaintext_out, result.plaintext)
    return 0


def _cmd_avalanche(args) -> int:
    key = _load_key(args)
    reports = analysis.avalanche(_read_input(args), key)
    _write(args.output, analysis.avalanche_csv(reports).encode())
    return 0


def _cmd_freq(args) -> int:
    data = _read_ciphertext(args) if args.bits else _read_input(args)
    _write(args.output, analysis.frequency_csv(analysis.frequency_profile(data)).encode())
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paddycrypt",
        description="Dual-lane affine/caesar cipher with a rice-paddy bit "
                    "transposition, plus cryptanalysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encrypt", help="encrypt a file or inline text")
    _add_input_args(enc, "plaintext")
    enc.add_argument("--key", required=True, metavar="PATH", help="key file")
    enc.add_argument("--format", choices=("bits", "hex"), default="bits",
                     help="ciphertext encoding (default bits)")
    enc.add_argument("-o", "--output", metavar="PATH")
    enc.set_defaults(func=_cmd_encrypt)

    dec = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    dec.add_argument("input", nargs="?", metavar="INPUT",
                     help="ciphertext path, or - for stdin")
    dec.add_argument("--key", required=True, metavar="PATH", help="key file")
    dec.add_argument("-o", "--output", metavar="PATH")
    dec.set_defaults(func=_cmd_decrypt)

    gen = sub.add_parser("keygen", help="generate a random key file")
    gen.add_argument("--mode", choices=("byte", "letters"), default="byte")
    gen.add_argument("--seed", type=int, help="seed for reproducible keys")
    gen.add_argument("-o", "--output", metavar="PATH")
    gen.set_defaults(func=_cmd_keygen)

    crk = sub.add_parser("crack", help="recover key or plaintext from a ciphertext")
    crk.add_argument("input", nargs="?", metavar="INPUT",
                     help="ciphertext path, or - for stdin")
    crk.add_argument("--method", choices=("grid", "caesar-lane"), default="grid",
                     help="grid: full key search (writes a key file); "
                          "caesar-lane: <=n shift trials (writes plaintext)")
    crk.add_argument("--mode", choices=("byte", "letters"), default="byte")
    crk.add_argument("--cap-b", type=int, default=16, help="largest b tried (grid)")
    crk.add_argument("--cap-k", type=int, default=16, help="largest k tried (grid)")
    crk.add_argument("--scorer", choices=sorted(_SCORERS), default="english")
    crk.add_argument("--min-score", type=float)
    crk.add_argument("--report", metavar="PATH", help="write a CSV attack report")
    crk.add_argument("--plaintext-out", metavar="PATH",
                     help="also write the recovered plaintext")
    crk.add_argument("-o", "--output", metavar="PATH")
    crk.set_defaults(func=_cmd_crack)

    ava = sub.add_parser("avalanche", help="per-bit diffusion report (CSV)")
    _add_input_args(ava, "plaintext")
    ava.add_argument("--key", required=True, metavar="PATH", help="key file")
    ava.add_argument("-o", "--output", metavar="PATH")
    ava.set_defaults(func=_cmd_avalanche)

    frq = sub.add_parser("freq", help="value histogram of a file (CSV)")
    _add_input_args(frq, "data")
    frq.add_argument("--bits", action="store_true",
                     help="input is ciphertext; profile its bit balance")
    frq.add_argument("-o", "--output", metavar="PATH")
    frq.set_defaults(func=_cmd_freq)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Some argparse versions turn an explicit "--text=--" into []; the
    # value given was the literal "--".
    for name, value in vars(args).items():
        if value == []:
            setattr(args, name, "--")
    if args.command == "crack":
        try:
            analysis._check_caps(ciphers.alphabet_size(args.mode), args.cap_b, args.cap_k)
        except ValueError as err:
            parser.error(str(err))
    try:
        return args.func(args)
    except (CipherError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
