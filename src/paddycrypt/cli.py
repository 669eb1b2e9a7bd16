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
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


def _read_input(args, stdin_default: bool = False) -> bytes:
    """The payload: --text, else the INPUT path, else stdin if stdin_default.
    main has checked that they are not both given."""
    text = getattr(args, "text", None)
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


def _write(path, data: bytes) -> None:
    """Write data to stdout (path None) or make it the contents of path.

    A regular file is written over in place and then cut to its new length
    if it was longer.  Truncating it to zero on open instead would make ext4
    (auto_da_alloc) start writing it out to disk when it is closed, which
    takes about 0.1 ms a write, more when the disk is busy.
    """
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_encrypt(args) -> None:
    key = _load_key(args)
    ciphertext = pipeline.encrypt(_read_input(args), key)
    _write(args.output, pipeline.format_ciphertext(ciphertext, args.format).encode())


def _cmd_decrypt(args) -> None:
    key = _load_key(args)
    _write(args.output, pipeline.decrypt(_read_ciphertext(args), key))


def _cmd_keygen(args) -> None:
    key = pipeline.keygen(mode=args.mode, seed=args.seed)
    _write(args.output, pipeline.serialize_key(key).encode())


_SCORERS = {"english": analysis.english_score, "printable": analysis.printable_ratio}


def _cmd_crack(args) -> None:
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


def _cmd_avalanche(args) -> None:
    key = _load_key(args)
    reports = analysis.avalanche(_read_input(args), key)
    _write(args.output, analysis.avalanche_csv(reports).encode())


def _cmd_freq(args) -> None:
    data = _read_ciphertext(args) if args.bits else _read_input(args)
    _write(args.output, analysis.frequency_csv(analysis.frequency_profile(data)).encode())


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  Its commands attribute maps each command name to
    that command's subparser."""
    parser = argparse.ArgumentParser(
        prog="paddycrypt",
        description="Dual-lane affine/caesar cipher with a rice-paddy bit "
                    "transposition, plus cryptanalysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add_command(name: str, func, help: str) -> argparse.ArgumentParser:
        parser.commands[name] = command = sub.add_parser(name, help=help)
        command.set_defaults(func=func)
        return command

    enc = add_command("encrypt", _cmd_encrypt, "encrypt a file or inline text")
    _add_input_args(enc, "plaintext")
    enc.add_argument("--key", required=True, metavar="PATH", help="key file")
    enc.add_argument("--format", choices=("bits", "hex"), default="bits",
                     help="ciphertext encoding (default bits)")

    dec = add_command("decrypt", _cmd_decrypt, "decrypt a ciphertext file")
    dec.add_argument("input", nargs="?", metavar="INPUT",
                     help="ciphertext path, or - for stdin")
    dec.add_argument("--key", required=True, metavar="PATH", help="key file")

    gen = add_command("keygen", _cmd_keygen, "generate a random key file")
    gen.add_argument("--mode", choices=tuple(ciphers.ALPHABET_SIZES), default="byte")
    gen.add_argument("--seed", type=int, help="seed for reproducible keys")

    crk = add_command("crack", _cmd_crack, "recover key or plaintext from a ciphertext")
    crk.add_argument("input", nargs="?", metavar="INPUT",
                     help="ciphertext path, or - for stdin")
    crk.add_argument("--method", choices=("grid", "caesar-lane"), default="grid",
                     help="grid: full key search (writes a key file); "
                          "caesar-lane: <=n shift trials (writes plaintext)")
    crk.add_argument("--mode", choices=tuple(ciphers.ALPHABET_SIZES), default="byte")
    crk.add_argument("--cap-b", type=int, default=16, help="largest b tried (grid)")
    crk.add_argument("--cap-k", type=int, default=16, help="largest k tried (grid)")
    crk.add_argument("--scorer", choices=sorted(_SCORERS), default="english")
    crk.add_argument("--min-score", type=float)
    crk.add_argument("--report", metavar="PATH", help="write a CSV attack report")
    crk.add_argument("--plaintext-out", metavar="PATH",
                     help="also write the recovered plaintext")

    ava = add_command("avalanche", _cmd_avalanche, "per-bit diffusion report (CSV)")
    _add_input_args(ava, "plaintext")
    ava.add_argument("--key", required=True, metavar="PATH", help="key file")

    frq = add_command("freq", _cmd_freq, "value histogram of a file (CSV)")
    _add_input_args(frq, "data")
    frq.add_argument("--bits", action="store_true",
                     help="input is ciphertext; profile its bit balance")

    for command in parser.commands.values():  # last, as in every command's help
        command.add_argument("-o", "--output", metavar="PATH")
    return parser


def _plain_parse(command: argparse.ArgumentParser, argv):
    """The namespace parse_args gives for argv, a command name and then
    that command's plain arguments, read straight from the command's own
    actions; or None when argv is not plain.

    Plain means every argument is the exact option string of a one-value
    store action followed by its value, a store_true flag, or the one bare
    token that fills the command's positional INPUT; no value or bare token
    starts with "-" except "-" itself, which argparse also reads as a value.
    A value its type or choices reject, or a required option left out, also
    gives None, so that argparse words the usage error.
    """
    seen = {}
    tokens = iter(argv[1:])
    for token in tokens:
        action = command._option_string_actions.get(token)
        if type(action) is argparse._StoreTrueAction:
            seen[action] = True
            continue
        if action is None:  # a bare token, or an option argparse must read
            action = next((a for a in command._actions if not a.option_strings), None)
            if action is None or action.nargs != "?" or action in seen:
                return None
        elif type(action) is argparse._StoreAction and action.nargs is None:
            token = next(tokens, "--")  # a missing value is not plain
        else:  # help, or an action that takes other than one value
            return None
        if token[:1] == "-" and token != "-":
            return None
        try:
            value = action.type(token) if action.type else token
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        seen[action] = value
    args = argparse.Namespace(command=argv[0])
    for action in command._actions:
        if action in seen:
            setattr(args, action.dest, seen[action])
        elif action.required:
            return None
        elif action.default is not argparse.SUPPRESS:  # all but help
            setattr(args, action.dest, action.default)
    for name, value in command._defaults.items():  # func, read on every call
        setattr(args, name, value)
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _plain_parse(command, argv)
    if args is None:  # argparse reads the rest and words every usage error
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
        # Before any command opens a file, so a bad key path cannot hide it.
        if getattr(args, "text", None) is not None and args.input is not None:
            raise CipherError("give either an input path or --text, not both")
        args.func(args)
    except (CipherError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
