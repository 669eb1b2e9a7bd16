"""The three benchmark workloads: inputs from the seed, the timed op, the check.

A workload's `items()` yields the same inputs for the same seed.  Inputs come
in rounds whose lengths are stratified and rescaled to a fixed byte total, so
the mix of sizes (and the bytes per run) barely moves between seeds.
`prepare` turns an item into what the program reads (files, ciphertexts)
outside the timed region; `op` is the timed call into the program; `check`
verifies the output after the clock has stopped.

Check outcomes: "ok"; "miss" when an attack returned a plaintext the scorer
ranks at least as high as the true one (the known english_score decoy
defect, counted as failed but not as incorrect); "wrong" for any other
wrong output, which also makes the run incorrect.

`pool` is None when every op gets a fresh input.  Otherwise `items()` cycles
a fixed list of `pool` inputs, the run always attempts each of them at least
once, and the result counts each input once: so `attempted` and `failed` are
the same for the same seed and run length, however fast the machine is.
"""

from __future__ import annotations

import itertools
import math
import os
import random

MESSAGE_MIN, MESSAGE_MAX = 16, 16 * 1024
MESSAGE_STRATA = 64
BULK_CHUNK = 32 * 1024
SENTENCE_MIN, SENTENCE_MAX = 24, 96
SENTENCE_STRATA = 12
BYTE_CAP = 16      # the CLI's default crack caps
LETTERS_CAP = 25   # the whole letters keyspace
KEYS_PER_MODE = 4
# crack: one round of SENTENCE_STRATA inputs in the pool per this many seconds
# of run, so a first pass fills about half a run on a 2-vCPU VM.
CRACK_SECONDS_PER_ROUND = 5

WORDS = (
    "the of and to in is was that for it with as his on be at by had are "
    "but from or have an they which one you were all her she there would "
    "their we him been has when who will no more if out so up said what its "
    "about than into them can only other time new some could these two may "
    "first then do any like my now over such our man me even most made after "
    "also did many before must through back years where much your way well "
    "down should because each just those people how too little state good "
    "very make world still own see men work long get here between both life "
    "being under never day same another know while last might us great old "
    "year off come since against go came right used take three field rice "
    "water river harvest planting village morning evening letter message "
    "secret garden window mountain summer winter house market bridge"
).split()

UNITS = {256: [m for m in range(1, 256) if m % 2], 26: [m for m in range(1, 26) if math.gcd(m, 26) == 1]}


def stratified_lengths(rng: random.Random, strata: int, lo: int, hi: int, log: bool) -> list[int]:
    """One length per stratum of [lo, hi] (log- or linearly spaced), rescaled
    so that every round sums to the same total as the strata midpoints."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    point = (lambda x: math.exp(x)) if log else (lambda x: x)
    mids = [point(a + (i + 0.5) * (b - a) / strata) for i in range(strata)]
    draws = [point(a + (i + rng.random()) * (b - a) / strata) for i in range(strata)]
    scale = sum(mids) / sum(draws)
    return [min(hi, max(lo, round(x * scale))) for x in draws]


def blocked_tags(rng: random.Random, strata: int, block: list) -> list:
    """Tags for consecutive strata: every run of len(block) strata gets each
    tag in `block` once, so the tag mix is the same at every size."""
    tags = []
    while len(tags) < strata:
        part = list(block)
        rng.shuffle(part)
        tags.extend(part)
    return tags[:strata]


def random_key(rng: random.Random, n: int, cap: int, m: int | None = None) -> tuple:
    """(m, b, k, ra, rc) with b, k <= cap; m drawn from the units of n unless given."""
    b, k = rng.randint(1, cap), rng.randint(1, cap)
    return m or rng.choice(UNITS[n]), b, k, rng.randint(1, b), rng.randint(1, k)


def _key_text(rng: random.Random, mode: str) -> str:
    n = 256 if mode == "byte" else 26
    m, b, k, ra, rc = random_key(rng, n, n - 1)
    return f"mode={mode}\nn={n}\nm={m}\nb={b}\nk={k}\nra={ra}\nrc={rc}\n"


def _letters(rng: random.Random, length: int) -> bytes:
    return bytes(rng.choice(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
                 for _ in range(length))


def _sentence(rng: random.Random, length: int, letters_only: bool) -> bytes:
    words = []
    while sum(len(w) + 1 for w in words) <= length:
        words.append(rng.choice(WORDS))
    if letters_only:
        return "".join(words)[:length].upper().encode()
    text = " ".join(words)
    return (text[0].upper() + text[1:length - 1] + ".").encode()


class Messages:
    """CLI encrypt then decrypt on temp files, lengths log-stratified 16 B..16 KB."""

    name = "messages"
    pool = None
    # (mode, format) per block of 8 strata: 1/4 letters, 3/4 byte, half hex.
    TAGS = [("letters", "bits"), ("letters", "hex")] + [("byte", "bits")] * 3 + [("byte", "hex")] * 3

    def __init__(self, seed: int, workdir: str, seconds: float) -> None:
        self.seed = seed
        self.workdir = workdir
        self.paths = {name: os.path.join(workdir, name) for name in ("pt.bin", "ct.txt", "out.bin")}
        rng = random.Random(f"{seed}:messages:keys")
        self.key_paths = {}
        for mode in ("byte", "letters"):
            for i in range(KEYS_PER_MODE):
                path = os.path.join(workdir, f"{mode}-{i}.key")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_key_text(rng, mode))
                self.key_paths[mode, i] = path

    def setup(self, lib) -> None:
        for path in self.key_paths.values():
            with open(path, encoding="utf-8") as fh:
                lib.parse_key(fh.read())
        # First CLI round trip: argparse and lane-table code paths.
        self.op(lib, self.prepare(lib, (b"warm-up message!", "byte", "hex", 0)))

    def items(self):
        rng = random.Random(f"{self.seed}:messages")
        while True:
            lengths = stratified_lengths(rng, MESSAGE_STRATA, MESSAGE_MIN, MESSAGE_MAX, log=True)
            tags = blocked_tags(rng, MESSAGE_STRATA, self.TAGS)
            round_ = list(zip(lengths, tags))
            rng.shuffle(round_)
            for length, (mode, fmt) in round_:
                data = _letters(rng, length) if mode == "letters" else rng.randbytes(length)
                yield data, mode, fmt, rng.randrange(KEYS_PER_MODE)

    def prepare(self, lib, item):
        data, mode, fmt, key_index = item
        with open(self.paths["pt.bin"], "wb") as fh:
            fh.write(data)
        return self.key_paths[mode, key_index], fmt

    def op(self, lib, prepared):
        key_path, fmt = prepared
        p = self.paths
        codes = (_cli(lib, ["encrypt", p["pt.bin"], "--key", key_path, "--format", fmt, "-o", p["ct.txt"]]),
                 _cli(lib, ["decrypt", p["ct.txt"], "--key", key_path, "-o", p["out.bin"]]))
        return codes

    def check(self, lib, item, result):
        data, mode = item[0], item[1]
        if result != (0, 0):
            return "error"
        with open(self.paths["out.bin"], "rb") as fh:
            out = fh.read()
        expected = data.upper() if mode == "letters" else data
        return "ok" if out == expected else "wrong"


def _cli(lib, argv) -> int:
    try:
        return lib.cli.main(argv)
    except SystemExit as exc:  # argparse usage error
        return exc.code if isinstance(exc.code, int) else 2


class Bulk:
    """encrypt -> hex -> parse -> decrypt on same-length random byte chunks."""

    name = "bulk"
    pool = None

    def __init__(self, seed: int, workdir: str, seconds: float) -> None:
        self.seed = seed
        rng = random.Random(f"{seed}:bulk:keys")
        self.key_texts = [_key_text(rng, "byte") for _ in range(KEYS_PER_MODE)]

    def setup(self, lib) -> None:
        keys = [lib.parse_key(text) for text in self.key_texts]
        # First round trip at the chunk length builds the cached permutation.
        warm = random.Random(f"{self.seed}:bulk:warm").randbytes(BULK_CHUNK)
        self.op(lib, (warm, keys[0]))

    def items(self):
        rng = random.Random(f"{self.seed}:bulk")
        while True:
            yield rng.randbytes(BULK_CHUNK), rng.randrange(KEYS_PER_MODE)

    def prepare(self, lib, item):
        return item[0], lib.parse_key(self.key_texts[item[1]])

    def op(self, lib, prepared):
        data, key = prepared
        text = lib.format_ciphertext(lib.encrypt(data, key), "hex")
        return lib.decrypt(lib.parse_ciphertext(text), key)

    def check(self, lib, item, result):
        return "ok" if result == item[0] else "wrong"


class Crack:
    """brute_force then caesar_lane_attack on intercepted English sentences."""

    name = "crack"
    MODES = ["byte", "byte", "letters"]

    def __init__(self, seed: int, workdir: str, seconds: float) -> None:
        self.seed = seed
        self.rounds = max(1, round(seconds / CRACK_SECONDS_PER_ROUND))
        self.pool = self.rounds * SENTENCE_STRATA

    def setup(self, lib) -> None:
        warm = (b"Warm up the grid search on one sentence.", "byte", (3, 5, 7, 2, 4))
        self.op(lib, self.prepare(lib, warm))

    def items(self):
        rng = random.Random(f"{self.seed}:crack")
        shapes = []
        for _ in range(self.rounds):
            lengths = stratified_lengths(rng, SENTENCE_STRATA, SENTENCE_MIN, SENTENCE_MAX, log=False)
            modes = blocked_tags(rng, SENTENCE_STRATA, self.MODES)
            round_ = list(zip(lengths, modes))
            rng.shuffle(round_)
            shapes.extend(round_)
        # The attack's cost depends on the key's multiplier (m = 1 lets the
        # most candidates agree), so each mode's pool gets the units of n in
        # blocks, the same mix for every seed.
        multipliers = {}
        for mode, n in (("byte", 256), ("letters", 26)):
            count = sum(1 for _, tag in shapes if tag == mode)
            multipliers[mode] = iter(blocked_tags(rng, count, UNITS[n]))
        pool = []
        for length, mode in shapes:
            n, cap = (256, BYTE_CAP) if mode == "byte" else (26, LETTERS_CAP)
            key = random_key(rng, n, cap, next(multipliers[mode]))
            pool.append((_sentence(rng, length, mode == "letters"), mode, key))
        return itertools.cycle(pool)

    def prepare(self, lib, item):
        plaintext, mode, (m, b, k, ra, rc) = item
        n = 256 if mode == "byte" else 26
        key = lib.CipherParams(n=n, m=m, b=b, k=k, ra=ra, rc=rc)
        return lib.encrypt(plaintext, key), mode

    def op(self, lib, prepared):
        ciphertext, mode = prepared
        cap = BYTE_CAP if mode == "byte" else LETTERS_CAP
        scorer = lib.analysis.english_score
        grid = lib.analysis.brute_force(ciphertext, scorer, mode=mode, cap_b=cap, cap_k=cap)
        lane = lib.analysis.caesar_lane_attack(ciphertext, scorer, mode=mode)
        return ciphertext, grid, lane

    def check(self, lib, item, result):
        original = item[0]
        ciphertext, grid, lane = result
        if lib.decrypt(ciphertext, grid.recovered_key) != grid.plaintext:
            return "wrong"
        truth = lib.analysis.english_score(original)
        status = "ok"
        for attack in (grid, lane):
            if attack.plaintext != original:
                if attack.score < truth:
                    return "wrong"
                status = "miss"
        return status


WORKLOADS = {w.name: w for w in (Messages, Bulk, Crack)}
