"""Digest of attack outcomes, and key readbacks of the grid cracker.

Runs brute_force and caesar_lane_attack over a fixed set of ciphertexts,
scorers, caps and min_score values, and prints the number of outcomes and a
sha256 over the repr of each.  An outcome is (recovered_key, plaintext,
score, candidates_tried, keyspace, effective_shift), or (error type,
message) when the attack raises.  Two commits whose digests match return
the same attack results on this set.

The set:
- ciphertexts: the benchmark crack pools of seeds 1-10 at the default run
  length (840 sentences, their own modes and keys), plus 34 B of 'a', the
  empty message in both modes, 'AAAA' in letters mode and bytes(range(256));
- scorers: english_score, printable_ratio and a lambda around english_score
  (which takes the text path);
- grid caps: the default (16 byte, 25 letters) and small (3/5 byte, 2/5
  letters), as (cap_b, cap_k);
- min_score None, 0.5 and 0.95.

It also counts the calls to brute_force's key readback, the function
analysis._smallest_key, with sys.setprofile: over the crack pools at
default caps with english_score and with printable_ratio, and on 34 B of
'a' at byte caps 255 with english_score.  It counts the shifts scored from
counts, the calls to analysis._score_counts, the same way: over the crack
pools, brute_force at default caps and then caesar_lane_attack with
english_score on a fresh copy of each ciphertext, as a benchmark crack op
runs them.

Then it runs each attack on seed 1's pool (brute_force at default caps)
again with its own best score as min_score, where the shift search's
pre-filter must keep the answer's shift, on fresh copies through counts
(english_score) and through a wrapped scorer (texts).  It prints
"boundary min_score: <count> outcomes, same" when each pair agrees
("differ", and exit status 1, otherwise).

Last, it runs the attacks on seed 1's pool and the edge-case messages
again, cold: every cache in paddycrypt.analysis is cleared before each
attack, and each attack gets a fresh CipherText.from_packed copy of its
ciphertext, so no lanes or counts kept by an earlier attack on the same
object are read.  It prints "cold caches: <count> outcomes, same" when
every outcome equals its warm one ("differ", and exit status 1,
otherwise).  The warm pass attacks each ciphertext object many times, so
it reads what the first attack on it kept.

The package comes from PYTHONPATH, the pools from this checkout's bench/:

    PYTHONPATH=src python scripts/attack_digest.py
"""

from __future__ import annotations

import hashlib
import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import paddycrypt  # noqa: E402
from paddycrypt import CipherError, CipherParams, CipherText, analysis, encrypt  # noqa: E402
from workloads import Crack  # noqa: E402

CAPS = {"byte": [(16, 16), (3, 5)], "letters": [(25, 25), (2, 5)]}
SCORERS = [analysis.english_score, analysis.printable_ratio,
           lambda d: analysis.english_score(d)]
MIN_SCORES = [None, 0.5, 0.95]


def pool(seed):
    """The (ciphertext, mode) pairs of the benchmark crack pool of seed."""
    crack = Crack(seed, ".", 35)
    return [crack.prepare(paddycrypt, item) for item in islice(crack.items(), crack.pool)]


def edge_cases():
    """(ciphertext, mode) pairs of the edge-case messages."""
    out = []
    byte_key = CipherParams(n=256, m=3, b=5, k=7, ra=2, rc=4)
    letters_key = CipherParams(n=26, m=5, b=3, k=4, ra=2, rc=3)
    for message, key in ((b"a" * 34, byte_key), (b"", byte_key), (b"", letters_key),
                         (b"AAAA", letters_key), (bytes(range(256)), byte_key)):
        out.append((encrypt(message, key), "byte" if key.n == 256 else "letters"))
    return out


def outcome(attack, *args, **kwargs):
    try:
        r = attack(*args, **kwargs)
    except CipherError as err:  # an error is part of the outcome
        return (type(err).__name__, str(err))
    return (r.recovered_key, r.plaintext, r.score, r.candidates_tried, r.keyspace,
            r.effective_shift)


def clear_caches() -> None:
    for value in vars(analysis).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def outcomes(pairs, cold=False):
    """The repr of each outcome over pairs, in digest order; cold clears
    every cache in paddycrypt.analysis before each attack and attacks a
    fresh copy of the ciphertext."""
    for ciphertext, mode in pairs:
        for scorer in SCORERS:
            for min_score in MIN_SCORES:
                attacks = [(analysis.caesar_lane_attack, {})]
                attacks += [(analysis.brute_force, {"cap_b": cap_b, "cap_k": cap_k})
                            for cap_b, cap_k in CAPS[mode]]
                for attack, caps in attacks:
                    target = ciphertext
                    if cold:
                        clear_caches()
                        target = CipherText.from_packed(ciphertext.packed)
                    yield repr(outcome(attack, target, scorer, mode=mode,
                                       min_score=min_score, **caps))


def digest(pairs) -> tuple[int, str]:
    h, count = hashlib.sha256(), 0
    for result in outcomes(pairs):
        h.update(result.encode())
        count += 1
    return count, h.hexdigest()


def calls_to(name, run) -> int:
    """Calls to the function called name while run() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == name:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def readbacks(pairs, scorer, caps=None) -> int:
    """Calls to analysis._smallest_key over pairs at default or given caps."""
    calls = 0
    for ciphertext, mode in pairs:
        cap_b, cap_k = caps or CAPS[mode][0]
        calls += calls_to("_smallest_key", lambda: analysis.brute_force(
            ciphertext, scorer, mode=mode, cap_b=cap_b, cap_k=cap_k))
    return calls


def scored_shifts(pairs) -> int:
    """Calls to analysis._score_counts over pairs when brute_force at
    default caps and then caesar_lane_attack, both with english_score, run
    on a fresh copy of each ciphertext, as a benchmark crack op runs them."""
    calls = 0
    for ciphertext, mode in pairs:
        cap_b, cap_k = CAPS[mode][0]
        target = CipherText.from_packed(ciphertext.packed)

        def both():
            analysis.brute_force(target, mode=mode, cap_b=cap_b, cap_k=cap_k)
            analysis.caesar_lane_attack(target, mode=mode)

        calls += calls_to("_score_counts", both)
    return calls


def boundary(pairs) -> tuple[int, bool]:
    """(count, same): each attack over pairs, at default caps, rerun at its
    own best score as min_score on fresh copies, through counts and through
    a wrapped scorer; same when every such pair of outcomes agrees."""
    count, same = 0, True
    for ciphertext, mode in pairs:
        cap_b, cap_k = CAPS[mode][0]
        for attack, caps in ((analysis.brute_force, {"cap_b": cap_b, "cap_k": cap_k}),
                             (analysis.caesar_lane_attack, {})):
            best = attack(CipherText.from_packed(ciphertext.packed), mode=mode, **caps).score
            counts, texts = (outcome(attack, CipherText.from_packed(ciphertext.packed), scorer,
                                     mode=mode, min_score=best, **caps)
                             for scorer in (analysis.english_score, SCORERS[2]))
            count, same = count + 1, same and counts == texts
    return count, same


def main() -> int:
    pools = [pair for seed in range(1, 11) for pair in pool(seed)]
    edges = edge_cases()
    count, hexdigest = digest(pools + edges)
    print(f"outcomes {count} sha256 {hexdigest}")
    print("readbacks, crack pools, english_score:", readbacks(pools, analysis.english_score))
    print("readbacks, crack pools, printable_ratio:", readbacks(pools, analysis.printable_ratio))
    constant = [(encrypt(b"a" * 34, CipherParams(n=256, m=3, b=5, k=7, ra=2, rc=4)), "byte")]
    print("readbacks, 34 B of 'a' at byte caps 255, english_score:",
          readbacks(constant, analysis.english_score, (255, 255)))
    print("scored shifts, crack pools, brute_force then caesar_lane_attack, english_score:",
          scored_shifts(pools))
    first = pool(1)
    count, at_edge = boundary(first)
    print(f"boundary min_score: {count} outcomes, {'same' if at_edge else 'differ'}")
    pairs = first + edges
    warm = list(outcomes(pairs))
    same = list(outcomes(pairs, cold=True)) == warm
    print(f"cold caches: {len(warm)} outcomes, {'same' if same else 'differ'}")
    return 0 if same and at_edge else 1


if __name__ == "__main__":
    sys.exit(main())
