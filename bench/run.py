"""paddycrypt benchmark: closed-loop, single-client, single-process workloads.

    python3 bench/run.py --workload {messages,bulk,crack} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all      # each workload in its own process

The package is imported from this checkout's `src/`; without it the run
exits with code 2 and prints no result.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured on the untouched package:
setup_s (median of SETUP_REPS fresh imports + key load + warm-up),
throughput_MBps, ops_per_s, latency_p50_ms, latency_p90_ms, peak_rss_MB.
Their times are scaled to a reference machine speed (see PROBE_REF_S); the
unscaled wall-clock values are printed on a comment line.
--trace 1 reports per-layer metrics per op from the spans of a traced import
(see spans.py), which it also writes to bench/traces/<workload>.jsonl, and
the tracing overhead against an untouched import run on the same ops.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "paddycrypt"
SETUP_REPS = 5
PAIRED_SHARE = 1 / 3
# On a shared 2-vCPU VM the wall times of every workload drift together
# between speed states about 1.4x apart, over minutes.  End-to-end times are
# therefore scaled to a reference speed: a machine on which PROBE_LOOPS
# iterations of the probe loop take PROBE_REF_S.
PROBE_LOOPS = 13000
PROBE_REF_S = 1e-3

END_TO_END_UNITS = {
    "throughput_MBps": "MB/s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_MB": "MB",
    "setup_s": "s",
}

# Spans whose self time is reported as <name>.self_ms.
SELF_TIMED = (
    "bitmatrix.build_permutation", "bitmatrix.symbols_to_bits", "bitmatrix.bits_to_symbols",
    "bitmatrix.apply", "bitmatrix.unharvest",
    "pipeline.encrypt", "pipeline.decrypt", "pipeline.format", "pipeline.parse", "pipeline.parse_key",
    "ciphers.iterate_encrypt", "ciphers.iterate_decrypt",
    "cli.main", "analysis.brute_force", "analysis.caesar_lane_attack", "analysis.english_score",
)


def fresh_import():
    """Import the package from SRC with empty module state (and caches)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"error: {PACKAGE} imported from {pkg.__file__}, not {SRC}")
    return pkg


def time_op(workload, lib, item, tracer=None):
    """Prepare, run and check one op; returns (seconds, status)."""
    prepared = workload.prepare(lib, item)
    op = workload.op
    if tracer:
        op = tracer.wrap("op", op, None)  # root span of the op
        tracer.active = True
    start = time.perf_counter()
    try:
        result = op(lib, prepared)
    except lib.CipherError:
        status = "error"
    except Exception as exc:  # a crash outside the error contract still counts
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        status = "crash"
    else:
        status = None
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.active = False
    return elapsed, status or workload.check(lib, item, result)


def probe():
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(latencies, outcomes, nbytes, setup_times, scale=1.0):
    """End-to-end metrics; every time is multiplied by `scale`."""
    busy = sum(latencies) * scale
    # A failed op misses every latency limit.
    ranked = [t if s == "ok" else math.inf for t, s in zip(latencies, outcomes)]
    return {
        "throughput_MBps": nbytes / busy / 1e6,
        "ops_per_s": outcomes.count("ok") / busy,
        "latency_p50_ms": percentile(ranked, 50) * scale * 1e3,
        "latency_p90_ms": percentile(ranked, 90) * scale * 1e3,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times) * scale,
    }


def per_layer(tracer, n_ops, cache_before, cache_after, overhead):
    records = tracer.spans
    by_name = {}
    for record in records:
        by_name.setdefault(record[spans.NAME], []).append(record)

    def total(name, field):
        return sum(r[field] for r in by_name.get(name, ()))

    metrics = {f"{name}.self_ms": (total(name, spans.SELF) * 1e3 / n_ops, "ms/op") for name in SELF_TIMED}
    grid = by_name.get("analysis.brute_force", ())
    grid_ids = {r[spans.ID] for r in grid}
    candidates = total("analysis.brute_force", spans.COUNT)
    grid_seconds = sum(r[spans.END] - r[spans.START] for r in grid)
    scored = sum(1 for r in by_name.get("analysis.english_score", ()) if r[spans.PARENT] in grid_ids)
    metrics.update({
        "bitmatrix.build_permutation.calls": (len(by_name.get("bitmatrix.build_permutation", ())) / n_ops, "count/op"),
        "pipeline.plaintext_bytes": (total("pipeline.encrypt", spans.COUNT) / n_ops, "B/op"),
        "pipeline.ciphertext_chars": (total("pipeline.format", spans.COUNT) / n_ops, "chars/op"),
        "ciphers.symbols": ((total("ciphers.iterate_encrypt", spans.COUNT)
                             + total("ciphers.iterate_decrypt", spans.COUNT)) / n_ops, "count/op"),
        "cli.main.calls": (len(by_name.get("cli.main", ())) / n_ops, "count/op"),
        "analysis.brute_force.candidates": (candidates / n_ops, "count/op"),
        "analysis.brute_force.candidates_per_s": (candidates / grid_seconds if grid_seconds else 0.0, "1/s"),
        "analysis.agree_ratio": (scored / candidates if candidates else 0.0, "ratio"),
        "analysis.english_score.calls": (len(by_name.get("analysis.english_score", ())) / n_ops, "count/op"),
        "trace.op_ms": ((total("op", spans.END) - total("op", spans.START)) * 1e3 / n_ops, "ms/op"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    # Absent, not an error, once the permutation cache is gone.
    if cache_before is not None:
        hits = cache_after.hits - cache_before.hits
        lookups = hits + cache_after.misses - cache_before.misses
        metrics["bitmatrix.perm_cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
        metrics["bitmatrix.perm_cache.size"] = (cache_after.currsize, "count")
    return metrics


def cache_info(originals):
    info = getattr(originals["bitmatrix.build_permutation"], "cache_info", None)
    return info() if info else None


def run_workload(name, seed, seconds, trace):
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        workload = WORKLOADS[name](seed, workdir, seconds)
        return (run_traced if trace else run_untraced)(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Tally:
    """Outcome of each distinct input.  An input of a workload's pool that is
    timed again must give the outcome it gave first; if not, the run is
    incorrect."""

    def __init__(self, workload):
        self.pool = workload.pool
        self.first = {}
        self.consistent = True

    def add(self, index, status):
        key = index % self.pool if self.pool else index
        self.consistent &= self.first.setdefault(key, status) == status

    def done(self, index):
        """True once every input of the pool has been attempted."""
        return not self.pool or index + 1 >= self.pool


def result_line(tally, metrics):
    outcomes = tally.first.values()
    return {
        "correct": tally.consistent and all(s in ("ok", "miss") for s in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for s in outcomes if s != "ok"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_untraced(workload, seconds):
    setup_times = []
    for _ in range(SETUP_REPS):
        lib = None  # let fresh_import collect the previous package and its caches
        start = time.perf_counter()
        lib = fresh_import()
        workload.setup(lib)
        setup_times.append(time.perf_counter() - start)
    gc.collect()
    latencies, outcomes, probes, nbytes = [], [], [], 0
    tally = Tally(workload)
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(workload.items()):
        probes.append(probe())
        elapsed, status = time_op(workload, lib, item)
        latencies.append(elapsed)
        outcomes.append(status)
        tally.add(index, status)
        nbytes += len(item[0]) if status == "ok" else 0
        if time.perf_counter() >= deadline and tally.done(index):
            break
    probe_s = statistics.median(probes)
    raw = end_to_end(latencies, outcomes, nbytes, setup_times)
    print(f"# wall-clock (unscaled): probe = {probe_s * 1e3:.4f} ms, "
          + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    values = end_to_end(latencies, outcomes, nbytes, setup_times, PROBE_REF_S / probe_s)
    return result_line(tally, {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


def run_traced(workload, seconds):
    """Traced run.  For the first PAIRED_SHARE of the time each op also runs on
    an untouched import, in alternating order, so both sides see the same
    inputs, cache history and machine load; then the untouched import and its
    caches are dropped, so memory stays near that of an untraced run."""
    plain_lib = fresh_import()
    workload.setup(plain_lib)
    traced_lib = fresh_import()
    workload.setup(traced_lib)
    tracer = spans.Tracer()
    originals = spans.install(tracer)
    before = cache_info(originals)
    gc.collect()
    plain, traced = [], []
    tally = Tally(workload)
    start = time.perf_counter()
    for index, item in enumerate(workload.items()):
        tracer.op = index
        sides = [(traced_lib, tracer, traced)]
        if plain_lib is not None:
            sides.insert(index % 2, (plain_lib, None, plain))
        for lib, side_tracer, latencies in sides:
            elapsed, status = time_op(workload, lib, item, side_tracer)
            latencies.append(elapsed)
            tally.add(index, status)
        now = time.perf_counter() - start
        if now >= seconds and tally.done(index):
            break
        if plain_lib is not None and now >= PAIRED_SHARE * seconds:
            plain_lib = None
            gc.collect()
    overhead = sum(traced[:len(plain)]) / sum(plain)
    metrics = per_layer(tracer, len(traced), before, cache_info(originals), overhead)
    (BENCH / "traces").mkdir(exist_ok=True)
    tracer.write(BENCH / "traces" / f"{workload.name}.jsonl")
    return result_line(tally, metrics)


def report(name, result):
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {name}: attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f} "
          f"correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"#   {key} = {metric['value']:.6g} {metric['unit']}")


def run_all(args):
    """Each workload in a fresh interpreter, so caches, heap and peak RSS stay apart."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
