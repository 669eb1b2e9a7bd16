"""In-memory span tracer installed from the benchmark, never from the package.

`install` replaces each public function named in `TARGETS` with a wrapper in
every paddycrypt namespace that binds it by name (the package, the defining
module and any module that imported it), so a call is traced whichever name
it reaches.  Spans nest on one thread: each records its parent, and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name, counter).  The counter maps (args, result)
# to a work count stored on the span; None means no count.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("pipeline", "encrypt", "pipeline.encrypt", lambda a, r: len(a[0])),
    ("pipeline", "decrypt", "pipeline.decrypt", None),
    ("pipeline", "format_ciphertext", "pipeline.format", lambda a, r: len(r)),
    ("pipeline", "parse_ciphertext", "pipeline.parse", None),
    ("pipeline", "parse_key", "pipeline.parse_key", None),
    ("ciphers", "iterate_encrypt", "ciphers.iterate_encrypt", lambda a, r: len(r)),
    ("ciphers", "iterate_decrypt", "ciphers.iterate_decrypt", lambda a, r: len(r)),
    ("bitmatrix", "build_permutation", "bitmatrix.build_permutation", None),
    ("bitmatrix", "symbols_to_bits", "bitmatrix.symbols_to_bits", None),
    ("bitmatrix", "bits_to_symbols", "bitmatrix.bits_to_symbols", None),
    ("bitmatrix", "unharvest", "bitmatrix.unharvest", None),
    ("bitmatrix", "PermutationMap.apply", "bitmatrix.apply", None),
    ("analysis", "brute_force", "analysis.brute_force", lambda a, r: r.candidates_tried),
    ("analysis", "caesar_lane_attack", "analysis.caesar_lane_attack", None),
    ("analysis", "english_score", "analysis.english_score", None),
)

# Span record fields, in order.
ID, PARENT, NAME, START, END, SELF, COUNT, OP = range(8)


class Tracer:
    """Collects spans while `active`; inactive wrappers call straight through."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[list] = []  # open spans: [record, child time]

    def wrap(self, name: str, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0][ID] if stack else None
            record = [len(tracer.spans), parent, name, 0.0, 0.0, 0.0, None, tracer.op]
            tracer.spans.append(record)
            frame = [record, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                record[START], record[END] = start, end
                record[SELF] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                record[COUNT] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """One JSON object per span; times in ns from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "name": s[NAME], "op": s[OP],
                    "start_ns": round((s[START] - origin) * 1e9),
                    "end_ns": round((s[END] - origin) * 1e9),
                    "self_ns": round(s[SELF] * 1e9), "count": s[COUNT],
                }) + "\n")


def install(tracer: Tracer, package: str = "paddycrypt") -> dict:
    """Wrap every target in every loaded namespace of `package`.

    Returns {span name: unwrapped function} so callers can read state such
    as the permutation cache from the original object.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    originals = {}
    for module_name, attr, span_name, counter in TARGETS:
        owner = sys.modules[f"{package}.{module_name}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(span_name, orig, counter))
        else:
            orig = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, orig, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapped)
        originals[span_name] = orig
    return originals
