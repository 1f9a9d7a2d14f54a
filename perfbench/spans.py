"""Spans and counters around grasscode's public functions, for the traced run.

Each wrapper is installed where callers look the name up (a class
attribute such as ``GF.matmul``, or a module global such as
``grassmann.det_batched``), so the library itself is not modified.  Two
kinds of record are kept in memory:

* spans ``(name, start, end, parent, run_id, job)`` around stage-level
  calls, from which self time is computed, and
* tallies ``name -> [calls, seconds]`` for hot leaf calls (``mul_arr``,
  ``Mat.rank`` and the flag oracle run up to millions of times per job,
  and a span record for each would dominate the run).

Counters count work, never time, and must be identical on every pass.
"""

from __future__ import annotations

import inspect
import json
import math
import threading
import time
from collections import defaultdict

import numpy as np

TABLE_LIMIT = 256  # field orders above this are the "poly" class


def field_class(field) -> str:
    if field.e == 1:
        return "prime"
    if field.q > TABLE_LIMIT:
        return "poly"
    return "char2" if field.p == 2 else "table"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.enumerations: list[tuple] = []  # (spec, q, points) per enumerate call
        self.missing: set[str] = set()  # hooks whose counters cannot be read
        self.run_id = 0
        self.job = ""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # a pool thread's first span hangs under the call that is waiting on it
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = [name, time.perf_counter(), None, parent, self.run_id, self.job]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(record)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def tally(self, name: str, seconds: float) -> None:
        with self._lock:
            entry = self.tallies[name]
            entry[0] += 1
            entry[1] += seconds

    def take_job(self) -> tuple[dict, dict, list]:
        """Counters, tallies and enumerations since the last call, then reset."""
        with self._lock:
            out = (dict(self.counts), {k: list(v) for k, v in self.tallies.items()}, self.enumerations)
            self.counts.clear()
            self.tallies.clear()
            self.enumerations = []
        return out

    # -- wrappers ---------------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.add(f"{owner.__name__}.{attr}")
            return
        wrapper = make(orig)
        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def spanned(self, owner, attr: str, name, after=None):
        """Span around each call.

        ``name`` is a string or a function of the call's arguments, and
        ``after(args, result)`` counts the work; both see the arguments
        bound to parameter names.
        """

        hook = f"{owner.__name__}.{attr}"

        def make(fn):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = None
                if callable(name) or after:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound = bound.arguments
                idx = self.open(name(bound) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if after:
                    try:
                        after(bound, result)
                    except (KeyError, AttributeError, TypeError):
                        # the function's signature or result changed: its counters
                        # are unavailable, and their checks are skipped
                        self.missing.add(hook)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def tallied(self, owner, attr: str, name: str, outermost: bool = False):
        """Calls and seconds of a hot leaf; with ``outermost``, nested calls are not counted."""

        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.tally(name, time.perf_counter() - start)

            if not outermost:
                return wrapper
            local = threading.local()

            def outer(*args, **kwargs):
                if getattr(local, "busy", False):
                    return fn(*args, **kwargs)
                local.busy = True
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    local.busy = False

            return outer

        self._patch(owner, attr, make)

    def counted(self, owner, attr: str, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def cells(self, owner, attr: str):
        """Span per batch of the cell generator: its self time excludes the consumer."""

        def make(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.open("grassmann.cells")
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    self.count("grassmann.cells.batches")
                    self.count("grassmann.cells.candidates", len(item[1]))
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    def install(self) -> None:
        from grasscode import bounds, cli, codes, field, grassmann, linalg, sections
        from grasscode.indices import gaussian_binomial

        GF, Mat = field.GF, linalg.Mat

        def matmul_after(args, result):
            r, k = np.shape(args["A"])[-2:]
            self.count("field.matmul.macs", math.prod(result.shape[:-2]) * r * k * result.shape[-1])

        self.spanned(GF, "matmul", lambda a: f"field.matmul.{field_class(a['self'])}", matmul_after)
        self.spanned(GF, "__init__", "field.init")
        self.tallied(GF, "mul_arr", "field.mul_arr")
        self.tallied(GF, "add_arr", "field.add_arr")

        def dets(args, result):
            self.count("linalg.det_batched.dets", len(args["bases"]))

        # only the caller's name is wrapped, so recursive calls are not counted
        self.spanned(grassmann, "det_batched", "linalg.det_batched", dets)
        self.counted(Mat, "__init__", "linalg.mat.calls")
        for method in ("rref", "rank", "rref_basis", "left_kernel", "right_kernel"):
            self.tallied(Mat, method, "linalg.rref", outermost=True)

        self.cells(sections, "iter_grassmann_cells")
        self.spanned(grassmann.ProjSystem, "validate", "grassmann.validate")

        def enumerated(args, result):
            spec = args["spec"]
            self.enumerations.append((spec, args["field"].q, len(result.points)))

        for module in (cli, bounds):
            self.spanned(module, "enumerate_variety", lambda a: f"sections.enumerate.{a['spec'].kind}", enumerated)
        self.tallied(sections, "schubert_member_flag", "sections.schubert_flag")
        self.spanned(bounds, "verify_ffn", "sections.verify_ffn")
        self.spanned(bounds, "linear_hull", "sections.linear_hull")

        def subcodes(args, result):
            c = args["code"]
            self.count("codes.subcodes", gaussian_binomial(c.k, args["r"], c.field.q))

        def codewords(args, result):
            if args.get("method", "codewords") == "codewords":
                c = args["code"]
                self.count("codes.codewords", c.field.q**c.k)

        for module in (codes, bounds):
            self.spanned(module, "higher_weight", lambda a: f"codes.higher_weight.r{a['r']}", subcodes)
            self.spanned(module, "min_distance", "codes.min_distance", codewords)
        self.spanned(codes, "weight_enumerator", "codes.weight_enumerator", codewords)
        for module in (cli, bounds):
            self.spanned(module, "build_code", "codes.build_code")
        self.spanned(cli, "write_code_file", "codes.file_io")
        self.spanned(cli, "read_code_file", "codes.file_io")

        def claims(args, result):
            self.count("bounds.claims", len(result))
            self.count("bounds.claims_unevaluated", sum(rep.holds is None for rep in result))

        self.spanned(cli, "run_suite", "bounds.run_suite", claims)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, run_id, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, "job": job}) + "\n")


# -- self time ---------------------------------------------------------------


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_times(spans, run_id: int) -> tuple[dict, dict, dict]:
    """Inclusive seconds, self seconds and call count per span name, for one pass."""
    children = defaultdict(list)
    for record in spans:
        if record[3] is not None:
            children[record[3]].append((record[1], record[2]))
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for idx, (name, start, end, _, run, _) in enumerate(spans):
        if run != run_id:
            continue
        total[name] += end - start
        own[name] += end - start - _covered(start, end, children.get(idx, ()))
        calls[name] += 1
    return total, own, calls
