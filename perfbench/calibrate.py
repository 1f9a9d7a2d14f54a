"""How fast the machine runs, sampled on the benchmark's own CPU while jobs run.

On a shared host the speed of a core changes from one tenth of a second to
the next, and its average changes from one minute to the next, by a quarter
or more (the core is shared with other tenants' work; the two cores move
independently).  A job's wall time then says as much about the neighbours
as about grasscode.

``Sampler`` times small fixed kernels every ``INTERVAL_S`` from a SIGALRM
handler, so each sample runs in the benchmark's main thread, on the core
the job is using, at that moment.  The kernels use no grasscode code, so a
change to the program cannot move them.  There are three, one per kind of
work the jobs do, because contention slows each kind by a different
factor:

* ``scalar``: interpreter-bound loops (polynomial products over GF(p),
  tuple and dict traffic), as in the flag oracle and the q > 256 field path;
* ``small_arrays``: cache-resident numpy integer work (batched determinants,
  a matrix product mod p), as in ``det_batched`` on small batches;
* ``large_arrays``: numpy work on fresh multi-page temporaries (a table
  gather, a float matrix product), as in ``GF.matmul`` in the code scans.

A part that takes ``c`` seconds per call ran at ``nominal / c`` of its
nominal speed.  A workload weights the parts after the work its jobs do
(``Workload.speed_mix``).  A job's normalized time is its wall time, less
the time spent in the handler, times the mean speed over the samples taken
during it: the time it would have taken at nominal speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05  # time between samples

P = 251
_RNG = np.random.default_rng(20160600)
_MATS = _RNG.integers(0, P, size=(2_000, 3, 3), dtype=np.int64)
_LEFT = _RNG.integers(0, 7, size=(100, 10), dtype=np.int64)
_RIGHT = _RNG.integers(0, 7, size=(10, 64), dtype=np.int64)
_POLYS = [tuple(int(c) for c in _RNG.integers(0, 17, size=4)) for _ in range(40)]
_TABLE = _RNG.integers(0, 64, size=(64, 64), dtype=np.int64)
_ROWS = _RNG.integers(0, 64, size=2**15, dtype=np.int64)
_COLS = _RNG.integers(0, 64, size=2**15, dtype=np.int64)
_TALL = _RNG.integers(0, 5, size=(1024, 10)).astype(np.float64)
_WIDE = _RNG.integers(0, 5, size=(10, 64)).astype(np.float64)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def scalar() -> int:
    """Interpreter-bound: polynomial products over GF(17), tuples, a dict."""
    seen: dict[tuple, int] = {}
    for i, a in enumerate(_POLYS):
        for b in _POLYS[i : i + 6]:
            prod = _poly_mul(a, b, 17)
            seen[prod] = seen.get(prod, 0) + 1
    return len(seen)


def small_arrays() -> int:
    """Cache-resident numpy: batched 3x3 determinants, an int matmul mod p."""
    m = _MATS
    det = (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    ) % P
    prod = (_LEFT @ _RIGHT) % 7
    return int(np.count_nonzero(det)) + int(np.count_nonzero(prod))


def large_arrays() -> int:
    """Fresh multi-page numpy temporaries: a table gather, a float matmul."""
    gathered = _TABLE[_ROWS, _COLS] % 7
    prod = np.rint(_TALL @ _WIDE).astype(np.int64) % 5
    return int(np.count_nonzero(gathered)) + int(np.count_nonzero(prod.any(axis=1)))


# each part and the time per call that defines its nominal speed
PARTS = {
    "scalar": (scalar, 0.0008),
    "small_arrays": (small_arrays, 0.00016),
    "large_arrays": (large_arrays, 0.0015),
}


class Sampler:
    """Machine speed, sampled every ``INTERVAL_S`` while started.

    ``mix`` maps part names to weights that sum to 1: a sample's speed is
    the weighted mean of each part's nominal time over its measured time.
    """

    def __init__(self, mix: dict[str, float]):
        self.parts = [(*PARTS[name], weight) for name, weight in mix.items()]
        self.expected = [part() for part, _, _ in self.parts]
        self.samples: list[float] = []  # speed of each sample, in time order
        self.handler_s = 0.0  # wall time spent inside the handler
        self.bad = 0  # part calls whose result was wrong

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        speed = 0.0
        for (part, nominal, weight), expected in zip(self.parts, self.expected):
            begin = time.perf_counter()
            result = part()
            speed += weight * nominal / (time.perf_counter() - begin)
            self.bad += result != expected
        self.samples.append(speed)
        self.handler_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """Clock, handler time and sample count now; two marks bound an interval."""
        return time.perf_counter(), self.handler_s, len(self.samples)

    def normalized(self, begin, end) -> float:
        """Seconds the interval between two marks would take at nominal speed."""
        elapsed = (end[0] - begin[0]) - (end[1] - begin[1])
        samples = self.samples[begin[2] : end[2]]
        if not samples:  # shorter than the interval: the nearest samples
            samples = self.samples[max(begin[2] - 1, 0) : end[2] + 1]
        return elapsed * sum(samples) / len(samples)
