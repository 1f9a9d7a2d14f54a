"""Job lists of the three workloads and the closed-form work each job does.

A job is one ``grasscode`` command line.  Its outputs (exit code, stdout
and every file named in ``writes``) are compared byte for byte against
``reference.json``.  Paths in the argv are relative to the run's work
directory, so stdout does not depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    writes: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]


def _job(text: str, writes: tuple[str, ...] = ()) -> Job:
    return Job(tuple(text.split()), writes)


def _build(spec: str, q: int, out: str) -> Job:
    return _job(f"build {spec} --q {q} --out {out}", (out,))


@dataclass(frozen=True)
class Workload:
    name: str
    # untimed: input files, then one warm-up job (the first job in a
    # process runs slower than later ones)
    setup: tuple[Job, ...]
    # timed, in an order shuffled by the seed on every pass
    jobs: tuple[Job, ...]
    # weights of calibrate.PARTS in the machine speed, after the kind of
    # work the jobs do: the speed of that work is what moves their times
    speed_mix: dict[str, float]


# interpreter loops and cache-resident arrays
SMALL_WORK = {"scalar": 0.5, "small_arrays": 0.5}
# the same, and matrix products over multi-megabyte temporaries
LARGE_WORK = {"scalar": 0.25, "small_arrays": 0.25, "large_arrays": 0.5}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            setup=(_job("count lagrangian:2 --q 9"),),
            jobs=(
                _job("count grassmann:3,8 --q 2"),
                _job("count grassmann:4,7 --q 2"),
                _build("grassmann:3,6", 3, "g36q3.code"),
                _job("count union:3,6:2,4,6;1,5,6 --q 2"),
                _job("count isotropic:2,3 --q 4"),
                _job("count lagrangian:2 --q 9"),
                _job("count grassmann:2,3 --q 289"),
            ),
            speed_mix=SMALL_WORK,
        ),
        Workload(
            "scan",
            setup=(
                _build("grassmann:2,5", 2, "g25q2.code"),
                _build("grassmann:2,4", 4, "g24q4.code"),
                _build("grassmann:2,6", 2, "g26q2.code"),
                _build("grassmann:2,4", 3, "g24q3.code"),
                _job("weights g24q3.code --r-max 1"),
            ),
            jobs=(
                _job("weights g25q2.code --r-max 2"),
                _job("weights g24q4.code --r-max 2"),
                _job("weights g26q2.code --r-max 1 --workers 1"),
                _job("weights g26q2.code --r-max 1 --workers 2"),
                _job("weights g24q4.code --r-max 1 --method hyperplanes"),
                _job("weights g24q3.code --r-max 3"),
            ),
            speed_mix=LARGE_WORK,
        ),
        Workload(
            "suite",
            setup=(_job("verify --q 2 --grassmann 2,4 --budget-scans 1000000"),),
            jobs=(_job("verify --q 2,3 --grassmann 2,4;2,5 --lagrangian-n 2 --budget-scans 1000000"),),
            speed_mix=SMALL_WORK,
        ),
    )
}

# jobs whose stdout must be byte-identical: output may not depend on --workers
SAME_OUTPUT = (
    (
        "weights g26q2.code --r-max 1 --workers 1",
        "weights g26q2.code --r-max 1 --workers 2",
    ),
)

# the Grassmann code G(l, m) over GF(q) behind each code file
CODE_FILES = {
    "g25q2.code": (2, 5, 2),
    "g24q4.code": (2, 4, 4),
    "g26q2.code": (2, 6, 2),
    "g24q3.code": (2, 4, 3),
}


# -- closed-form work counts --------------------------------------------------


def _flag(argv: tuple[str, ...], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def closed_form_points(spec, q: int) -> int | None:
    """Rational points of a variety from its closed form, None if it has none."""
    from grasscode.bounds import elambda_length_formula
    from grasscode.indices import gaussian_binomial, is_close_family
    from grasscode.sections import isotropic_count, lagrangian_count, schubert_union_count

    if spec.kind == "grassmann":
        return gaussian_binomial(spec.m, spec.ell, q)
    if spec.kind in ("schubert", "union"):
        return schubert_union_count(spec.tuples, spec.m, q)
    if spec.kind == "lagrangian":
        return lagrangian_count(spec.n, q)
    if spec.kind == "isotropic":
        return isotropic_count(spec.ell, spec.n, q)
    if spec.kind == "elambda" and len(spec.tuples) >= 2 and is_close_family(spec.tuples):
        return elambda_length_formula(spec.ell, spec.m, q, len(spec.tuples))
    return None


def expected_scans(job: Job) -> dict[str, int]:
    """Codewords and subcodes a ``weights`` job scans, from the code's k."""
    from grasscode.indices import gaussian_binomial

    if job.command != "weights":
        return {}
    ell, m, q = CODE_FILES[job.argv[1]]
    k = comb(m, ell)  # a Grassmann code is nondegenerate: k = C(m, l)
    r_max = int(_flag(job.argv, "--r-max", 1))
    codeword_scans = 1 + (_flag(job.argv, "--method", "codewords") == "codewords")
    return {
        "codes.codewords": codeword_scans * q**k,
        "codes.subcodes": sum(gaussian_binomial(k, r, q) for r in range(1, r_max + 1)),
    }


def expected_claims(job: Job) -> dict[str, int]:
    """Reports and unevaluated reports of a ``verify`` job, from its grid."""
    if job.command != "verify":
        return {}
    from grasscode.bounds import dr_equality_max
    from grasscode.indices import gaussian_binomial, is_close_family

    budget = int(_flag(job.argv, "--budget-scans"))
    qs = [int(x) for x in _flag(job.argv, "--q").split(",")]
    pairs = [tuple(int(x) for x in p.split(",")) for p in _flag(job.argv, "--grassmann", "").split(";") if p]
    ns = [int(x) for x in _flag(job.argv, "--lagrangian-n", "").split(",") if x]

    def scannable(k: int, r: int, q: int) -> bool:
        return r <= k and gaussian_binomial(k, r, q) <= budget

    claims = unevaluated = 0
    for q in qs:
        for ell, m in pairs:
            n_tuples = comb(m, ell)
            k = n_tuples
            d_r = [scannable(k, r, q) for r in range(1, dr_equality_max(ell, m) + 1)]
            claims += 2 + len(d_r) + 2 * n_tuples + comb(n_tuples, 2)
            unevaluated += d_r.count(False)
            tuples = list(combinations(range(1, m + 1), ell))
            for size in (1, 2, 3):
                for fam in combinations(tuples, size):
                    if is_close_family(fam):
                        # ffn, optional length (size >= 2), dimension, and the
                        # Lagrangian-section bound when m = 2l
                        claims += 1 + (size >= 2) + 1 + (m == 2 * ell)
        for n in ns:
            claims += 1 + sum(1 + (ell >= 2) for ell in range(1, n + 1)) + 5
            big = comb(2 * n, n)
            k_lag = big - comb(2 * n, n - 2)
            if q**k_lag > budget:
                claims += 1
                unevaluated += 1
                continue
            claims += 1  # mindist
            for r in (1, 2):
                rprime = comb(2 * n, n - 2) + r
                ambient_ok = rprime <= dr_equality_max(n, 2 * n) or scannable(big, rprime, q)
                if ambient_ok and scannable(k_lag, r, q):
                    claims += 2
                else:
                    claims += 1
                    unevaluated += 1
            for r in (1, 2, 3):
                claims += 1
                unevaluated += not scannable(big, r, q)
    return {"bounds.claims": claims, "bounds.claims_unevaluated": unevaluated}
