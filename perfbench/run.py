"""grasscode benchmark: one workload per fresh process, outputs checked.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; grasscode is imported from ``src/``.
The process imports grasscode once and calls ``grasscode.cli.main(argv)``
for each job with stdout captured.  Set-up (imports, input files, one
warm-up job) is untimed; then whole passes over the workload's jobs run,
in an order the seed shuffles, for about ``--seconds``.  Every job's exit
code, stdout and written files are compared with ``reference.json``.
Times are reported at nominal machine speed: ``calibrate.py`` samples the
core's speed while set-up and jobs run, and scales each interval by it.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

``--record`` rewrites ``reference.json`` from the current source tree.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from math import comb
from pathlib import Path

# One malloc arena for all threads: otherwise the peak RSS of a run with the
# thread pool depends on which thread freed what.  glibc reads this only at
# process start, so the process replaces itself once to apply it.
if os.environ.get("MALLOC_ARENA_MAX") != "1":
    os.environ["MALLOC_ARENA_MAX"] = "1"
    os.execv(sys.executable, [sys.executable, *sys.argv])

T0 = time.perf_counter()

# Before numpy is imported: --workers is the only parallelism, and an
# exported budget cannot change the work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GRASSCODE_BUDGET", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 4  # extra fresh processes whose set-up time joins the median


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs jobs in the work directory and checks them against the reference."""

    def __init__(self, cli, reference: dict | None):
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout: dict[str, bytes] = {}
        self.sampler = None  # when set, each job's interval is kept in marks
        self.marks: list[tuple] = []  # (job name, begin mark, end mark)

    def run(self, job) -> tuple[float, dict]:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # every job starts from the same heap state, outside the timed region
        begin = self.sampler.mark() if self.sampler else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(job.argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        elapsed = time.perf_counter() - start
        if self.sampler:
            self.marks.append((job.name, begin, self.sampler.mark()))
        stdout = out.getvalue().encode()
        files = {}
        for name in job.writes:
            path = Path(name)
            files[name] = sha256(path.read_bytes()) if path.exists() else None
        result = {"exit": code, "stdout": sha256(stdout), "files": files}
        self.attempted += 1
        self.stdout[job.name] = stdout
        if self.reference is not None:
            self.check(job, result, stdout, err.getvalue())
        return elapsed, result

    def check(self, job, result: dict, stdout: bytes, stderr: str) -> None:
        expected = self.reference.get(job.name)
        if expected != result:
            self.fail(f"{job.name}: output differs from reference ({result} vs {expected}) {stderr.strip()}")
        elif job.command == "count" and b"agree=true" not in stdout:
            self.fail(f"{job.name}: count disagrees with its closed form")

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def blas_threads(numpy):
    """Thread count OpenBLAS reports, or the value requested when it cannot be asked."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"requested {os.environ['OPENBLAS_NUM_THREADS']}"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return None
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "grasscode").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- passes --------------------------------------------------------------------


def run_passes(runner, jobs, rng, seconds: float, min_passes: int, run=None):
    """Whole passes in seeded order while the next one fits in ``seconds``.

    ``run(job, pass_index)`` returns the job's timed seconds; by default the
    job runs once, untraced.
    """
    run = run or (lambda job, _: runner.run(job)[0])
    times = {job.name: [] for job in jobs}
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while passes < min_passes or time.perf_counter() - start + longest <= seconds:
        order = list(jobs)
        rng.shuffle(order)
        pass_start = time.perf_counter()
        for job in order:
            times[job.name].append(run(job, passes))
        longest = max(longest, time.perf_counter() - pass_start)
        passes += 1
    return times, passes


def wall(times: dict) -> float:
    """Time of one pass: the sum over jobs of each job's median time."""
    return sum(statistics.median(ts) for ts in times.values())


def check_same_output(runner, same_output) -> None:
    for a, b in same_output:
        if a in runner.stdout and b in runner.stdout and runner.stdout[a] != runner.stdout[b]:
            runner.fail(f"stdout of {a!r} and {b!r} differ")


# -- traced run ------------------------------------------------------------------


# counters checked against closed forms, and the hooks each one needs
COUNTER_HOOKS = {
    "grassmann.cells.candidates": ("grasscode.sections.iter_grassmann_cells",),
    "linalg.det_batched.dets": ("grasscode.grassmann.det_batched",),
    "codes.codewords": ("grasscode.codes.min_distance", "grasscode.codes.weight_enumerator"),
    "codes.subcodes": ("grasscode.codes.higher_weight",),
    "bounds.claims": ("grasscode.cli.run_suite",),
    "bounds.claims_unevaluated": ("grasscode.cli.run_suite",),
}


def traced(runner, workload, rng, seconds: float, seed: int) -> dict:
    from spans import Tracer
    from workloads import SAME_OUTPUT, closed_form_points, expected_claims, expected_scans

    tracer = Tracer()
    base_times = {job.name: [] for job in workload.jobs}
    per_job = {}  # (pass, job) -> (counts, tallies, enumerations)

    def run_pair(job, pass_index):
        """The job untraced, then traced: the overhead is measured on neighbours."""
        base_times[job.name].append(runner.run(job)[0])
        tracer.run_id, tracer.job = pass_index, job.name
        tracer.install()
        try:
            root = tracer.open(f"cli.{job.command}")
            try:
                elapsed, _ = runner.run(job)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        per_job[pass_index, job.name] = tracer.take_job()
        return elapsed

    times, passes = run_passes(runner, workload.jobs, rng, seconds, 2, run_pair)
    check_same_output(runner, SAME_OUTPUT)
    for name in sorted(tracer.missing):
        print(f"note: {name} is missing or changed; its counters are not checked", file=sys.stderr)

    from grasscode.indices import gaussian_binomial

    def check(job, counts, enumerations):
        expected = {**expected_scans(job), **expected_claims(job)}
        if enumerations:
            expected["grassmann.cells.candidates"] = sum(
                gaussian_binomial(s.m, s.ell, q) for s, q, _ in enumerations
            )
            expected["linalg.det_batched.dets"] = sum(
                gaussian_binomial(s.m, s.ell, q) * comb(s.m, s.ell) for s, q, _ in enumerations
            )
        for key, value in expected.items():
            if any(hook in tracer.missing for hook in COUNTER_HOOKS[key]):
                continue
            if counts.get(key, 0) != value:
                runner.fail(f"{job.name}: {key}={counts.get(key, 0)}, closed form gives {value}")
        for spec, q, points in enumerations:
            formula = closed_form_points(spec, q)
            if formula is not None and formula != points:
                runner.fail(f"{job.name}: {spec.serialize()} q={q} has {points} points, closed form {formula}")

    for job in workload.jobs:
        first = per_job[0, job.name]
        check(job, first[0], first[2])
        for p in range(1, passes):
            other = per_job[p, job.name]
            if (other[0], {k: v[0] for k, v in other[1].items()}, other[2]) != (
                first[0], {k: v[0] for k, v in first[1].items()}, first[2]
            ):
                runner.fail(f"{job.name}: counters differ between traced passes 1 and {p + 1}")

    samples = [pass_metrics(tracer, per_job, workload, p) for p in range(passes)]
    metrics = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    for key in COUNTERS:
        metrics[key] = samples[0][key]
    metrics["trace_overhead_frac"] = wall(times) / wall(base_times) - 1
    traces = BENCH / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{workload.name}-seed{seed}.jsonl")
    return metrics


COUNTERS = (
    "field.matmul.calls", "field.matmul.macs", "field.mul_arr.calls",
    "linalg.det_batched.calls", "linalg.det_batched.dets", "linalg.mat.calls", "linalg.rref.calls",
    "grassmann.cells.batches", "grassmann.cells.candidates",
    "sections.enumerate.calls", "sections.kept", "sections.keep_ratio", "sections.schubert_flag.calls",
    "codes.codewords", "codes.subcodes",
    "bounds.claims", "bounds.claims_unevaluated", "bounds.enumerate_repeat_ratio",
)
KINDS = ("grassmann", "schubert", "union", "elambda", "lagrangian", "isotropic")
FIELD_CLASSES = ("prime", "char2", "table", "poly")
SUBCOMMANDS = ("count", "build", "weights", "verify")


def pass_metrics(tracer, per_job, workload, p: int) -> dict:
    from spans import span_times

    total, own, calls = span_times(tracer.spans, p)
    counts, tallies, enumerations = {}, {}, []
    for job in workload.jobs:
        c, t, e = per_job[p, job.name]
        for key, value in c.items():
            counts[key] = counts.get(key, 0) + value
        for key, (n, s) in t.items():
            n0, s0 = tallies.get(key, (0, 0.0))
            tallies[key] = (n0 + n, s0 + s)
        enumerations += e

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "field.matmul.calls": prefixed(calls, "field.matmul."),
        "field.matmul.s": prefixed(total, "field.matmul."),
        "field.matmul.macs": counts.get("field.matmul.macs", 0),
        **{f"field.matmul.{c}.s": total.get(f"field.matmul.{c}", 0.0) for c in FIELD_CLASSES},
        "field.mul_arr.calls": tallies.get("field.mul_arr", (0, 0.0))[0],
        "field.mul_arr.s": tallies.get("field.mul_arr", (0, 0.0))[1],
        "field.add_arr.s": tallies.get("field.add_arr", (0, 0.0))[1],
        "field.init.s": total.get("field.init", 0.0),
        "linalg.det_batched.calls": calls.get("linalg.det_batched", 0),
        "linalg.det_batched.dets": counts.get("linalg.det_batched.dets", 0),
        "linalg.det_batched.s": total.get("linalg.det_batched", 0.0),
        "linalg.mat.calls": counts.get("linalg.mat.calls", 0),
        "linalg.rref.calls": tallies.get("linalg.rref", (0, 0.0))[0],
        "linalg.rref.s": tallies.get("linalg.rref", (0, 0.0))[1],
        "grassmann.cells.batches": counts.get("grassmann.cells.batches", 0),
        "grassmann.cells.candidates": counts.get("grassmann.cells.candidates", 0),
        "grassmann.cells.s": own.get("grassmann.cells", 0.0),
        "grassmann.validate.s": total.get("grassmann.validate", 0.0),
        "sections.enumerate.calls": prefixed(calls, "sections.enumerate."),
        "sections.enumerate.s": prefixed(total, "sections.enumerate."),
        **{f"sections.enumerate.{k}.s": total.get(f"sections.enumerate.{k}", 0.0) for k in KINDS},
        "sections.kept": sum(points for _, _, points in enumerations),
        "sections.schubert_flag.calls": tallies.get("sections.schubert_flag", (0, 0.0))[0],
        "sections.schubert_flag.s": tallies.get("sections.schubert_flag", (0, 0.0))[1],
        "sections.verify_ffn.s": total.get("sections.verify_ffn", 0.0),
        "sections.linear_hull.s": total.get("sections.linear_hull", 0.0),
        **{f"codes.higher_weight.r{r}.s": total.get(f"codes.higher_weight.r{r}", 0.0) for r in (1, 2, 3)},
        "codes.min_distance.s": total.get("codes.min_distance", 0.0),
        "codes.weight_enumerator.s": total.get("codes.weight_enumerator", 0.0),
        "codes.build_code.s": total.get("codes.build_code", 0.0),
        "codes.file_io.s": total.get("codes.file_io", 0.0),
        "codes.codewords": counts.get("codes.codewords", 0),
        "codes.subcodes": counts.get("codes.subcodes", 0),
        "bounds.run_suite.s": total.get("bounds.run_suite", 0.0),
        "bounds.claims": counts.get("bounds.claims", 0),
        "bounds.claims_unevaluated": counts.get("bounds.claims_unevaluated", 0),
        "cli.self.s": prefixed(own, "cli."),
        **{f"cli.{c}.s": total.get(f"cli.{c}", 0.0) for c in SUBCOMMANDS},
    }
    candidates = m["grassmann.cells.candidates"]
    m["sections.keep_ratio"] = m["sections.kept"] / candidates if candidates else 0.0
    distinct = len({(spec, q) for spec, q, _ in enumerations})
    m["bounds.enumerate_repeat_ratio"] = len(enumerations) / distinct if distinct else 0.0
    jobs = {record[5]: record[2] - record[1] for record in tracer.spans
            if record[4] == p and record[3] is None}
    w1 = jobs.get("weights g26q2.code --r-max 1 --workers 1")
    w2 = jobs.get("weights g26q2.code --r-max 1 --workers 2")
    m["codes.worker_speedup"] = w1 / w2 if w1 and w2 else 0.0
    return m


# -- entry points ------------------------------------------------------------------


def record(cli, workloads) -> None:
    """Write reference.json: exit code and SHA-256 of stdout and files per job."""
    reference = {}
    for workload in workloads.values():
        runner = Runner(cli, None)
        for job in workload.setup + workload.jobs:
            _, result = runner.run(job)
            reference[job.name] = result
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} with {len(reference)} jobs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("enumerate", "scan", "suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (args.record or args.workload):
        parser.error("--workload is required")
    if not (SRC / "grasscode" / "cli.py").is_file():
        print(f"error: no grasscode source under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import calibrate
    from workloads import SAME_OUTPUT, WORKLOADS

    # samples machine speed from here on, set-up included
    sampler = calibrate.Sampler(WORKLOADS[args.workload].speed_mix if args.workload else {})
    if not args.record:
        sampler.start()
    import grasscode.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: grasscode imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    (BENCH / ".work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=BENCH / ".work")
    os.chdir(work)
    try:
        if args.record:
            record(cli, WORKLOADS)
            return 0
        reference = json.loads(REFERENCE.read_text())
        workload = WORKLOADS[args.workload]
        runner = Runner(cli, reference)
        for job in workload.setup:
            runner.run(job)
        setup_mark = sampler.mark()
        raw_setup_s = setup_mark[0] - T0
        setup_s = sampler.normalized((T0, 0.0, 0), setup_mark)
        if args.setup_probe:
            sampler.stop()
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s,
                              "failed": len(runner.failures) + sampler.bad}))
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            sampler.stop()
            metrics = traced(runner, workload, rng, args.seconds, args.seed)
        else:
            runner.sampler = sampler
            times, passes = run_passes(runner, workload.jobs, rng, args.seconds, 2)
            sampler.stop()
            if sampler.bad:
                runner.fail(f"calibration kernel gave a wrong result {sampler.bad} times")
            check_same_output(runner, SAME_OUTPUT)
            normalized = {job.name: [] for job in workload.jobs}
            for name, begin, end in runner.marks:
                normalized[name].append(sampler.normalized(begin, end))
            probes = [(setup_s, raw_setup_s)] + probe_setups(args.workload, runner)
            metrics = {
                "wall_s": wall(normalized),
                "setup_s": statistics.median(s for s, _ in probes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        sampler.stop()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not both declared and measured",
              file=sys.stderr)
        return 1
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    stamp = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds, **environment(args.seed)}
    if not args.trace:
        stamp["passes"] = passes
        stamp["setups_s"] = [s for s, _ in probes]
        stamp["raw_setups_s"] = [r for _, r in probes]
        stamp["raw_wall_s"] = wall(times)
        stamp["speed"] = statistics.mean(sampler.samples)
        stamp["speed_samples"] = len(sampler.samples)
        stamp["job_times_s"] = normalized
        stamp["raw_job_times_s"] = times
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": stamp, **result}, indent=1) + "\n"
    )
    print(json.dumps({"env": stamp}))
    print(json.dumps(result))
    return 0


def probe_setups(workload: str, runner) -> list[float]:
    """Set-up time of fresh processes that stop after set-up."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            runner.fail(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        probe = json.loads(lines[-1])
        if probe["failed"]:
            runner.fail("set-up probe jobs differ from the reference")
        out.append((probe["setup_s"], probe["raw_setup_s"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
