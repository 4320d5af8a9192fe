"""znbases benchmark: real CLI jobs as fresh processes, checked and timed.

Run from the repository root::

    python3 perfbench/run.py --workload spectrum-exhaustive --seed 1 --seconds 20 --trace 0

One closed-loop client (this process) runs the workload's job list as one
``znbases`` child process at a time, pass after pass, until ``--seconds``
have elapsed.  Every job's exit code and stdout are compared with
``references.json`` (captured by ``capture.py``), and the independent oracle
in ``oracle.py`` re-checks the reported orders outside the timed passes.

``--trace 0`` reports the end-to-end metrics: the wall time and the CPU
time of the job list, each job taken at its median over the passes, the
slowest job, the median ``znbases --version`` start time, and the largest
job peak RSS.  The times are scaled to a reference machine speed, measured
by the calibration loop that ``launch.py`` runs in every job process (see
README.md, "Machine speed").
``--trace 1`` alternates untraced passes with passes run through
``tracer.py``, at least two of each, and reports the per-layer metrics.
Traced stdout must equal untraced stdout byte for byte, and every per-layer
count must repeat exactly across the traced passes.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  A readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from launch import CAL_PREFIX, RSS_PREFIX
from tracer import SUMMARY_PREFIX
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
LAUNCHER = HERE / "launch.py"
TRACER = HERE / "tracer.py"
VERSION_JOB = ("--version",)
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 140.0  # jobs still running then are killed; a run must end within 180 s
MAX_SECONDS = 60  # leaves room under RUN_DEADLINE_S to finish the last pass
# Traced runs alternate untraced and traced passes, so that a slow spell of
# the machine does not land on one side only; at least two of each.
TRACE_PATTERN = (False, True, False, True)
SETUP_STARTS = 2  # --version starts before the first pass and after each pass
# A typical time of launch.calibrate() on the reference machine, a 2-vCPU
# Xeon virtual machine with Python 3.11.  Each job's times are scaled by
# REF_CAL_S / (mean of its own two calibration times).
REF_CAL_S = 0.015

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_s.max": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class JobResult:
    args: tuple[str, ...]
    wall_s: float  # without the calibration loops
    cpu_s: float  # without the calibration loops
    rss_kib: int | None  # None when the launcher reported no peak
    cal_s: float  # mean calibration wall time; 0 when not reported
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool
    cut: bool  # killed at the run's deadline, not by its own timeout


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_job(args: tuple[str, ...], env: dict[str, str], traced: bool = False,
            deadline: float = float("inf")) -> JobResult:
    """Run one znbases command as a fresh process; collect output and rusage.

    The child is killed JOB_TIMEOUT_S after it starts or at `deadline`
    (a time.perf_counter() value), whichever comes first; `cut` tells the
    two apart.
    """
    start = time.perf_counter()
    deadline = min(deadline, start + JOB_TIMEOUT_S)
    proc = subprocess.Popen(
        [sys.executable, str(TRACER if traced else LAUNCHER), *args], env=env, cwd=ROOT,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    timed_out = False
    cut = deadline < start + JOB_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = b"".join(chunks[proc.stdout.fileno()])
    stderr = b"".join(chunks[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    cal = _reported_calibration(stderr)
    return JobResult(
        args=args, wall_s=wall - cal[0] - cal[2],
        cpu_s=usage.ru_utime + usage.ru_stime - cal[1] - cal[3],
        rss_kib=_reported_rss(stderr), cal_s=(cal[0] + cal[2]) / 2,
        exit_code=None if timed_out else proc.returncode,
        stdout=stdout, stderr=stderr, timed_out=timed_out, cut=timed_out and cut,
    )


def _reported_rss(stderr: bytes) -> int | None:
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(RSS_PREFIX):
            return int(line[len(RSS_PREFIX):])
    return None


def _reported_calibration(stderr: bytes) -> list[float]:
    """Wall and CPU seconds of the calibration loops before and after the
    job, as launch.py reports them; zeros when there is no report."""
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(CAL_PREFIX):
            return [float(x) for x in line[len(CAL_PREFIX):].split()]
    return [0.0] * 4


def job_key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts attempted and failed jobs against the stored references."""

    def __init__(self, references: dict) -> None:
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, result: JobResult) -> bool:
        self.attempted += 1
        ref = self.references[job_key(result.args)]
        problem = None
        if result.timed_out:
            problem = f"killed after {result.wall_s:.1f} s"
        elif result.exit_code != ref["exit_code"]:
            problem = f"exit code {result.exit_code}, expected {ref['exit_code']}"
        elif digest(result.stdout) != ref["sha256"]:
            problem = "stdout differs from the reference"
        if problem is None:
            return True
        self.failed += 1
        self.problems.append(f"{job_key(result.args)[:100]}: {problem}")
        return False


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def trace_summary(result: JobResult) -> dict | None:
    for line in reversed(result.stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(SUMMARY_PREFIX):
            return json.loads(line[len(SUMMARY_PREFIX):])
    return None


class LayerTotals:
    """Span and counter totals of one traced pass, summed over its jobs."""

    def __init__(self, results: list[JobResult], summaries: list[dict]) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.under: dict[str, int] = {}
        for s in summaries:
            for name, entry in s["spans"].items():
                tot = self.spans.setdefault(name, [0, 0.0])
                tot[0] += entry["calls"]
                tot[1] += entry["self_s"]
            for table, own in ((s["counters"], self.counters), (s["under"], self.under)):
                for key, value in table.items():
                    own[key] = own.get(key, 0) + value
        self.stdout_bytes = sum(len(r.stdout) for r in results)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def counter(self, key: str) -> int:
        return self.counters.get(key, 0)

    def calls_under(self, child: str, parent: str) -> int:
        return self.under.get(f"{child}<{parent}", 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(name: str):
    return (f"{name}.calls", "count", lambda t: t.calls(name))


def _self(name: str):
    return (f"{name}.self_s", "s", lambda t: t.self_s(name))


_ORDER, _CANON, _ENUM, _VERIFY = (
    "sumsets.order", "affine.is_canonical", "spectrum.enumerate_bases",
    "spectrum.verify_conjecture",
)

# (metric, unit, value from LayerTotals); cli.import_s and trace.overhead_s
# come from the pass records instead.
LAYER_METRICS = [
    _calls(_ORDER), _self(_ORDER),
    ("sumsets.order.mask_bits", "bits", lambda t: t.counter("sumsets.order.mask_bits")),
    ("sumsets.order.finite_levels", "levels",
     lambda t: t.counter("sumsets.order.finite_levels")),
    ("sumsets.order.inf_ratio", "ratio",
     lambda t: _ratio(t.counter("sumsets.order.inf"), t.calls(_ORDER))),
    _calls("sumsets.add_sets"), _self("sumsets.add_sets"),
    _calls("sumsets.h_fold"), _self("sumsets.h_fold"),
    _calls(_CANON), _self(_CANON),
    ("affine.is_canonical.accept_ratio", "ratio",
     lambda t: _ratio(t.counter("affine.is_canonical.accepted"), t.calls(_CANON))),
    _calls("affine.canonical_form"), _self("affine.canonical_form"),
    ("spectrum.enumerate_bases.yielded", "count", lambda t: t.counter(f"{_ENUM}.yielded")),
    _self(_ENUM),
    ("spectrum.enumerate_bases.yield_ratio", "ratio",
     lambda t: _ratio(t.counter(f"{_ENUM}.yielded"), t.calls_under(_CANON, _ENUM))),
    _self("spectrum.spectrum"),
    _self(_VERIFY),
    ("spectrum.verify_conjecture.order_calls", "count",
     lambda t: t.calls_under(_ORDER, _VERIFY)),
    ("spectrum.verify_conjecture.exceeders", "count",
     lambda t: t.counter(f"{_VERIFY}.exceeders")),
    ("spectrum.verify_conjecture.hit_ratio", "ratio",
     lambda t: _ratio(t.counter(f"{_VERIFY}.exceeders"), t.calls_under(_ORDER, _VERIFY))),
    _calls("core.is_basis"), _self("core.is_basis"),
    _calls("core.canonical_sort_key"), _self("core.canonical_sort_key"),
    _calls("bounds.kl_bound"), _self("bounds.kl_bound"),
    _self("bounds.lower_bound_family"),
    _calls("bounds.min_gap_to_fractions"), _self("bounds.min_gap_to_fractions"),
    _calls("structure.pipeline_trace"), _self("structure.pipeline_trace"),
    _calls("structure.df_analyze"), _self("structure.df_analyze"),
    _calls("structure.ap_cover"), _self("structure.ap_cover"),
    _self("structure.project"),
    _self("structure.coset_profile"),
    ("cli.self_s", "s", lambda t: t.self_s("cli")),
    ("cli.stdout_bytes", "bytes", lambda t: t.stdout_bytes),
]
PER_LAYER = {name: unit for name, unit, _ in LAYER_METRICS}
PER_LAYER["cli.import_s"] = "s"
PER_LAYER["trace.overhead_s"] = "s"


def cpu_model() -> str | None:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "cpu_model": cpu_model(), "git_commit": git_commit(),
    }


class Run:
    """One benchmark run: setup samples, timed passes, checks."""

    def __init__(self, jobs: list[tuple[str, ...]], checker: Checker, deadline: float) -> None:
        self.jobs = jobs
        self.checker = checker
        self.deadline = deadline
        self.env = child_env()
        self.setup: list[JobResult] = []

    def setup_sample(self) -> None:
        result = run_job(VERSION_JOB, self.env, deadline=self.deadline)
        if not result.cut:
            self.checker.check(result)
            self.setup.append(result)

    def run_pass(self, traced: bool) -> list[JobResult] | None:
        """One pass over the job list, checked; None when the run's deadline
        cut it short, in which case none of its jobs count."""
        results = [run_job(args, self.env, traced, self.deadline) for args in self.jobs]
        if any(r.cut for r in results):
            return None
        for result in results:
            self.checker.check(result)
        for _ in range(SETUP_STARTS):
            self.setup_sample()
        return results

    def passes(self, pattern: tuple[bool, ...], until: float):
        """Run passes, cycling through `pattern` (traced or not), until `until`
        and at least one full cycle; returns (untraced, traced) passes.

        A pass starts only if the longest pass so far would still end before
        the run's deadline; one cut short all the same is dropped.
        """
        done: dict[bool, list[list[JobResult]]] = {False: [], True: []}
        longest = 0.0
        i = 0
        while True:
            now = time.perf_counter()
            if (i >= len(pattern) and now >= until) or now + longest > self.deadline:
                break
            traced = pattern[i % len(pattern)]
            results = self.run_pass(traced)
            if results is None:
                break
            done[traced].append(results)
            longest = max(longest, time.perf_counter() - now)
            i += 1
        return done[False], done[True]


def scaled(result: JobResult, field: str) -> float:
    """The time `field` of `result` at the reference machine speed."""
    seconds = getattr(result, field)
    return seconds * REF_CAL_S / result.cal_s if result.cal_s else seconds


def per_job_median(passes: list[list[JobResult]], field: str) -> dict[str, float]:
    """Per job, the median over the passes of the scaled time `field`."""
    values: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            values.setdefault(job_key(r.args), []).append(scaled(r, field))
    return {key: statistics.median(v) for key, v in values.items()}


def end_to_end(passes: list[list[JobResult]], setup: list[JobResult],
               problems: list[str]) -> dict[str, float]:
    """End-to-end metrics; times at the reference machine speed.

    A process without a peak RSS or a calibration report is appended to
    `problems`.
    """
    results = [r for p in passes for r in p] + setup
    if any(r.rss_kib is None for r in results):
        problems.append("a job process reported no peak RSS")
    if any(not r.cal_s for r in results):
        problems.append("a job process reported no calibration time")
    wall = per_job_median(passes, "wall_s")
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(per_job_median(passes, "cpu_s").values()),
        "job_s.max": max(wall.values()),
        "setup_s": statistics.median(scaled(r, "wall_s") for r in setup),
        "peak_rss_mib": max((r.rss_kib or 0 for r in results), default=0) / 1024,
    }


def per_layer(untraced: list[list[JobResult]], traced: list[list[JobResult]],
              problems: list[str]) -> dict[str, float]:
    """Per-layer metrics; integrity problems are appended to `problems`."""
    plain = {job_key(r.args): r.stdout for r in untraced[0]}
    per_pass = []
    import_s = []
    for results in traced:
        summaries = []
        for r in results:
            if r.stdout != plain[job_key(r.args)]:
                problems.append(f"traced stdout differs: {job_key(r.args)[:100]}")
            summary = trace_summary(r)
            if summary is None:
                problems.append(f"no trace summary: {job_key(r.args)[:100]}")
                continue
            summaries.append(summary)
            import_s.append(summary["import_s"])
        totals = LayerTotals(results, summaries)
        per_pass.append({name: value(totals) for name, _, value in LAYER_METRICS})
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        values = [p[name] for p in per_pass]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between traced passes: {values}")
            metrics[name] = values[0]
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_s"] = (sum(per_job_median(traced, "wall_s").values())
                                   - sum(per_job_median(untraced, "wall_s").values()))
    return metrics


def oracle_problems(results: list[JobResult], seed: int) -> list[str]:
    rng = random.Random(seed)
    problems = []
    for r in results:
        try:
            problems += oracle.check(r.args, r.stdout.decode("utf-8"), rng)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:
            problems.append(f"oracle cannot parse {job_key(r.args)[:100]}: {exc!r}")
    return problems


def report(workload: str, seed: int, passes: int, checker: Checker,
           metrics: dict[str, float], units: dict[str, str]) -> None:
    err = sys.stderr
    err.write(f"{workload} seed {seed}: {passes} passes, {checker.attempted} jobs, "
              f"{checker.failed} failed\n")
    rows = dict(metrics)
    rows["fail_ratio"] = checker.failed / max(checker.attempted, 1)
    all_units = dict(units, fail_ratio="ratio")
    for name, value in rows.items():
        err.write(f"  {name:<40s} {value:>14.6g} {all_units[name]}\n")
    for problem in checker.problems[:20]:
        err.write(f"  FAIL {problem}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not 1 <= opts.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be between 1 and {MAX_SECONDS}")

    if not (SRC / "znbases" / "cli.py").is_file():
        print(f"znbases sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        references = load_references()
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read {REFERENCES}: {exc}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[opts.workload].jobs(opts.seed)
    missing = [job_key(j) for j in [*jobs, VERSION_JOB] if job_key(j) not in references]
    if missing:
        print(f"no reference output for {missing[0]}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(SRC), quiet=1)
    t0 = time.perf_counter()
    checker = Checker(references)
    run = Run(jobs, checker, t0 + RUN_DEADLINE_S)
    for _ in range(SETUP_STARTS):
        run.setup_sample()
    pattern = TRACE_PATTERN if opts.trace else (False,)
    untraced, traced = run.passes(pattern, t0 + opts.seconds)
    if not untraced or (opts.trace and not traced):
        print(f"no complete pass within {RUN_DEADLINE_S:.0f} s", file=sys.stderr)
        return 1

    problems = oracle_problems(untraced[-1], opts.seed)
    if opts.trace:
        metrics = per_layer(untraced, traced, problems)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, run.setup, problems)
        units = END_TO_END
        cal = statistics.median(r.cal_s for p in untraced for r in p)
        print(f"calibration median {cal:.6f} s, reference {REF_CAL_S} s", file=sys.stderr)
    checker.problems += problems
    report(opts.workload, opts.seed, len(untraced) + len(traced), checker, metrics, units)

    print("env " + json.dumps(environment(opts.workload, opts.seed, opts.seconds, opts.trace),
                              sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
