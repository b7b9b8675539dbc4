"""Benchmark of the griddesigns command-line tool.

Runs one workload (a list of CLI commands, see workloads.py) through
`griddesigns.cli.main` in this process: a closed loop with one client, jobs
back to back, no threads.  Passes over the job list repeat for about
--seconds; every output is checked (checks.py).  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload witness-verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Exit codes: 0 all outputs right, 1 a wrong output or a failed job (metrics
then empty), 2 the program cannot be imported or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import measure
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
HASH_SEED = "0"
SETUP_REPEATS = 15
MIN_PASSES = 3
P_TAIL = 90

# ROADMAP re-anchor cases (searches in their scaled-down forms), timed in
# the last traced pass: (job id, span name)
ANCHORS = (
    ("verify fig3 --t 3 --group both", "permgroup.automorphisms"),
    ("verify fig3 --t 3 --group both", "cli"),
    ("search --m 8 --k 9 --target dhat2", "cli"),
    ("search --m 8 --k 9 --target dhat2", "bigraph.canonical_form"),
    ("search --m 8 --k 20 --target dhat3", "search.degree_branches"),
    ("scan --square3 --max-m 200", "scanner.scan_square_3design"),
    ("oracle fig2 --t 3", "oracle.materialize"),
    ("oracle fig2 --t 3", "oracle.lambda_table"),
)

# Run in a fresh interpreter: prints the seconds at the reference speed that
# importing griddesigns.cli takes (the first probe only warms the probe up).
IMPORTER = """
import sys, time
sys.path.insert(0, sys.argv[1])
import measure
measure.timed_probe()
before = measure.timed_probe()
with measure.ProbeSampler() as sampler:
    start = time.perf_counter_ns()
    import griddesigns.cli
    elapsed = time.perf_counter_ns() - start
probes = [before, *sampler.samples, measure.timed_probe()]
print(measure.at_reference_speed(elapsed - sum(sampler.samples), probes))
"""

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Sink(io.TextIOBase):
    """Stands in for stdout: hashes and counts what the CLI writes, and keeps
    the text only when a check needs to read it."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.parts: list[str] | None = [] if keep else None

    def write(self, s):
        data = s.encode()
        self.sha.update(data)
        self.nbytes += len(data)
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def text(self):
        return None if self.parts is None else "".join(self.parts)


def run_job(cli_main, job, tracer=None, sampler=None):
    """(exit code or None if it raised, stdout sink, elapsed ns).  With a
    sampler, the probes it runs during the job are part of elapsed."""
    sink = Sink(keep=job.check != "fixed")
    errors = io.StringIO()
    root = tracer.start_job(job.id) if tracer else None
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors), \
                sampler or contextlib.nullcontext():
            code = cli_main(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        errors.write(traceback.format_exc())
    elapsed = time.perf_counter_ns() - start
    if tracer:
        tracer.close(root)
        tracer.counts["cli.output_bytes"] += sink.nbytes
    if measure.is_failure(code):
        print(f"job {job.id} failed (exit {code}): {errors.getvalue().strip()}",
              file=sys.stderr)
    return code, sink, elapsed


class Run:
    """Outcome of the passes of one workload."""

    def __init__(self, jobs, pinned):
        self.jobs = jobs
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.wrong: str | None = None
        # job seconds at the reference speed, one list per pass
        self.plain: list[list[float]] = []
        self.traced: list[tuple[list[float], spans.Tracer]] = []
        self.raw_s: list[float] = []       # measured seconds of untraced passes

    def one_pass(self, cli_main, tracer=None) -> tuple[list[int], list[float]]:
        """Each job's time in ns without the probes, and in seconds at the
        reference speed; stops at the first wrong output.  Probes run
        between jobs and, in untraced passes, during them; a traced pass
        runs none during jobs, so that spans hold no probe time."""
        times, scaled = [], []
        sampler = None if tracer else measure.ProbeSampler()
        restore = tracer.install() if tracer else []
        before = measure.timed_probe()
        try:
            for job in self.jobs:
                code, sink, elapsed = run_job(cli_main, job, tracer, sampler)
                during = sampler.samples if sampler else []
                after = measure.timed_probe()
                times.append(elapsed - sum(during))
                scaled.append(measure.at_reference_speed(times[-1], [before, *during, after]))
                before = after
                self.attempted += 1
                if measure.is_failure(code):
                    # counted in fail_rate, and a wrong output all the same:
                    # every job has a pinned verdict
                    self.failed += 1
                    problem = "raised" if code is None else f"exited {code}"
                else:
                    problem = checks.check(job, code, sink.sha.hexdigest(),
                                           sink.text(), self.pinned)
                if problem:
                    self.wrong = f"{job.id}: {problem}"
                    break
        finally:
            spans.Tracer.uninstall(restore)
        return times, scaled

    def repeat(self, cli_main, seconds: float, trace: bool):
        """Passes until the next one would end after `seconds`; at least
        MIN_PASSES untraced, or one untraced and one traced with tracing.
        Traced and untraced passes alternate."""
        start = time.perf_counter()
        while self.wrong is None:
            if trace and len(self.traced) < len(self.plain):
                tracer = spans.Tracer()
                _, scaled = self.one_pass(cli_main, tracer)
                self.traced.append((scaled, tracer))
            else:
                times, scaled = self.one_pass(cli_main)
                self.plain.append(scaled)
                self.raw_s.append(sum(times) / 1e9)
            done = len(self.plain) + len(self.traced)
            enough = (self.plain and self.traced) if trace else len(self.plain) >= MIN_PASSES
            elapsed = time.perf_counter() - start
            if enough and elapsed * (done + 1) / done > seconds:
                break


def setup_once(workload, seed, workdir, cli_main) -> tuple[float, list]:
    """Seconds at the reference speed to import griddesigns.cli in a fresh
    interpreter (timed inside it, so interpreter start-up is excluded) plus
    to make the seeded inputs; and the jobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", IMPORTER, str(HERE)], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    before = measure.timed_probe()
    with measure.ProbeSampler() as sampler:
        start = time.perf_counter_ns()
        jobs = workloads.build(workload, seed, workdir, cli_main)
        elapsed = time.perf_counter_ns() - start
    probes = [before, *sampler.samples, measure.timed_probe()]
    build_s = measure.at_reference_speed(elapsed - sum(sampler.samples), probes)
    return float(child.stdout) + build_s, jobs


def load_cli():
    sys.path.insert(0, str(SRC))
    try:
        from griddesigns import cli
    except ImportError as exc:
        print(f"error: cannot import griddesigns from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(cli.__file__).resolve().parents:
        # an installed copy, not the tree under test
        print(f"error: griddesigns was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli.main


def run_workload(args) -> int:
    cli_main = load_cli()
    pinned = json.loads(EXPECTED.read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, jobs = setup_once(args.workload, args.seed, workdir, cli_main)
            setups.append(seconds)
        run = Run(jobs, pinned)
        run.repeat(cli_main, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(run.jobs)
    print(f"workload {args.workload}, seed {args.seed}: {n} jobs per pass, "
          f"{len(run.plain)} untraced and {len(run.traced)} traced passes; "
          "closed loop, one client, one process")
    print(f"fail_rate = {measure.fail_rate(run.failed, run.attempted)} ratio "
          f"({run.failed} of {run.attempted} jobs raised or exited 2 or 3)")
    if run.wrong:
        print(f"wrong output: {run.wrong}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1

    # each job's median over the untraced passes, at the reference speed;
    # the end-to-end timings all derive from these
    per_job = [s * 1e3 for s in measure.per_job_medians(run.plain)]
    print(f"measured pass time (not at the reference speed): median "
          f"{statistics.median(run.raw_s):.4f} s over {len(run.raw_s)} passes")
    if args.trace:
        values = trace_report(args, run, sum(per_job) / 1e3)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        print(f"job latencies at the reference speed: each job's median over the passes; "
              f"p50 and p{P_TAIL} by nearest rank over the {n} jobs, "
              f"{measure.samples_beyond(n, P_TAIL)} jobs beyond p{P_TAIL}; "
              "wall_s is their sum")
        values = {
            "wall_s": sum(per_job) / 1e3,
            "job_p50_ms": measure.nearest_rank(per_job, 50),
            "job_p90_ms": measure.nearest_rank(per_job, P_TAIL),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    print("wait time: none; nothing queues or retries, jobs run back to back")
    print(json.dumps({
        "correct": True, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def trace_report(args, run, plain_wall: float) -> dict:
    """Per-layer metrics over the traced passes (the lower median, so that
    counts stay whole); writes the spans of the last traced pass to
    perfbench/out."""
    per_pass = [spans.pass_metrics(tracer.spans, tracer.counts) for _, tracer in run.traced]
    values = {name: statistics.median_low([m[name] for m, _ in per_pass])
              for name, _, _ in spans.PER_LAYER if name != "trace.overhead_s"}
    traced = measure.per_job_medians([t for t, _ in run.traced])
    values["trace.overhead_s"] = sum(traced) - plain_wall
    shares = {layer: statistics.median([s[layer] for _, s in per_pass]) for layer in spans.LAYERS}
    print("self-time shares of the traced wall time: "
          + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    tracer = run.traced[-1][1]
    for job, name in ANCHORS:
        if any(j.id == job for j in run.jobs):
            ms = sum(span[2] - span[1] for span in tracer.spans
                     if span[0] == name and span[4] == job) / 1e6
            print(f"re-anchor: {name} in `{job}`: {ms:.1f} ms (last traced pass)")
    if tracer.missing:
        print("missing (not traced, reported as 0): " + ", ".join(tracer.missing))
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "fields": ["name", "start_ns", "end_ns", "parent", "job"],
        "spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing,
    }))
    print(f"spans of the last traced pass: {path.relative_to(ROOT)}")
    return values


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            status = 1
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        cells = ", ".join(f"{metric} {m['value']:.6g} {m['unit']}"
                          for metric, m in result["metrics"].items())
        print(f"{name}: failed {result['failed']}/{result['attempted']}; {cells}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fixed string hashing, so dict and set layouts repeat between runs
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
