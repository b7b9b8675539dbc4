"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import sys
from math import comb, factorial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Job  # noqa: E402


# --- percentiles -----------------------------------------------------------

def test_nearest_rank_small_sample():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert measure.nearest_rank(values, 50) == 5
    assert measure.nearest_rank(values, 90) == 9
    assert measure.nearest_rank(values, 100) == 10
    assert measure.nearest_rank(values, 1) == 1


def test_nearest_rank_leaves_ten_beyond_p90_from_100_samples():
    values = list(range(1, 113))
    assert measure.nearest_rank(values, 90) == 101
    assert measure.samples_beyond(112, 90) == 11
    assert measure.samples_beyond(100, 90) == 10
    assert measure.samples_beyond(99, 90) == 9
    assert measure.samples_beyond(7, 90) == 0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.nearest_rank([], 50)
    with pytest.raises(ValueError):
        measure.nearest_rank([1], 0)


# --- reference speed -------------------------------------------------------

def test_timings_at_reference_speed_divide_by_the_mean_probe():
    ref_ns = measure.PROBE_REF_S * 1e9
    # probes of twice the reference time: the machine runs at half speed
    assert measure.at_reference_speed(4e9, [2 * ref_ns] * 3) == pytest.approx(2.0)
    # a slow spell during the job counts as much as the probes around it
    assert measure.at_reference_speed(2e9, [ref_ns, 3 * ref_ns, ref_ns, 3 * ref_ns]) \
        == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.at_reference_speed(1e9, [])


def test_sampler_probes_during_a_long_job_only():
    import time
    with measure.ProbeSampler(interval=0.01) as sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    with sampler:
        pass
    assert sampler.samples == []


def test_per_job_medians_over_passes():
    passes = [[1.0, 10.0], [3.0, 30.0], [2.0, 90.0]]
    assert measure.per_job_medians(passes) == [2.0, 30.0]


def test_probe_does_fixed_work():
    assert measure.probe() == measure.probe()
    assert measure.timed_probe() > 0


# --- self time -------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans_ = [
        ("cli", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.inner", 20, 30, 1),
        ("b", 50, 60, 0),
    ]
    assert measure.self_times(spans_) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    spans_ = [("p", 0, 100, -1), ("c1", 10, 50, 0), ("c2", 30, 70, 0),
              ("c3", 90, 120, 0)]
    # children cover [10, 70] and [90, 100] of the parent
    assert measure.self_times(spans_)[0] == 100 - 60 - 10


def test_pass_metrics_sum_self_times_by_name():
    spans_ = [
        ["cli", 0, 1_000_000_000, -1, "j"],
        ["permgroup.automorphisms", 0, 600_000_000, 0, "j"],
        ["permgroup.order_from_generators", 100_000_000, 300_000_000, 1, "j"],
        ["permgroup.automorphisms", 700_000_000, 800_000_000, 0, "j"],
    ]
    counts = {"permgroup.generators": 5, "search.results": 0, "search.realized": 0}
    values, shares = spans.pass_metrics(spans_, counts)
    assert values["permgroup.automorphisms.calls"] == 2
    assert values["permgroup.automorphisms.self_s"] == pytest.approx(0.5)
    assert values["permgroup.automorphisms.max_ms"] == pytest.approx(600)
    assert values["permgroup.order_from_generators.self_s"] == pytest.approx(0.2)
    assert values["cli.self_s"] == pytest.approx(0.3)
    assert values["permgroup.generators"] == 5
    assert values["search.yield_ratio"] == 0.0
    assert shares["permgroup"] == pytest.approx(0.7)
    assert shares["cli"] == pytest.approx(0.3)


# --- failure accounting ----------------------------------------------------

def test_failure_codes():
    assert measure.is_failure(None)
    assert measure.is_failure(2)
    assert measure.is_failure(3)
    assert not measure.is_failure(0)
    assert not measure.is_failure(1)


def test_fail_rate():
    assert measure.fail_rate(0, 10) == 0
    assert measure.fail_rate(1, 4) == 0.25
    with pytest.raises(ValueError):
        measure.fail_rate(0, 0)
    with pytest.raises(ValueError):
        measure.fail_rate(5, 4)


def _fake_cli(outputs):
    """A CLI main that prints and returns what `outputs` holds for argv[0]."""
    def main(argv):
        text, code = outputs[argv[0]]
        if isinstance(code, BaseException):
            raise code
        print(text, end="")
        return code
    return main


def _pin(text, code):
    return {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_failed_jobs_count_in_fail_rate_and_make_the_run_wrong():
    outputs = {"ok": ("yes\n", 0), "no": ("no\n", 1), "usage": ("", 2),
               "budget": ("", 3), "raise": ("", RuntimeError("boom")),
               "exit": ("", SystemExit(2))}
    pinned = {"ok": _pin("yes\n", 0), "no": _pin("no\n", 1)}
    r = run.Run([Job(name, (name,), "fixed") for name in ("ok", "no")], pinned)
    r.one_pass(_fake_cli(outputs))
    assert (r.attempted, r.failed, r.wrong) == (2, 0, None)
    for name in ("usage", "budget", "raise", "exit"):
        jobs = [Job(n, (n,), "fixed") for n in ("ok", name, "no")]
        r = run.Run(jobs, dict(pinned, **{name: _pin("", 0)}))
        times, scaled = r.one_pass(_fake_cli(outputs))
        # the pass stops at the failed job, which is counted and is wrong
        assert len(times) == len(scaled) == 2
        assert (r.attempted, r.failed) == (2, 1)
        assert r.wrong is not None and r.wrong.startswith(name)
        assert measure.fail_rate(r.failed, r.attempted) == 0.5


# --- output checks ---------------------------------------------------------

def test_changed_pinned_output_is_caught():
    jobs = [Job("ok", ("ok",), "fixed")]
    pinned = {"ok": _pin("yes\n", 0)}
    r = run.Run(jobs, pinned)
    r.one_pass(_fake_cli({"ok": ("yes!\n", 0)}))
    assert r.wrong is not None and "pinned" in r.wrong
    r = run.Run(jobs, pinned)
    r.one_pass(_fake_cli({"ok": ("yes\n", 1)}))
    assert r.wrong is not None


def _report(m, n, k, k_order, lam3=None):
    v = m * n
    blocks = factorial(m) * factorial(n) // k_order
    part = {"is_2design": lam3 is not None, "is_3design": lam3 is not None,
            "lambda_2": None, "lambda_3": None,
            "blocks": str(blocks), "stabilizer_order": str(k_order)}
    if lam3 is not None:
        part["lambda_2"] = str(blocks * comb(k, 2) // comb(v, 2))
        part["lambda_3"] = str(lam3)
    return {"m": m, "n": n, "k": k, "d": part}


def _check(job, code, rep):
    """checks.check on a report whose stdout and exit code are pinned, so
    that only the invariants can fail."""
    text = json.dumps(rep)
    return checks.check(job, code, _pin(text, code)["sha256"], text,
                        {job.id: _pin(text, code)})


def test_seeded_report_must_match_its_pin():
    job = Job("r", ("verify",), "report", (5, 3, 4), "K")
    text = json.dumps(_report(5, 3, 4, 12))
    assert checks.check(job, 1, _pin(text, 1)["sha256"], text, {"r": _pin(text, 1)}) is None
    other = json.dumps(_report(5, 3, 4, 24))
    assert "pinned" in checks.check(job, 1, _pin(other, 1)["sha256"], other,
                                    {"r": _pin(text, 1)})
    assert "no pinned" in checks.check(job, 1, _pin(text, 1)["sha256"], text, {})


def test_report_invariants():
    job = Job("r", ("verify",), "report", (5, 3, 4), "K")
    rep = _report(5, 3, 4, 12)
    assert _check(job, 1, rep) is None
    # exit code must match the verdict in the report
    assert _check(job, 0, rep) is not None
    # blocks * stabilizer order must be |K|
    rep["d"]["blocks"] = "11"
    assert "stabilizer_order" in _check(job, 1, rep)


def test_lambda_identity_is_checked():
    # fig2: 8x2, k = 6, |K_stab| = 36, lambda_3 = 80
    job = Job("fig2", ("verify",), "report", (8, 2, 6), "K")
    rep = _report(8, 2, 6, 36, lam3=80)
    rep["d"]["lambda_2"] = str(2240 * comb(6, 2) // comb(16, 2))
    assert _check(job, 0, rep) is None
    rep["d"]["lambda_3"] = "81"
    assert "lambda_3" in _check(job, 0, rep)


def test_oracle_must_agree_with_criteria():
    job = Job("x", ("verify",), "crosscheck", (5, 3, 4), "K")
    rep = _report(5, 3, 4, 12)
    blocks = int(rep["d"]["blocks"])
    total = blocks * comb(4, 3)
    rep["oracle"] = {"K": {"blocks": blocks, "t": 3, "is_design": False,
                           "histogram": {"0": comb(15, 3) - total, "1": total}}}
    assert _check(job, 1, rep) is None
    rep["oracle"]["K"]["is_design"] = True
    assert "oracle" in _check(job, 1, rep)


# --- tracing from outside --------------------------------------------------

def test_tracer_spans_a_real_cli_call_and_restores(tmp_path, capsys):
    from griddesigns import bigraph, cli, permgroup, search

    original = permgroup.automorphisms
    canonical = bigraph.canonical_form
    graph = tmp_path / "fig2.grid"
    graph.write_text((BENCH.parent / "src/griddesigns/data/fig2.grid").read_text())
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        assert permgroup.automorphisms is not original
        # wrapped also where search looks it up
        assert search.canonical_form is not canonical
        root = tracer.start_job("fig2")
        assert cli.main(["verify", str(graph), "--t", "3"]) == 0
        tracer.close(root)
    finally:
        spans.Tracer.uninstall(restore)
    capsys.readouterr()
    assert permgroup.automorphisms is original
    assert search.canonical_form is canonical
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli"
    assert names.count("permgroup.automorphisms") == 1
    assert "permgroup.order_from_generators" in names
    assert all(s[4] == "fig2" for s in tracer.spans)
    values, _ = spans.pass_metrics(tracer.spans, tracer.counts)
    assert values["bigraph.canonical_form.calls"] == 0
    assert tracer.missing == []


def test_tracer_reports_missing_names(monkeypatch):
    from griddesigns import permgroup

    monkeypatch.delattr(permgroup, "order_from_generators")
    tracer = spans.Tracer()
    restore = tracer.install()
    spans.Tracer.uninstall(restore)
    assert tracer.missing == ["permgroup.order_from_generators"]
