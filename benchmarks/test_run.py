"""Tests of the benchmark itself; run with ``python -m pytest benchmarks``."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import ouexit.cli  # noqa: E402
import ouexit.simulate  # noqa: E402
import ouexit.special  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = "0.3"


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload):
    untraced = _run(workload, 0)
    assert untraced["correct"] and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    traced = _run(workload, 1)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_every_traced_wrapper_records_calls():
    inputs = {name: prepare(3, 0.3) for name, (prepare, _) in run.WORKLOADS.items()}
    with Tracer() as tracer:
        run.install_wrappers(tracer)
        for name, (_, execute) in run.WORKLOADS.items():
            assert not execute(inputs[name]).violations
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    expected = [
        "special.ln_lower_gamma.series", "special.ln_lower_gamma.contfrac",
        "quadrature.integrate_log", "mfet.mfet_exact", "mfet.mfet_bounds",
        "simulate.record_path", "cli.main",
    ] + ["simulate." + s for s in run.SCHEMES]
    assert sorted(calls) == sorted(expected)
    assert all(calls[name] > 0 for name in expected)
    assert tracer.counters["quadrature.integrate_log.panels"] > 0
    assert ouexit.special.ln_lower_gamma.__module__ == "ouexit.special"


def test_same_seed_gives_same_outputs():
    prepare, execute = run.WORKLOADS["mc-metastable"]
    first, second = execute(prepare(5, 0.05)), execute(prepare(5, 0.05))
    assert first.digest.hexdigest() == second.digest.hexdigest()
    assert first.work == second.work


def test_times_are_scaled_by_the_probes_around_them():
    out = run.Outcome()
    # a host at half the reference speed, then at the reference speed
    out.host.probes[:] = [2 * run.REF_PROBE_S] * 4 + [run.REF_PROBE_S] * 4
    out.raw_s[:] = [0.5, 1.0]
    out.probe_idx[:] = [1, 6]
    assert out.op_s == [0.25, 1.0]
    assert out.wall_s == 1.25


def test_corrupted_gamma_fails_the_gate(monkeypatch):
    honest = ouexit.special.ln_lower_gamma
    monkeypatch.setattr(ouexit.special, "ln_lower_gamma", lambda a, x: honest(a, x) + 0.05)
    prepare, execute = run.WORKLOADS["exact-grid"]
    assert execute(prepare(3, 0.3)).violations


def test_known_bound_overflow_counts_as_failed():
    params = ouexit.OupParams(theta=0.03564128512650495, sigma=0.8209532881324187, d=2377)
    prob = ouexit.ExitProblem(params=params, L=115.81965166239306, x=0.0)
    out = run.execute_exact_grid([prob])
    assert out.failures == {run.BOUND_OVERFLOW: 1} and not out.violations


def test_biased_estimates_fail_the_gate(monkeypatch):
    honest = ouexit.simulate.estimate_mfet

    def biased(problem, cfg):
        est = honest(problem, cfg)
        return dataclasses.replace(est, mean=1.3 * est.mean)

    monkeypatch.setattr(ouexit.simulate, "estimate_mfet", biased)
    prepare, execute = run.WORKLOADS["mc-highdim"]
    assert execute(prepare(3, 0.05)).violations


def test_missing_manifest_fails_the_gate(monkeypatch):
    monkeypatch.setattr(ouexit.cli, "_write_manifest", lambda args, started: None)
    prepare, execute = run.WORKLOADS["cli-trajectories"]
    out = execute(prepare(3, 0.05))
    assert out.violations and out.failed == 1


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("run.py", "tracing.py"):
        (bench / name).write_text((HERE / name).read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
