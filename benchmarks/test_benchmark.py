"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import merocon.algebra  # noqa: E402
import merocon.fields  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _measure(tmp_path, workload, trace=0) -> int:
    """run.measure in this process, so that tests can patch the workloads."""
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.01, trace=trace)
    return run.measure(args, workloads.WORKLOADS[workload], tmp_path, [(0.1, 0.1)], tracer)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.01",
                       "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in res["metrics"].items()
    }
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_same_seed_gives_same_inputs(tmp_path):
    def first_round(seed):
        wl = workloads.Classify(seed, tmp_path / str(seed))
        wl.prepare()
        return [Path(u.payload).read_text() for u in wl.next_round()]

    assert first_round(4) == first_round(4)
    assert first_round(4) != first_round(5)


def test_gate_trips_when_an_expected_value_is_wrong(monkeypatch, capsys, tmp_path):
    # the atlas must report the template's parameters; expect different ones
    real = workloads.expected_parameters
    monkeypatch.setattr(
        workloads, "expected_parameters",
        lambda label: tuple(None if p is None else p + 0.5 for p in real(label)),
    )
    assert _measure(tmp_path, "classify") == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert 0 < res["failed"] < res["attempted"]


def test_checks_reject_wrong_expectations(tmp_path):
    wl = workloads.NormalForms(8, tmp_path)
    fuchsian = wl.next_round()[0].items[0]
    result = workloads.mgerms.normalize_formal(fuchsian.germ, order=16)
    assert workloads.check_normal_form(fuchsian, result) is None
    wrong = workloads.GermCase(fuchsian.germ, "fuchsian", fuchsian.mu_x, fuchsian.rho + 1e-6)
    assert "rho error" in workloads.check_normal_form(wrong, result)

    oracles = workloads.Oracles(8, tmp_path)
    oracles.prepare()
    unit = oracles.next_round()[0]
    items = oracles.run(unit)
    (label, w), item = unit.items[0], items[0]
    assert workloads.check_oracle(label, w, item) is None
    shifted = (w[0] * (1 + 1e-4), w[1])
    assert "oracle error" in workloads.check_oracle(label, shifted, item)


def test_tracer_patches_every_binding_and_restores_it():
    original = merocon.algebra.poly_roots
    assert merocon.fields.poly_roots is original
    spans = tracer.Tracer()
    spans.install()
    try:
        assert merocon.algebra.poly_roots is not original
        assert merocon.fields.poly_roots is merocon.algebra.poly_roots
        with pytest.raises(RuntimeError):
            tracer.assert_pristine()
        merocon.fields.connection_data(workloads.THREE_THIRDS)
    finally:
        spans.restore()
    tracer.assert_pristine()
    assert merocon.algebra.poly_roots is original
    assert merocon.fields.poly_roots is original
    metrics = spans.metrics()
    assert metrics["algebra.poly_roots.calls"][0] > 0
    assert metrics["fields.connection_data.self_s"][0] > 0


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_traced_counts_repeat_exactly_for_a_seed():
    def counts():
        res = _result(_run("--workload", "classify", "--seed", "6", "--seconds", "0.01",
                           "--trace", "1"))
        return {k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first["algebra.poly_roots.calls"] > 0
    assert counts() == first


def test_traced_run_fails_when_outputs_differ(monkeypatch, capsys, tmp_path):
    serial = iter(range(10**6))
    monkeypatch.setattr(workloads.Classify, "digest", lambda self, unit, result: [next(serial)])
    assert _measure(tmp_path, "classify", trace=1) == 1
    captured = capsys.readouterr()
    assert "differ" in captured.err
    assert not captured.out.strip()
