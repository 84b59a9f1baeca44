"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, all_binding_sites  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# shrunken configs, so that each workload runs in a few seconds
TINY = {
    "eject-kicks": {"trajectories": 2, "trajectories_a": 1},
    "eject-smooth": {"trajectories": 4, "trajectories_a": 1,
                     "include_recoil_kicks": False},
    "emission-grid": {"N_values": [50], "trials": 3, "grid_points": 181},
    "fig1-oracle": {"N_values": [2, 5, 10, 20, 30, 50, 100], "trials": 4,
                    "full_integrator_cap": 5},
}


def test_tracer_restores_every_binding():
    import rydsources.cli  # noqa: F401  (loads every layer module)
    from rydsources import blockade, ejection, ensemble, optics
    before = [(owner, key, original)
              for _, owner, key, original, _ in all_binding_sites()]
    # the binding sites named in the tracer's docstring are all found
    found = {(getattr(o, "__name__", None), k) for o, k, _ in before}
    for site in [("rydsources.cli", "sample_cloud"),
                 ("rydsources.blockade", "mean_blockade_shift"),
                 ("rydsources.blockade", "pair_shift_magnitudes"),
                 ("rydsources.ensemble", "sample_cloud"),
                 ("rydsources.ejection", "solve_ivp"),
                 ("StatePotentialField", "force")]:
        assert site in found
    tracer = Tracer("selftest")
    tracer.install()
    try:
        for owner, key, original in before:
            assert getattr(owner, key) is not original
        cloud = ensemble.sample_cloud(3, 5e-6, 1)
        assert ensemble.mean_blockade_shift(cloud, ensemble.RydbergCoupling
                                            .calibrated(50)) > 0
    finally:
        tracer.uninstall()
    for owner, key, original in before:
        assert getattr(owner, key) is original
    assert blockade.solve_ivp is ejection.solve_ivp
    assert "force" in optics.StatePotentialField.__dict__
    names = [s[0] for s in tracer.spans]
    assert names.count("ensemble.sample_cloud") == 1
    assert tracer.counters["ensemble.atoms_sampled"] == 3
    assert tracer.counters["ensemble.pairs"] == 3


def test_span_self_time_and_candidates():
    spans = [("ejection.simulate_trajectory", 0.0, 10.0, -1),
             ("ejection.segment", 1.0, 5.0, 0),
             ("optics.force", 2.0, 3.0, 1),
             ("optics.total_scattering_rate", 6.0, 6.5, 0),
             ("optics.total_scattering_rate", 3.0, 3.5, 1)]
    counters = {"ejection.kicks": 1, "ejection.trajectories": 1,
                "ejection.rhs_evals": 40}
    out = metrics.span_metrics(spans, counters, 10.0)
    assert out["ejection.integrator_self_s"] == pytest.approx(2.5)
    assert out["ejection.kick_acceptance"] == 1.0
    assert out["ejection.rhs_evals_per_trajectory"] == 40
    assert out["ejection.self_share"] == pytest.approx((5.5 + 2.5) / 10)
    assert out["optics.total_scattering_rate.calls"] == 2


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_outputs(request, tmp_path_factory):
    """A tiny-size CLI run of one workload: (name, subcommand, out, cfg)."""
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    cfg = TINY[name]
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    sub = WORKLOADS[name]["subcommand"]
    out = tmp / "out"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "rydsources.cli", sub,
                           "--config", str(cfg_path), "--seed", "5",
                           "--out", str(out), "--workers", "1"],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return name, sub, out, cfg


def _corrupt(path, edit):
    with open(path) as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w") as fh:
        json.dump(data, fh)


CORRUPTIONS = {
    "eject": ("eject_summary.json",
              lambda d: d["states"]["b"].update(escape_fraction=0.5)),
    "emission": ("emission_metrics.json",
                 lambda d: d["patterns"][0].update(
                     peak_mean=d["patterns"][0]["N"] * (1 + 1e-6))),
    "fig1": ("fig1_summary.json",
             lambda d: d["closed_form_vs_integrator"][-1].update(
                 P_zero_integrator=1.01 * d["closed_form_vs_integrator"][-1]
                 ["P_zero_closed_form"])),
}


def test_checks_pass_then_reject_corruption(tiny_outputs, tmp_path):
    name, sub, out, cfg = tiny_outputs
    assert checks.check_outputs(sub, str(out), cfg) == []
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    filename, edit = CORRUPTIONS[sub]
    _corrupt(bad / filename, edit)
    assert checks.check_outputs(sub, str(bad), cfg)
    os.remove(bad / filename)
    assert checks.check_outputs(sub, str(bad), cfg) == [
        "missing output %s" % filename]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS[name], "config", TINY[name])
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    listed = [(m["name"], m["unit"]) for m in metrics.SPEC[section]]
    assert list(result["metrics"]) == [metric for metric, _ in listed]
    for metric, unit in listed:
        assert result["metrics"][metric]["unit"] == unit
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines[:-1]), metric
    assert any(line.split()[:1] == ["failed_share"] for line in lines)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        busy = {"eject": "ejection.simulate_trajectory.calls",
                "emission": "emission.single_photon_pattern.calls",
                "fig1": "blockade.evolve.calls"}
        assert values[busy[WORKLOADS[name]["subcommand"]]] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fig1-oracle", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
