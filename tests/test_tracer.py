"""The benchmark's span tracer still finds every name it patches.

perfbench/tracer.py wraps layer functions by module and attribute name
and raises at install when one is gone, which fails a traced benchmark
run. Its own self-tests sit outside `testpaths`, so this checks the
bindings here, on a tiny kicked `eject` run and a small kick-free one
through the CLI, and the import-time parse a traced run makes before its first run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import rydsources.cli as cli
from rydsources import ejection

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
METRICS = os.path.join(ROOT, "perfbench", "metrics.py")


def load_perfbench(path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_eject(tmp_path, kicks, n_b=2, n_a=1):
    """A short CLI eject of n_b |b> + n_a |a> atoms under the tracer;
    returns the tracer module and the Tracer after the run."""
    tracer = load_perfbench(TRACER)
    sites = tracer.all_binding_sites()
    cfg = tmp_path / "eject.json"
    cfg.write_text(json.dumps({
        "trajectories": n_b, "trajectories_a": n_a, "duration": "40 us",
        "include_recoil_kicks": kicks, "profile_samples": 5}))
    tr = tracer.Tracer(run_id="tiny-eject")
    tr.install()
    try:
        rc = cli.main(["eject", "--config", str(cfg), "--seed", "3",
                       "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert rc == 0
    # every original is back in place
    assert [site[3] for site in tracer.all_binding_sites()] == [
        site[3] for site in sites]
    return tracer, tr


def test_tracer_binds_every_target(tmp_path):
    tracer, tr = traced_eject(tmp_path, kicks=True)
    spans = {site[0] for site in tracer.all_binding_sites()}
    assert spans == ({target[0] for target in tracer.TARGETS}
                     | {tracer.SEGMENT[0]})
    recorded = [span[0] for span in tr.spans]
    assert recorded.count("ejection.simulate_trajectory") == 3
    assert "ejection.segment" in recorded
    assert tr.counters["ejection.trajectories"] == 3


def test_kick_free_group_is_one_segment(tmp_path):
    # the batched path eject-smooth times: both states in one system of
    # the smallest size that runs as one
    _, tr = traced_eject(tmp_path, kicks=False,
                         n_b=ejection._MIN_BATCH - 1, n_a=1)
    recorded = [span[0] for span in tr.spans]
    assert recorded.count("ejection.segment") == 1
    assert "ejection.simulate_trajectory" not in recorded


def test_importtime_parse_finds_both_modules():
    # a traced run reads both cumulative times; a missing key exits 1
    metrics = load_perfbench(METRICS)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import rydsources.cli"],
        env=env, capture_output=True, text=True, check=True)
    times = metrics.parse_importtime(proc.stderr)
    assert set(times) == {"cli.import_s", "cli.import_scipy_integrate_s"}
    assert all(value > 0 for value in times.values())
