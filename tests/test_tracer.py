"""The benchmark's span tracer still finds every name it patches.

perfbench/tracer.py wraps layer functions by module and attribute name
and raises at install when one is gone, which fails a traced benchmark
run. Its own self-tests sit outside `testpaths`, so this checks the
bindings here, on a tiny kicked `eject` run through the CLI, and the
import-time parse a traced run makes before its first run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import rydsources.cli as cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
METRICS = os.path.join(ROOT, "perfbench", "metrics.py")


def load_perfbench(path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target(tmp_path):
    tracer = load_perfbench(TRACER)
    sites = tracer.all_binding_sites()
    spans = {site[0] for site in sites}
    assert spans == ({target[0] for target in tracer.TARGETS}
                     | {tracer.SEGMENT[0]})

    cfg = tmp_path / "eject.json"
    cfg.write_text(json.dumps({
        "trajectories": 2, "trajectories_a": 1, "duration": "40 us",
        "include_recoil_kicks": True, "profile_samples": 5}))
    tr = tracer.Tracer(run_id="tiny-eject")
    tr.install()
    try:
        rc = cli.main(["eject", "--config", str(cfg), "--seed", "3",
                       "--out", str(tmp_path / "out")])
    finally:
        tr.uninstall()
    assert rc == 0
    recorded = [span[0] for span in tr.spans]
    assert recorded.count("ejection.simulate_trajectory") == 3
    assert "ejection.segment" in recorded
    assert tr.counters["ejection.trajectories"] == 3
    # every original is back in place
    assert [site[3] for site in tracer.all_binding_sites()] == [
        site[3] for site in sites]


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
