"""The benchmark's span tracer still finds every name it patches.

perfbench/tracer.py wraps layer functions by module and attribute name
and raises at install when one is gone, which fails a traced benchmark
run. Its own self-tests sit outside `testpaths`, so this checks the
bindings here, on a tiny kicked `eject` run through the CLI.
"""

import importlib.util
import json
import os

import rydsources.cli as cli

TRACER = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target(tmp_path):
    tracer = load_tracer()
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
