"""rydsources benchmark: CLI workloads timed end to end, or traced by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload eject-kicks --seed 1 --seconds 33 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 33 --trace 1

Each run of a workload starts a fresh interpreter (perfbench/child.py)
that imports `rydsources` from this checkout's `src/`, loads the
workload's generated config and calls `rydsources.cli.main` with
`--seed`, `--out` and `--workers 1`. Runs repeat while the next one is
expected to end within `--seconds`, at least MIN_RUNS times. Run k
gets the CLI seed 1000 * seed + k, so one invocation averages over
several inputs and the same `--seed` always gives the same inputs. Every run's outputs are checked, and the
metrics are medians over the runs that passed. `--trace 1` runs each
CLI seed twice, untraced then traced, and reports the per-layer metrics
instead. The last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import metrics
from workloads import WORKLOADS, config_for, items_for

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")

NAMES = [w["name"] for w in metrics.SPEC["workloads"]]

MIN_RUNS = 3            # untraced runs per invocation, at least
TIME_LIMIT_S = 170      # stop starting runs, and kill a run, past this


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest():
    """sha256 over src/rydsources/*.py, for checkouts without git."""
    pkg = os.path.join(SRC, "rydsources")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


class Runner:
    """Runs one workload repeatedly in fresh interpreters under WORK."""

    def __init__(self, name, seed, deadline):
        self.seed = seed
        self.deadline = deadline
        self.subcommand = WORKLOADS[name]["subcommand"]
        self.config = config_for(name)
        self.dir = os.path.join(WORK, "%s-seed%d" % (name, seed))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)
        self.count = 0

    def run(self, k, traced):
        """One CLI run with seed 1000 * seed + k; returns a dict with
        `fails` (empty when it passed)."""
        i = self.count
        self.count += 1
        out_dir = os.path.join(self.dir, "out-%d" % i)
        result_path = os.path.join(self.dir, "result-%d.json" % i)
        spans_path = (os.path.join(self.dir, "spans-%d.json" % i)
                      if traced else "-")
        cmd = [sys.executable, os.path.join(BENCH, "child.py"), SRC,
               result_path, spans_path, "--", self.subcommand,
               "--config", self.config_path,
               "--seed", str(1000 * self.seed + k),
               "--out", out_dir, "--workers", "1"]
        rep = {"k": k, "traced": traced, "fails": []}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=_env(), cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            rep["fails"].append("run %d killed after %.0f s" % (i, timeout))
            return rep
        if proc.returncode != 0 or not os.path.exists(result_path):
            rep["fails"].append("child exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-500:]))
            return rep
        with open(result_path) as fh:
            rep["result"] = json.load(fh)
        if rep["result"]["rc"] != 0:
            rep["fails"].append("rydsources exited %d: %s" % (
                rep["result"]["rc"], proc.stderr.strip()[-500:]))
            return rep
        rep["fails"] = checks.check_outputs(self.subcommand, out_dir,
                                            self.config)
        if not rep["fails"] and traced:
            rep["layers"] = self._layer_metrics(out_dir, spans_path,
                                                rep["result"]["run_s"])
        shutil.rmtree(out_dir)
        return rep

    def _layer_metrics(self, out_dir, spans_path, run_s):
        with open(spans_path) as fh:
            trace = json.load(fh)
        summary_name = checks.OUTPUTS[self.subcommand][-1]
        with open(os.path.join(out_dir, summary_name)) as fh:
            summary = json.load(fh)
        layers = metrics.span_metrics(trace["spans"], trace["counters"],
                                      run_s)
        layers.update(metrics.output_metrics(self.subcommand, summary))
        layers["cli.output_bytes"] = _output_bytes(out_dir)
        return layers

    def import_times(self):
        """Median cumulative import times over three `-X importtime` runs."""
        samples = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c",
                 "import rydsources.cli"], env=_env(), cwd=ROOT,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
            samples.append(metrics.parse_importtime(proc.stderr))
        return {k: statistics.median(s[k] for s in samples)
                for k in samples[0]}


def measure(name, seed, seconds, trace):
    """Run one workload for `seconds`; returns the full report dict."""
    start = time.monotonic()
    load_start = os.getloadavg()
    runner = Runner(name, seed, start + TIME_LIMIT_S)
    importtime = runner.import_times() if trace else None
    reps = []
    k = 0
    while True:
        reps.append(runner.run(k, traced=False))
        if trace:
            reps.append(runner.run(k, traced=True))
        k += 1
        # stop when one more round would end past `seconds`, or near the
        # time limit
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / k
        if ((next_end > seconds and k >= (1 if trace else MIN_RUNS))
                or next_end > TIME_LIMIT_S):
            break
    ok = [r for r in reps if not r["fails"]]
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "subcommand": runner.subcommand, "config": runner.config,
        "items": items_for(name),
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "failed_share": (len(reps) - len(ok)) / len(reps),
        "failures": [f for r in reps for f in r["fails"]],
        "runs": [{k: v for k, v in r["result"].items() if k != "provenance"}
                 for r in reps if "result" in r],
        "provenance": {
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "seed": seed,
            "run_seconds": seconds,
        },
    }
    if ok:
        report["provenance"].update(ok[0]["result"]["provenance"])
    untraced = [r["result"] for r in ok if not r["traced"]]
    traced_reps = [r for r in ok if r["traced"]]
    if not trace and untraced:
        report["metrics"] = metrics.end_to_end(untraced, report["items"])
        report["spread"] = {
            key: metrics.quartiles([r[key] for r in untraced])
            for key in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")}
    elif trace and untraced and traced_reps:
        layer = {key: statistics.median(r["layers"][key]
                                        for r in traced_reps)
                 for key in traced_reps[0]["layers"]}
        layer.update(importtime)
        untraced_s = {r["k"]: r["result"]["run_s"]
                      for r in ok if not r["traced"]}
        layer["trace.overhead_s"] = statistics.median(
            r["result"]["run_s"] - untraced_s[r["k"]]
            for r in traced_reps if r["k"] in untraced_s)
        report["metrics"] = {name: layer[name] for name in metrics.PER_LAYER}
    return report


def print_report(report):
    print("workload %s  seed %d  trace %d  %d runs, %d failed  config %s"
          % (report["workload"], report["seed"], report["trace"],
             report["attempted"], report["failed"],
             json.dumps(report["config"], sort_keys=True)))
    print("provenance %s" % json.dumps(report["provenance"], sort_keys=True))
    for failure in report["failures"]:
        print("  FAILED: %s" % failure)
    for key, value in report.get("metrics", {}).items():
        line = "  %-42s %14.6g %s" % (key, value, metrics.UNITS[key])
        if key in report.get("spread", {}):
            q1, _, q3 = report["spread"][key]
            line += "   (q1 %.6g, q3 %.6g)" % (q1, q3)
        if report["trace"]:
            line += "   feeds %s" % metrics.FEEDS[key]
        print(line)
    print("  %-42s %14.6g %s   (%d of %d runs)"
          % ("failed_share", report["failed_share"], "ratio",
             report["failed"], report["attempted"]))


def result_line(report):
    values = report.get("metrics", {})
    return {"correct": report["failed"] == 0 and bool(values),
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {k: {"value": v, "unit": metrics.UNITS[k]}
                        for k, v in values.items()}}


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ["all"])
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rydsources", "cli.py")):
        print("perfbench: no rydsources sources under %s; run from a "
              "checkout of the repository" % SRC, file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    names = NAMES if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        report = measure(name, args.seed, args.seconds, bool(args.trace))
        with open(os.path.join(WORK, "report-%s-seed%d-trace%d.json"
                               % (name, args.seed, args.trace)), "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
        print_report(report)
        results[name] = result_line(report)
    if args.workload == "all":
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                            for k, v in r["metrics"].items()}}
    else:
        line = results[args.workload]
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
