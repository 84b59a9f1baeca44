"""The generated CLI config of each workload named in BENCHMARK.json.

The program sees only the config file written from `config` and the CLI
flags `--seed`, `--out` and `--workers 1`; the seed is the benchmark's
own `--seed` argument. `items` is the work one run does at the stated
size: trajectories (a + b) for `eject`, sampled clouds (N values times
trials) for `emission` and `fig1`.
"""

FIG1_N_VALUES = [2, 5, 10, 20, 30, 50, 100, 200, 350, 500]

WORKLOADS = {
    "eject-kicks": {
        "subcommand": "eject",
        "config": {"trajectories": 6, "trajectories_a": 2},
    },
    "eject-smooth": {
        "subcommand": "eject",
        "config": {"trajectories": 30, "trajectories_a": 6,
                   "include_recoil_kicks": False},
    },
    "emission-grid": {
        "subcommand": "emission",
        "config": {"N_values": [10, 20, 50], "trials": 3,
                   "grid_points": 181},
    },
    "fig1-oracle": {
        "subcommand": "fig1",
        "config": {"N_values": FIG1_N_VALUES, "trials": 12,
                   "full_integrator_cap": 30},
    },
}


def config_for(name):
    """The config dict the program receives for workload `name`."""
    return dict(WORKLOADS[name]["config"])


def items_for(name):
    """Units of work one run of the workload completes."""
    cfg = config_for(name)
    if WORKLOADS[name]["subcommand"] == "eject":
        return cfg["trajectories"] + cfg["trajectories_a"]
    return len(cfg["N_values"]) * cfg["trials"]
