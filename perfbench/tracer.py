"""Span tracing of rydsources from outside the package.

`Tracer.install()` wraps each layer's boundary functions at every place
they are bound: `from .x import name` copies in other modules, the
`ejection.solve_ivp` binding (one span per integrator segment) and the
`StatePotentialField` methods on the class. `uninstall()` puts every
original object back. Spans stay in memory as
(name, start, end, parent index) and are written out by `dump()` once
the run is over. Counters record the work each call did, taken from its
arguments and result.

Only layer boundaries are wrapped. Helpers called inside a hot boundary
(`intensity`, `scattering_rate`, ...) are not, so their time counts as
the boundary's self time and the tracer stays cheap per call.
"""

import functools
import json
import sys
import time


def _points(r):
    """Positions in an optics call: 1 for a single point, else leading size."""
    shape = getattr(r, "shape", None)
    if not shape or len(shape) == 1:
        return 1
    n = 1
    for d in shape[:-1]:
        n *= d
    return n


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_optics(tr, args, kwargs, result):
    tr.add("optics.points", _points(_arg(args, kwargs, 1, "r")))


def _count_sample_cloud(tr, args, kwargs, result):
    tr.add("ensemble.atoms_sampled", result.n_atoms)


def _count_pairs(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "cloud").n_atoms
    tr.add("ensemble.pairs", n * (n - 1) // 2)


def _count_hamiltonian(tr, args, kwargs, result):
    dim = result.shape[0]
    tr.add("blockade.basis_dim_sum", dim)
    tr.counters["blockade.basis_dim_max"] = max(
        tr.counters.get("blockade.basis_dim_max", 0), dim)


def _count_segment(tr, args, kwargs, result):
    tr.add("ejection.rhs_evals", result.nfev)


def _count_trajectory(tr, args, kwargs, result):
    tr.add("ejection.trajectories", 1)
    tr.add("ejection.kicks", result.photons_sampled or 0)
    tr.add("ejection.truncated", int(bool(result.truncated)))


def _count_pattern(tr, pattern):
    terms = pattern.values.size * pattern.n_atoms
    tr.add("emission.phase_terms", terms)
    tr.add("emission.bytes_computed", 16 * terms)


def _count_single(tr, args, kwargs, result):
    _count_pattern(tr, result)


def _count_double(tr, args, kwargs, result):
    """Count grid directions, and wrap the evaluator to count reads."""
    _count_pattern(tr, result)
    tr.add("emission.double_directions_computed", result.values.size)
    evaluator = result.evaluator

    def counted(directions):
        n = _points(directions)
        tr.add("emission.double_directions_read", n)
        tr.add("emission.double_directions_computed", n)
        return evaluator(directions)
    result.evaluator = counted


# (span name, module, attribute, counter). Span names are
# "<layer>.<function>"; the layer is the rydsources module.
TARGETS = [
    ("cli.main", "rydsources.cli", "main", None),
    ("config.load_config_file", "rydsources.config", "load_config_file",
     None),
    ("config.load_config", "rydsources.config", "load_config", None),
    ("ensemble.sample_cloud", "rydsources.ensemble", "sample_cloud",
     _count_sample_cloud),
    ("ensemble.mean_blockade_shift", "rydsources.ensemble",
     "mean_blockade_shift", _count_pairs),
    ("ensemble.pair_shift_magnitudes", "rydsources.ensemble",
     "pair_shift_magnitudes", None),
    ("blockade.fig1_scan", "rydsources.blockade", "fig1_scan", None),
    ("blockade.build_hamiltonian", "rydsources.blockade",
     "build_hamiltonian", _count_hamiltonian),
    ("blockade.evolve", "rydsources.blockade", "evolve", None),
    ("optics.force", "rydsources.optics", "StatePotentialField.force",
     _count_optics),
    ("optics.potential", "rydsources.optics",
     "StatePotentialField.potential", _count_optics),
    ("optics.total_scattering_rate", "rydsources.optics",
     "StatePotentialField.total_scattering_rate", _count_optics),
    ("ejection.sample_thermal_initial", "rydsources.ejection",
     "sample_thermal_initial", None),
    ("ejection.simulate_trajectory", "rydsources.ejection",
     "simulate_trajectory", _count_trajectory),
    ("ejection.scan_fig2", "rydsources.ejection", "scan_fig2", None),
    ("ejection.collimation_stats", "rydsources.ejection",
     "collimation_stats", None),
    ("emission.single_photon_pattern", "rydsources.emission",
     "single_photon_pattern", _count_single),
    ("emission.double_excitation_pattern", "rydsources.emission",
     "double_excitation_pattern", _count_double),
    ("emission.pattern_metrics", "rydsources.emission", "pattern_metrics",
     None),
]

# solve_ivp is scipy's; only its binding in ejection is an ejection
# segment (blockade binds the same object for its adaptive method).
SEGMENT = ("ejection.segment", "rydsources.ejection", "solve_ivp",
           _count_segment)


def binding_sites(module, attr):
    """(owner, name, original) for every place `module.attr` is bound.

    A method is bound once, on its class. A module-level function is
    bound in its own module and under any name in any loaded rydsources
    module that holds the same object.
    """
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    original = getattr(mod, attr)
    sites = []
    for name, m in sorted(sys.modules.items()):
        if m is None or not (name == "rydsources"
                             or name.startswith("rydsources.")):
            continue
        for key, value in list(vars(m).items()):
            if value is original:
                sites.append((m, key, original))
    return sites


def all_binding_sites():
    """Every (span name, owner, attribute, original, counter) to patch."""
    sites = []
    for span, module, attr, counter in TARGETS:
        for owner, key, original in binding_sites(module, attr):
            sites.append((span, owner, key, original, counter))
    span, module, attr, counter = SEGMENT
    mod = sys.modules[module]
    sites.append((span, mod, attr, getattr(mod, attr), counter))
    return sites


class Tracer:
    """In-memory span recorder around rydsources layer boundaries."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self._stack = []
        self._patched = []

    def add(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        wrappers = {}
        for span, owner, key, original, counter in all_binding_sites():
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = self.wrap(span, original, counter)
                wrappers[id(original)] = wrapper
            setattr(owner, key, wrapper)
            self._patched.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "counters": self.counters,
                       "spans": self.spans}, fh, separators=(",", ":"))
