"""One workload run in a fresh interpreter.

Usage: child.py SRC_DIR RESULT_JSON SPANS_JSON|- -- <rydsources CLI args>

Times the set-up (import of `rydsources.cli` plus the config load) and
the run (`rydsources.cli.main` on the given arguments), and writes them
with the CPU time of each, peak RSS, exit code and provenance to
RESULT_JSON. With a SPANS_JSON path the run is traced and the spans are
written there afterwards. Exits 0 when the result was written, whatever
the CLI returned, and 2 when `rydsources` was not imported from SRC_DIR.
"""

import json
import os
import resource
import sys
import time


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def blas_info():
    """Loaded OpenBLAS libraries with their configuration and threads."""
    import ctypes
    import re
    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    info = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, prefix + "_get_num_threads" + suffix,
                                  None)
                config = getattr(lib, prefix + "_get_config" + suffix, None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        info.append(entry)
    return info


def provenance():
    import platform
    import numpy
    import scipy
    import rydsources
    return {
        "rydsources_version": rydsources.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS")},
    }


def main(argv):
    src, result_path, spans_path = argv[:3]
    cli_args = argv[4:]
    config_path = cli_args[cli_args.index("--config") + 1]

    t0 = time.perf_counter()
    setup_cpu0 = _cpu_s()
    import rydsources.cli as cli
    from rydsources.config import load_config_file
    load_config_file(cli_args[0], config_path)
    setup_cpu_s = _cpu_s() - setup_cpu0
    t1 = time.perf_counter()

    pkg = os.path.dirname(os.path.abspath(cli.__file__))
    if pkg != os.path.join(os.path.abspath(src), "rydsources"):
        print("rydsources imported from %s, not from %s" % (pkg, src),
              file=sys.stderr)
        return 2

    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer(run_id=os.path.basename(spans_path))
        tracer.install()
    cpu0 = _cpu_s()
    t2 = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        t3 = time.perf_counter()
        cpu1 = _cpu_s()
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(spans_path)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump({"rc": rc, "setup_s": t1 - t0, "setup_cpu_s": setup_cpu_s,
                   "run_s": t3 - t2,
                   "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kb / 1024.0,
                   "provenance": provenance()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
