"""Regenerate tests/golden.json: the sha256 of every CLI output file at
the small test configs of test_cli.py, with the provenance stripped.

Run from the repository root after a change that moves outputs on
purpose, and say in CHANGES.md which digests moved and why:

    PYTHONPATH=src python tests/make_golden.py
"""

import hashlib
import json
import os

from rydsources import __version__
from rydsources.cli import main
from test_cli import SMALL_EJECT, SMALL_EMISSION, SMALL_FIG1

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
CONFIGS = {"eject": SMALL_EJECT, "emission": SMALL_EMISSION,
           "fig1": SMALL_FIG1, "schedule": {"seed": 7}}


def stripped(path):
    """The file's bytes without its provenance: the CSV comment line, or
    the JSON top-level key (re-serialised as the CLI writes it)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        del payload["provenance"]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("# provenance:"))
    return text.encode()


def digests(root):
    """Run each subcommand into `root`/<subcommand>; {"sub/file": sha256}."""
    out = {}
    for sub, cfg in sorted(CONFIGS.items()):
        out_dir = os.path.join(root, sub)
        os.makedirs(out_dir)
        cfg_path = os.path.join(root, sub + ".json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        if main([sub, "--config", cfg_path, "--out", out_dir]) != 0:
            raise RuntimeError("%s exited nonzero" % sub)
        for name in sorted(os.listdir(out_dir)):
            out["%s/%s" % (sub, name)] = hashlib.sha256(
                stripped(os.path.join(out_dir, name))).hexdigest()
    return out


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"version": __version__, "digests": digests(tmp)}
    with open(GOLDEN, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
