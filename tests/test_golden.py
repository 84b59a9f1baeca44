"""Every CLI output at the small test configs matches its committed
digest (provenance stripped). A change that moves outputs on purpose
regenerates tests/golden.json with make_golden.py and bumps
`__version__`, so the diff shows which files moved."""

import json
import os

import pytest

from make_golden import GOLDEN, digests
from rydsources import __version__


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(root, {"sub/file": sha256}) from one run of every subcommand."""
    root = str(tmp_path_factory.mktemp("golden"))
    return root, digests(root)


def test_outputs_match_golden(outputs):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["version"] == __version__, (
        "golden.json was made at version %s; regenerate it"
        % golden["version"])
    got = outputs[1]
    assert sorted(got) == sorted(golden["digests"])
    moved = [name for name in sorted(got)
             if got[name] != golden["digests"][name]]
    assert not moved, "outputs differ from golden.json: %s" % ", ".join(moved)


def test_json_outputs_are_json(outputs):
    # NaN and Infinity are Python's extensions, not JSON (RFC 8259)
    def reject(name):
        raise ValueError("%s is not JSON" % name)

    root, got = outputs
    names = [name for name in got if name.endswith(".json")]
    assert names
    for name in names:
        with open(os.path.join(root, name)) as fh:
            json.load(fh, parse_constant=reject)
