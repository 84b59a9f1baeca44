"""Every CLI output at the small test configs matches its committed
digest (provenance stripped). A change that moves outputs on purpose
regenerates tests/golden.json with make_golden.py and bumps
`__version__`, so the diff shows which files moved."""

import json

from make_golden import GOLDEN, digests
from rydsources import __version__


def test_outputs_match_golden(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["version"] == __version__, (
        "golden.json was made at version %s; regenerate it"
        % golden["version"])
    got = digests(str(tmp_path))
    assert sorted(got) == sorted(golden["digests"])
    moved = [name for name in sorted(got)
             if got[name] != golden["digests"][name]]
    assert not moved, "outputs differ from golden.json: %s" % ", ".join(moved)
