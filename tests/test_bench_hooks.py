"""The benchmark's hooks into the library must hold without running it.

`perfbench/tracing.py` patches the functions and methods it lists at the
names their callers look them up under.  A refactor that deletes or
renames one of them would only show when the benchmark runs with
`--trace 1`; this test makes it fail here instead.  Likewise the planar
workloads' outputs must keep the digests `perfbench/notes.json` records.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dpfcolor

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = ([(owner, attr) for owner, attr, _ in tracing.SPANS + tracing.COUNTS]
             + list(tracing.DEPTH_ONLY))
    missing = []
    for owner, attr in names:
        mod, _, cls = owner.partition(":")
        obj = importlib.import_module(mod)
        if cls:
            # The tracer patches methods in the class's own namespace.
            obj = getattr(obj, cls, None)
            found = obj is not None and attr in vars(obj)
        else:
            found = hasattr(obj, attr)
        if not found:
            missing.append(f"{owner}.{attr}")
    assert len(names) > 40
    assert missing == []



@pytest.mark.parametrize("name", ["planar_fan", "planar_chord"])
def test_planar_workloads_keep_their_seed_1_digests(name, monkeypatch, tmp_path):
    """The golden corpus has no grids and no random triangulated polygons,
    but the planar workloads do.  Rebuild the rounds that seed 1's digest
    covers, solve and check each instance as `perfbench/run.py` does, and
    compare the digest with the one `perfbench/notes.json` records."""
    monkeypatch.setattr(sys, "path", [str(ROOT), *sys.path])  # run.py imports perfbench
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workload = run.WORKLOADS[name](dpfcolor, 1, str(tmp_path))
    rounds = workload.rounds[:workload.digest_rounds]
    digest = run.Digest(inst.key for rnd in rounds for inst in rnd)
    for inst in (inst for rnd in rounds for inst in rnd):
        err, text = workload.check(inst, workload.op(inst))
        assert err is None, (inst.key, err)
        digest.add(inst.key, text)
    notes = json.loads((ROOT / "perfbench" / "notes.json").read_text(encoding="utf-8"))
    expected = notes["workloads"][name]["digest_seed_1"]
    assert f"sha256 {digest.hexdigest()} over {digest.covered()} instances" == expected
