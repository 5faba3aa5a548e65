"""The scale curve's child runner, timed and sampled (``tools/scale_curve.py``)."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

import crashbench

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_curve.py"


@pytest.fixture(scope="module")
def scale_curve():
    spec = importlib.util.spec_from_file_location("scale_curve", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"),
                    reason="needs /proc/PID/smaps_rollup")
def test_sampled_run_writes_what_a_timed_run_writes(scale_curve, tmp_path, fixtures):
    # The national fixtures are under the worker threshold, so the command
    # loads them in its own process and is the only process sampled.
    manifest = json.loads((fixtures / "manifests" / "national_2022.json").read_text())
    for entry in manifest["crash_sources"] + manifest["mileage"] + manifest["shares"]:
        for key in ("crash_file", "vehicle_file", "person_file", "file"):
            if key in entry:
                entry[key] = str(fixtures / "manifests" / entry[key])
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    src = Path(crashbench.__file__).resolve().parent.parent

    wall, rss, tree = scale_curve.run_cli(src, "ingest", tmp_path, tmp_path / "timed")
    assert wall > 0 and rss > 0 and tree == {}
    wall, rss, tree = scale_curve.run_cli(src, "ingest", tmp_path, tmp_path / "sampled",
                                          sample=True)
    assert tree["tree_pss_mib"] > 0 and tree["tree_rss_mib"] > 0
    assert tree["processes"] == 1
    assert (scale_curve.canonical_digests("ingest", tmp_path / "sampled")
            == scale_curve.canonical_digests("ingest", tmp_path / "timed"))
