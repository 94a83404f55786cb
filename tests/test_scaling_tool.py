"""The mesh-scaling tool ``tools/scaling.py``: its plan of points and the
schema of the document it writes (one small mesh, one step per point), and
the schema of the committed ``BENCH_scaling.json``."""

import importlib.util
import json
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("scaling", _ROOT / "tools" / "scaling.py")
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)

POINT_KEYS = {"scenario", "scheme", "points", "ordinates", "status", "steps", "rank_final",
              "l2_error", "setup_s", "step_ms", "step_ms_mean", "peak_rss_mib"}
SKIPPED_KEYS = {"scenario", "scheme", "points", "ordinates", "status", "reason"}


def _check_schema(doc, steps):
    assert set(doc) == {"tool", "steps", "machine", "points"}
    assert doc["steps"] == steps
    for point in doc["points"]:
        assert point["scheme"] in scaling.SCHEMES
        if point["status"] == "skipped":
            assert set(point) == SKIPPED_KEYS
            continue
        assert set(point) == POINT_KEYS
        # mms2d-16 reaches its final time in 5 steps
        assert point["status"] == "completed" and 1 <= point["steps"] <= steps
        assert len(point["step_ms"]) == point["steps"]
        assert point["setup_s"] > 0 and point["peak_rss_mib"] > 0
        assert 0 < point["l2_error"] < 1e-2


def test_plan_skips_only_the_dense_mms2d_256_point():
    plan = scaling.plan([16, 256])
    assert [(n, s) for n, s, _ in plan] == [(n, s) for n in (16, 256) for s in scaling.SCHEMES]
    skipped = [(n, s, why) for n, s, why in plan if why]
    assert skipped == [(256, "IMEX-S", "dense state of 2 GiB")]
    assert scaling.shape(128) == (32768, 512)


def test_scaling_tool_writes_its_schema(tmp_path, monkeypatch):
    monkeypatch.setattr(scaling, "SIZES", (16,))
    monkeypatch.setattr(scaling, "STEPS", 1)
    out = tmp_path / "scaling.json"
    assert scaling.main(["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    _check_schema(doc, 1)
    assert [p["scheme"] for p in doc["points"]] == list(scaling.SCHEMES)
    for point in doc["points"]:
        assert (point["points"], point["ordinates"]) == (512, 8)
        assert point["step_ms_mean"] == point["step_ms"][0] > 0


def test_committed_scaling_record_has_every_point():
    doc = json.loads((_ROOT / "BENCH_scaling.json").read_text())
    _check_schema(doc, scaling.STEPS)
    plan = scaling.plan(scaling.SIZES)
    assert [(p["scenario"], p["scheme"]) for p in doc["points"]] == [
        (f"mms2d-{n}", s) for n, s, _ in plan]
    assert [p["status"] == "skipped" for p in doc["points"]] == [bool(why) for *_, why in plan]
