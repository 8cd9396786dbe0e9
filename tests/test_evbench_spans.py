"""evbench/traced_cli.py wraps functions by name on evrep's modules; its
per-layer metrics need a span under each name below. A refactor that renames,
moves or bypasses one of the wrapped functions drops its span; this test
runs the traced CLI the way evbench does and catches that."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from evrep.io import (
    _CHUNK_RECORDS, write_annotations_csv, write_detections_csv, write_events_binary, write_flow,
)
from evrep.model import Annotation, Detection, FlowField, FrameGeometry

from conftest import make_random_stream

ROOT = Path(__file__).resolve().parent.parent

# every span name evbench/run.py's per_layer reads, by the command that makes it
EXPECTED = {
    "taf": {"io.read_events", "io.write_tensor", "model.window_slice", "taf.step", "taf.render"},
    "volume": {"io.read_events", "io.write_tensor", "encoders.volume"},
    "count": {"io.read_events", "io.write_tensor", "encoders.count"},
    "sae": {"io.read_events", "io.write_tensor", "encoders.sae"},
    "levels": {"io.read_csv", "io.read_flow", "motion.sanitize", "motion.flow_intensity",
               "motion.bbofd", "motion.levels"},
    "eval": {"io.read_csv", "motion.sanitize", "evalmap.match_timestamps", "evalmap.map_metric",
             "evalmap.map_by_level"},
}


def _span_names(tmp_path: Path, argv: list[str]) -> list[str]:
    """The name of each span the traced command recorded, in order."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "evbench" / "traced_cli.py"), str(spans), *argv],
                   env=env, check=True, capture_output=True)
    return [span[0] for span in json.loads(spans.read_text())["spans"]]


def _traced(tmp_path: Path, argv: list[str]) -> set[str]:
    return set(_span_names(tmp_path, argv))


def test_traced_cli_records_every_span_per_layer_reads(rng, tmp_path):
    geo = FrameGeometry(16, 12, 50_000)
    events = tmp_path / "rec.evs"
    events.write_bytes(write_events_binary(make_random_stream(rng, geo, 500)))
    boxes = [Annotation(t, x, 2, 4, 4, 0) for t in (10_000, 20_000) for x in (1, 8)]
    anns = tmp_path / "boxes.csv"
    anns.write_text(write_annotations_csv(boxes))
    dets = tmp_path / "dets.csv"
    dets.write_text(write_detections_csv(
        [Detection(b.t, b.x, b.y, b.w, b.h, b.class_id, 0.9) for b in boxes]))
    flows = tmp_path / "flows"
    flows.mkdir()
    for t in (10_000, 20_000):
        u = rng.random((12, 16)).astype(np.float32)
        write_flow(FlowField.from_planes(t, u, u), flows / f"{t}.flow")
    levels = tmp_path / "levels.csv"

    seen = {}
    for rep in ("taf", "volume", "count", "sae"):
        seen[rep] = _traced(tmp_path, ["encode", "--rep", rep, "--events", str(events),
                                       "--out-dir", str(tmp_path / f"out_{rep}")])
    seen["levels"] = _traced(tmp_path, ["levels", "--flows", str(flows), "--annotations", str(anns),
                                        "--out", str(levels)])
    seen["eval"] = _traced(tmp_path, ["eval", "--detections", str(dets), "--annotations", str(anns),
                                      "--levels", str(levels), "--width", "16", "--height", "12"])
    for op, names in EXPECTED.items():
        assert names <= seen[op], (op, names - seen[op])


def test_one_read_events_span_per_reader_call(rng, tmp_path):
    # io.read_events is a median over the reader's calls: one per chunk the
    # encode loop reads, then the empty call that finds the end of the file
    n = 2 * _CHUNK_RECORDS + 100
    events = tmp_path / "rec.evs"
    events.write_bytes(write_events_binary(
        make_random_stream(rng, FrameGeometry(16, 12, 200_000), n)))
    names = _span_names(tmp_path, ["encode", "--rep", "count", "--events", str(events),
                                   "--out-dir", str(tmp_path / "out")])
    assert names.count("io.read_events") == -(-n // _CHUNK_RECORDS) + 1 == 4
