"""Run one evrep CLI command with spans around its calls into each layer.

    python3 evbench/traced_cli.py SPANS.json <evrep arguments...>

The command runs through evrep.cli.main, unchanged; before it starts, the
public functions the CLI reaches (directly or through taf_sequence and
map_by_level) are replaced, in this process only, by wrappers that record a
span: name, start, end, index of the enclosing span, and one figure where
the layer has one (events stepped, bytes written, minor faults, peak RSS).
evrep.evalmap.iou is only counted, since it runs millions of times.
Spans stay in memory and are written to SPANS.json when the command ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import types


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.iou_calls = 0

    def wrap(self, name, fn, figure=None, faults=False):
        """fn with a span; its figure is figure(args), or with faults=True the
        minor page faults the call took."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = _minflt() if faults else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            value = _minflt() - before if faults else figure(args) if figure else None
            spans[index] = (name, start, end, parent, value)
            return result

        return traced

    def count_iou(self, fn):
        def counted(a, b):
            self.iou_calls += 1
            return fn(a, b)

        return counted


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_kb(args) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _events(args) -> int:
    return len(args[1])


def _nbytes(args) -> int:
    return int(args[0].nbytes)


def install(tracer: Tracer):
    import evrep.cli as cli
    import evrep.evalmap as evalmap
    import evrep.taf as taf

    wrap = tracer.wrap
    for attr, name, figure in (
        ("read_events_binary", "io.read_events", _peak_rss_kb),
        ("write_tensor", "io.write_tensor", _nbytes),
        ("read_annotations_csv", "io.read_csv", None),
        ("read_detections_csv", "io.read_csv", None),
        ("read_flow", "io.read_flow", None),
        ("event_volume", "encoders.volume", None),
        ("event_count_image", "encoders.count", None),
        ("surface_active_events", "encoders.sae", None),
        ("sanitize_report", "motion.sanitize", None),
        ("flow_intensity", "motion.flow_intensity", None),
        ("bbofd", "motion.bbofd", None),
        ("motion_levels", "motion.levels", None),
        ("map_by_level", "evalmap.map_by_level", None),
    ):
        setattr(cli, attr, wrap(name, getattr(cli, attr), figure))
    map_metric = wrap("evalmap.map_metric", evalmap.map_metric)
    cli.map_metric = evalmap.map_metric = map_metric
    evalmap.match_timestamps = wrap("evalmap.match_timestamps", evalmap.match_timestamps)
    evalmap.iou = tracer.count_iou(evalmap.iou)
    # taf_sequence looks these up in evrep.taf at every step
    taf.WindowView = types.SimpleNamespace(
        from_stream=wrap("model.window_slice", taf.WindowView.from_stream))
    taf.taf_step = wrap("taf.step", taf.taf_step, _events)
    taf.taf_render = wrap("taf.render", taf.taf_render, faults=True)
    return wrap("cli.main", cli.main)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    status = install(tracer)(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "iou_calls": tracer.iou_calls}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
