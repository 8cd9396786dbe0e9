"""Test-only oracle for evrep.taf.temporal_active_focus: the batch TAF.

It recomputes the tensor at t_n from the whole prefix of the stream with
plain Python dictionaries, and shares no state or code path with the
incremental encoder, which must match it within 1e-6. It does no parameter
checks; the production function does those.
"""

from __future__ import annotations

import numpy as np

from evrep.model import EventStream, TensorCHW
from evrep.taf import transform_elapse


def taf_batch_oracle(
    stream: EventStream,
    t_n: int,
    delta_tau_us: int,
    queue_depth: int,
    t_max_us: int,
) -> TensorCHW:
    """For every (x, y, p): split [0, t_n) into delta_tau-aligned periods (the
    last one possibly partial), keep the K most recent non-empty ones, store
    each period's mean elapse to t_n, and render exactly like taf_render."""
    geo = stream.geometry
    h, w = geo.height, geo.width
    j = int(np.searchsorted(stream.t, t_n, side="left"))

    per_cell: dict[tuple[int, int, int], dict[int, list[float]]] = {}
    ts = stream.t[:j].tolist()
    xs = stream.x[:j].tolist()
    ys = stream.y[:j].tolist()
    ps = stream.p[:j].tolist()
    for t, x, y, p in zip(ts, xs, ys, ps):
        period = t // delta_tau_us
        cell = per_cell.setdefault((p, y, x), {})
        acc = cell.setdefault(period, [0.0, 0])
        acc[0] += t
        acc[1] += 1

    out = np.zeros((2 * queue_depth, h, w), dtype=np.float32)
    for (p, y, x), periods in per_cell.items():
        recent = sorted(periods)[-queue_depth:]
        for slot, period in enumerate(reversed(recent)):
            total, n = periods[period]
            elapse = t_n - total / n
            out[2 * slot + p, y, x] = transform_elapse(elapse, t_max_us)
    return out
