"""Test-only oracle for evrep.encoders.surface_active_events: the batch SAE.

It re-reduces the whole prefix [0, t_n) at every call, so it is quadratic over
a run of detection times, and shares no state with the incremental encoder,
which must reproduce every tensor it returns exactly. It does no parameter
checks; the production function does those.
"""

from __future__ import annotations

import numpy as np

from evrep.model import EventStream, TensorCHW


def sae_batch_oracle(stream: EventStream, t_n: int, decay_per_us: float) -> TensorCHW:
    """exp(decay * (t_latest - t_n)) per (p, y, x) over every event before t_n; 0 if none."""
    geo = stream.geometry
    h, w = geo.height, geo.width
    j = int(np.searchsorted(stream.t, t_n, side="left"))
    t = stream.t[:j]
    x = stream.x[:j].astype(np.int64)
    y = stream.y[:j].astype(np.int64)
    p = stream.p[:j].astype(np.int64)

    latest = np.full(2 * h * w, -1, dtype=np.int64)
    # unbuffered reduction: well-defined under repeated pixel indices
    np.maximum.at(latest, (p * h + y) * w + x, t)

    out = np.zeros(2 * h * w, dtype=np.float64)
    seen = latest >= 0
    out[seen] = np.exp(decay_per_us * (latest[seen] - float(t_n)))
    return out.reshape(2, h, w).astype(np.float32)
