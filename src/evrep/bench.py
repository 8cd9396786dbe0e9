"""Per-step timing of the encoders, isolated from file I/O.

The stream is fully materialized in memory before any clock starts; one
sample is the wall-clock time to build one representation tensor. The first
``warmup`` steps run and are discarded, so reported statistics come from
exactly ``steps`` recorded samples.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .encoders import event_count_image, event_volume, surface_active_events
from .errors import InvalidParamError
from .model import EncoderParams, EventStream, WindowView, detection_grid
from .taf import taf_init, taf_render, taf_step

REPRESENTATIONS = ("taf", "volume", "count", "sae")


@dataclass
class BenchReport:
    """Recorded per-step samples plus derived statistics."""

    representation: str
    params: dict
    samples_us: list[float] = field(default_factory=list)
    warmup: int = 0
    events_processed: int = 0

    @property
    def steps(self) -> int:
        return len(self.samples_us)

    def _nearest_rank(self, q: float) -> float:
        ordered = sorted(self.samples_us)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def median_us(self) -> float:
        ordered = sorted(self.samples_us)
        n = len(ordered)
        mid = n // 2
        return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def p95_us(self) -> float:
        return self._nearest_rank(0.95)

    @property
    def mean_us(self) -> float:
        return sum(self.samples_us) / len(self.samples_us)

    def to_text(self) -> str:
        lines = [
            f"representation: {self.representation}",
            f"params: {self.params}",
            f"steps: {self.steps} (after {self.warmup} warm-up)",
            f"events processed: {self.events_processed}",
            f"median: {self.median_us / 1000:.3f} ms",
            f"p95:    {self.p95_us / 1000:.3f} ms",
            f"mean:   {self.mean_us / 1000:.3f} ms",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = "step,sample_us\n"
        rows = "".join(f"{i},{s:.3f}\n" for i, s in enumerate(self.samples_us))
        return header + rows


def bench_encoder(
    stream: EventStream,
    representation: str,
    params: EncoderParams,
    n_steps: int | None = None,
    warmup: int = 10,
    at_times: list[int] | None = None,
) -> BenchReport:
    """Time one representation over a stream without writing tensors.

    TAF always runs on the periodic grid (one incremental step + render per
    sample). The other encoders use the same grid unless explicit
    ``at_times`` are supplied.
    """
    if representation not in REPRESENTATIONS:
        raise InvalidParamError(f"unknown representation {representation!r}")
    if warmup < 0:
        raise InvalidParamError("warmup must be non-negative")
    times = at_times
    if times is None:
        times = detection_grid(stream.geometry.t_max_us, params.delta_tau_us, n_steps)
    if len(times) <= warmup:
        raise InvalidParamError(f"{len(times)} steps leave no samples after {warmup} warm-up steps")

    report = BenchReport(
        representation=representation,
        params=_param_dict(representation, params),
        warmup=warmup,
    )
    clock = time.perf_counter

    if representation == "taf":
        if at_times is not None:
            raise InvalidParamError("taf is periodic; explicit timestamps not supported")
        dt = params.delta_tau_us
        t_max = stream.geometry.t_max_us
        state = taf_init(stream.geometry, params.queue_depth, dt)
        for step, t_n in enumerate(times):
            window = WindowView.from_stream(stream, t_n - dt, t_n, t_n)
            t0 = clock()
            taf_step(state, window)
            taf_render(state, t_max)
            elapsed = (clock() - t0) * 1e6
            if step >= warmup:
                report.samples_us.append(elapsed)
                report.events_processed += len(window)
        return report

    for step, t_n in enumerate(times):
        t0 = clock()
        if representation == "volume":
            event_volume(stream, t_n, params.delta_tau_us, params.bins)
        elif representation == "count":
            event_count_image(stream, t_n, params.recent_events)
        else:
            surface_active_events(stream, t_n, params.sae_decay_per_us)
        elapsed = (clock() - t0) * 1e6
        if step >= warmup:
            report.samples_us.append(elapsed)
            report.events_processed += _events_touched(stream, representation, params, t_n)
    return report


def _events_touched(stream: EventStream, representation: str, params: EncoderParams, t_n: int) -> int:
    if representation == "volume":
        i, j = stream.slice_range(t_n - params.bins * params.delta_tau_us, t_n)
        return j - i
    i, j = stream.slice_range(0, t_n)
    if representation == "count":
        return min(params.recent_events, j - i)
    return j - i


def _param_dict(representation: str, params: EncoderParams) -> dict:
    if representation == "taf":
        return {"queue_depth": params.queue_depth, "delta_tau_us": params.delta_tau_us}
    if representation == "volume":
        return {"bins": params.bins, "delta_tau_us": params.delta_tau_us}
    if representation == "count":
        return {"recent_events": params.recent_events}
    return {"sae_decay_per_us": params.sae_decay_per_us}
