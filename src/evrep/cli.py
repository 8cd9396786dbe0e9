"""Command-line front end: encode | bench | levels | eval | augment.

Exit codes: 0 success, 1 usage error (a flag value outside its domain is
one), 2 data error (so are a file that cannot be read or written and an
allocation the machine refuses). Flags are the single configuration surface,
and each carries its own default. ``--config FILE`` replaces those defaults
from a JSON object: a key is an optional flag's long name with underscores,
its value is read as the same text on the command line would be, and
explicit flags override it.
An unknown key, a required flag's key, a wrong type or a bad choice is a
usage error. All randomness is seeded via ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, Sequence

from .augment import AugmentConfig, augment
from .encoders import WindowState, event_count_image, event_volume, sae_init, surface_active_events
from .errors import EvrepError, InvalidParamError
from .evalmap import EvalConfig, map_by_level, map_metric
from .io import (
    read_annotations_csv,
    read_detections_csv,
    read_events_binary,
    read_events_geometry,
    read_flow,
    read_levels_csv,
    read_tensor,
    tensor_file_size,
    write_csv,
    write_levels_csv,
    write_tensor,
)
from .model import EncoderParams, EventStream, FrameGeometry, TensorCHW
from .motion import bbofd, flow_intensity, motion_levels, sanitize_report
from .taf import taf_init, temporal_active_focus

# the EncoderParams fields each representation reads, in bench's report order
_REP_PARAMS = {
    "taf": ("queue_depth", "delta_tau_us"),
    "volume": ("bins", "delta_tau_us"),
    "count": ("recent_events",),
    "sae": ("sae_decay_per_us",),
}


class _Parser(argparse.ArgumentParser):
    """argparse terminates usage errors with status 2; this tool reserves 2
    for data errors, so a usage error argparse finds takes main's one path:
    exit 1 and one line, without argparse's usage block."""

    def error(self, message):
        raise _UsageError(message)


def _load_stream(path: str) -> EventStream:
    with open(path, "rb") as fh:
        return read_events_binary(fh)


def _config(build, **values):
    """build(**values) from flag values: a value outside its domain is a usage
    error, while the same InvalidParamError raised by input data stays a data
    error."""
    try:
        return build(**values)
    except InvalidParamError as exc:
        raise _UsageError(str(exc)) from None


def _encoder_params(args: argparse.Namespace) -> EncoderParams:
    """The encoder flags shared by encode and bench, checked."""
    return _config(
        EncoderParams,
        delta_tau_us=args.delta_tau_us,
        bins=args.bins,
        recent_events=args.recent_events,
        sae_decay_per_us=args.sae_decay,
        queue_depth=args.queue_depth,
        kernel=args.kernel,
    )


def _annotation_times(args: argparse.Namespace) -> list[int] | None:
    """The distinct timestamps of --at-annotations in ascending order, or None
    without it."""
    if not args.at_annotations:
        return None
    annotations = read_annotations_csv(Path(args.at_annotations).read_text())
    return sorted({a.t for a in annotations})


def _detection_times(
    annotation_times: list[int] | None, geometry: FrameGeometry, params: EncoderParams
) -> Sequence[int]:
    """The annotation times, each checked against the geometry's [0, t_max],
    else the lazy grid delta_tau, 2 * delta_tau, ... within t_max (a partial
    last window is dropped)."""
    if annotation_times is None:
        dt, n = params.delta_tau_us, geometry.t_max_us // params.delta_tau_us
        return range(dt, (n + 1) * dt, dt)
    for t_n in annotation_times:
        geometry.check_detection_time(t_n)
    return annotation_times


def _tensors(
    stream: EventStream, rep: str, params: EncoderParams, times: Sequence[int]
) -> Iterator[tuple[int, TensorCHW, int]]:
    """The one loop from a stream to (t_n, tensor, events read so far), one
    per detection time, through the representation's init and read.

    TAF and SAE fold each step's new events into the state, so ``times`` must
    ascend. The table is built at each call, so each read is looked up in this
    module as the loop starts (TAF's window slice, step and render in
    evrep.taf at each step): evbench/traced_cli.py wraps them there, and a
    table built at import would keep the unwrapped reads.
    """
    init, read = {
        "taf": (taf_init, temporal_active_focus),
        "volume": (WindowState, event_volume),
        "count": (WindowState, event_count_image),
        "sae": (sae_init, surface_active_events),
    }[rep]
    state = init(stream.geometry, params)
    for t_n in times:
        yield t_n, read(stream, t_n, state), state.events_read


def _cmd_encode(args: argparse.Namespace) -> int:
    params = _encoder_params(args)
    stems = [Path(p).stem for p in args.events]
    if len(set(stems)) != len(stems):
        raise _UsageError("input files must have distinct stems (outputs would collide)")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    # every file's times, checked against its header, before the first write
    annotation_times = _annotation_times(args)
    plan = [
        (path, _detection_times(annotation_times, read_events_geometry(path), params))
        for path in args.events
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    written: list[Path] = []

    def encode(path: str, times: Sequence[int]) -> None:
        stream = _load_stream(path)
        checked = False
        for t_n, tensor, _ in _tensors(stream, args.rep, params, times):
            if not checked:  # a grid far past the last event would write until the disk is full
                need, free = len(times) * tensor_file_size(tensor), shutil.disk_usage(out_dir).free
                if need > free:
                    raise EvrepError(f"{path}: {len(times)} tensor file(s) need {need} bytes, "
                                     f"but {out_dir} has {free} free")
                checked = True
            out = out_dir / f"{Path(path).stem}_{t_n}.evtn"
            written.append(out)  # before the write starts, so a failed write goes too
            write_tensor(tensor, out)
            # freed before the next read allocates its tensor (so no enumerate,
            # which holds its last item until the next one is made)
            del tensor

    try:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            list((pool.map if args.jobs > 1 else map)(encode, *zip(*plan)))
    except BaseException:
        # a body error shows only once its file is read; the pool has drained,
        # so no worker writes any more, and a failed run leaves no tensor
        for out in written:
            out.unlink(missing_ok=True)
        raise
    print(f"wrote {len(written)} tensor file(s) to {out_dir}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time each step of the encode loop on a stream held in memory; write no tensors."""
    params = _encoder_params(args)
    if args.warmup < 0:
        raise _UsageError("--warmup must be non-negative")
    if args.steps is not None and args.steps < 1:
        raise _UsageError("--steps must be positive")
    # every flag and the times checked against the header before the body is read
    times = _detection_times(_annotation_times(args), read_events_geometry(args.events), params)
    if args.steps is not None:
        if args.steps > len(times):
            raise _UsageError(f"--steps must lie in [1, {len(times)}], one per detection time")
        times = times[: args.steps]
    n_times = len(times)
    if n_times <= args.warmup:
        raise _UsageError(f"{n_times} steps leave no samples after {args.warmup} warm-up steps")
    # a grid far past the last event would time until memory runs out
    need = 8 * (n_times - args.warmup)  # bytes, at least 8 per sample kept
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise EvrepError(f"{args.events}: {n_times - args.warmup} samples need {need} bytes, "
                         f"but the machine has {have} bytes")

    tensors = _tensors(_load_stream(args.events), args.rep, params, times)
    clock = time.perf_counter
    samples_us: list[float] = []
    events_processed = events_before = 0
    for step in range(n_times):
        start = clock()
        _, _, events_read = next(tensors)
        elapsed = (clock() - start) * 1e6
        if step >= args.warmup:
            samples_us.append(elapsed)
            events_processed += events_read - events_before
        events_before = events_read
    ordered, n = sorted(samples_us), len(samples_us)
    median_us = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    # p95 is the nearest-rank percentile: the ceil(0.95 n)-th smallest sample
    p95_us = ordered[math.ceil(0.95 * n) - 1]
    shown = {name: getattr(params, name) for name in _REP_PARAMS[args.rep]}
    print("\n".join([
        f"representation: {args.rep}",
        f"params: {shown}",
        f"steps: {n} (after {args.warmup} warm-up)",
        f"events processed: {events_processed}",
        f"median: {median_us / 1000:.3f} ms",
        f"p95:    {p95_us / 1000:.3f} ms",
        f"mean:   {sum(samples_us) / n / 1000:.3f} ms",
    ]))
    if args.csv:
        Path(args.csv).write_text(
            write_csv("step,sample_us", ((i, f"{s:.3f}") for i, s in enumerate(samples_us)))
        )
    return 0


def _cmd_levels(args: argparse.Namespace) -> int:
    annotations = read_annotations_csv(Path(args.annotations).read_text())
    paths = sorted(Path(args.flows).glob("*.flow"))
    if not paths:
        raise EvrepError(f"no .flow files under {args.flows}")
    # one flow field is held at a time; the first file sets the frame size
    # that sanitization clips to, and every file must have it
    flow = read_flow(paths[0])
    width, height = flow.width, flow.height
    report = sanitize_report(annotations, width, height)

    kept_by_t: dict[int, list[int]] = {}
    for pos, box in enumerate(report.kept):
        kept_by_t.setdefault(box.t, []).append(pos)
    values: list[float | None] = [None] * len(report.kept)
    for i, path in enumerate(paths):
        if i:
            flow = read_flow(path)
            if (flow.width, flow.height) != (width, height):
                raise EvrepError(
                    f"flow file {path} is {flow.width}x{flow.height}, "
                    f"but {paths[0]} is {width}x{height}"
                )
        if flow.t in kept_by_t:
            # a later file with the same timestamp overwrites an earlier one
            intensity = flow_intensity(flow)
            for pos in kept_by_t[flow.t]:
                values[pos] = bbofd(intensity, report.kept[pos])
    for box, value in zip(report.kept, values):
        if value is None:
            raise EvrepError(f"no flow field at timestamp {box.t}")
    if not values:
        raise EvrepError("no annotations survived sanitization")
    levels = motion_levels(values)

    out = Path(args.out)
    out.write_text(write_levels_csv(
        zip((box.t for box in report.kept), report.kept_indices, values, levels.levels)
    ))
    boundaries_path = Path(args.boundaries) if args.boundaries else out.with_suffix(".boundaries.csv")
    boundaries_path.write_text(write_csv("q20,q40,q60,q80", [levels.boundaries]))
    print(f"wrote {len(values)} rows to {out} (boundaries: {boundaries_path})")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    detections = read_detections_csv(Path(args.detections).read_text())
    annotations = read_annotations_csv(Path(args.annotations).read_text())
    cfg = _config(EvalConfig, timestamp_tolerance_us=args.tolerance_us)

    per_level: dict[int, float | None] = {}
    if args.levels:
        if args.width is None or args.height is None:
            raise _UsageError("--levels needs --width and --height for sanitization")
        if args.width <= 0 or args.height <= 0:
            raise _UsageError("frame dimensions must be positive")
        report = sanitize_report(annotations, args.width, args.height)
        level_rows = read_levels_csv(Path(args.levels).read_text())
        level_map = {(t, index): level for t, index, _, level in level_rows}
        try:
            levels = [level_map[(b.t, i)] for b, i in zip(report.kept, report.kept_indices)]
        except KeyError as missing:
            raise EvrepError(f"no level for annotation {missing}") from None
        result = map_by_level(
            detections, list(report.kept), levels, cfg, removed_boxes=report.removed_overlapping
        )
        overall, per_level = result.overall, result.per_level
    else:
        overall = map_metric(detections, annotations, cfg)

    # (section, key, printed label, value); a level with no boxes has value None
    results = [
        ("overall", "", "overall mAP", overall.overall_map),
        *(("level", lv, f"level {lv} mAP", v) for lv, v in per_level.items()),
        *(("class", c, f"class {c} AP", v) for c, v in sorted(overall.per_class.items())),
        *(("threshold", thr, f"IoU {thr:.2f} AP", v) for thr, v in overall.per_threshold.items()),
    ]
    lines = [f"{label}: {'n/a' if v is None else f'{v:.4f}'}" for _, _, label, v in results]
    rows = [(section, key, "" if v is None else v) for section, key, _, v in results]
    if overall.warning:
        lines.append(f"warning: {overall.warning}")
        rows.append(("warning", "", overall.warning))

    print("\n".join(lines))
    if args.csv:
        Path(args.csv).write_text(write_csv("section,key,value", rows))
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    tensor = read_tensor(args.input)
    cfg = _config(
        AugmentConfig,
        flip_prob=args.p1,
        crop_prob=args.p2,
        scale=args.alpha,
        seed=args.seed,
    )
    write_tensor(augment(tensor, cfg), args.output)
    print(f"wrote {args.output}")
    return 0


class _UsageError(Exception):
    pass


def _add_encoder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rep", required=True, choices=tuple(_REP_PARAMS),
                   help="representation to build")
    p.add_argument("--delta-tau-us", type=int, dest="delta_tau_us",
                   default=EncoderParams.delta_tau_us, help="sampling period in µs")
    p.add_argument("--bins", "--b", type=int, dest="bins", default=EncoderParams.bins,
                   help="temporal bins for --rep volume")
    p.add_argument("--queue-depth", "--k", type=int, dest="queue_depth",
                   default=EncoderParams.queue_depth, help="FIFO depth for --rep taf")
    p.add_argument("--recent-events", "--n", type=int, dest="recent_events",
                   default=EncoderParams.recent_events, help="event count for --rep count")
    p.add_argument("--sae-decay", type=float, dest="sae_decay",
                   default=EncoderParams.sae_decay_per_us, help="decay per µs for --rep sae")
    p.add_argument("--kernel", choices=("rect", "triangular"), default=EncoderParams.kernel,
                   help="volume accumulation kernel")
    p.add_argument("--at-annotations", dest="at_annotations",
                   help="encode at the timestamps of this annotation CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evrep", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", parents=[], help="write one tensor file per detection")
    _add_encoder_flags(p)
    p.add_argument("--events", nargs="+", required=True, help="binary event stream file(s)")
    p.add_argument("--out-dir", required=True, dest="out_dir", help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="worker threads for multiple inputs")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("bench", help="time a representation, no tensor output")
    _add_encoder_flags(p)
    p.add_argument("--events", required=True, help="binary event stream file")
    p.add_argument("--steps", type=int,
                   help="time the first N detection times (default: all of them)")
    p.add_argument("--warmup", type=int, default=10, help="warm-up steps excluded from stats")
    p.add_argument("--csv", help="write per-step samples to this CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("levels", help="BBOFD and motion level per annotation")
    p.add_argument("--flows", required=True, help="directory of .flow files")
    p.add_argument("--annotations", required=True, help="annotation CSV")
    p.add_argument("--out", required=True, help="output CSV (t,box_index,bbofd,level)")
    p.add_argument("--boundaries", help="boundary sidecar CSV path")
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("eval", help="mAP over IoU 0.50:0.05:0.95")
    p.add_argument("--detections", required=True, help="detection CSV")
    p.add_argument("--annotations", required=True, help="annotation CSV")
    p.add_argument("--levels", help="levels CSV from the levels command")
    p.add_argument("--tolerance-us", type=int, dest="tolerance_us",
                   default=EvalConfig.timestamp_tolerance_us,
                   help="timestamp matching tolerance in µs")
    p.add_argument("--width", type=int, help="frame width (needed with --levels)")
    p.add_argument("--height", type=int, help="frame height (needed with --levels)")
    p.add_argument("--csv", help="write the result table to this CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("augment", help="flip/crop one tensor file")
    p.add_argument("--input", required=True, help="input .evtn tensor")
    p.add_argument("--output", required=True, help="output .evtn tensor")
    p.add_argument("--seed", type=int, default=AugmentConfig.seed, help="random seed")
    p.add_argument("--p1", type=float, default=AugmentConfig.flip_prob, help="flip probability")
    p.add_argument("--p2", type=float, default=AugmentConfig.crop_prob, help="crop probability")
    p.add_argument("--alpha", type=float, default=AugmentConfig.scale, help="resize factor >= 1")
    p.set_defaults(func=_cmd_augment)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON object of flag defaults, keyed by flag name")
    return parser


def _parse_with_config(
    parser: argparse.ArgumentParser, argv: list[str] | None, args: argparse.Namespace
) -> argparse.Namespace:
    """argv parsed again with the --config object as its subcommand's defaults.
    Each value is read as its text on the command line would be, through the
    flag's type and choices."""
    config = json.loads(Path(args.config).read_text())
    if not isinstance(config, dict):
        raise EvrepError("--config must hold a JSON object")
    (subparsers,) = parser._subparsers._group_actions
    command = subparsers.choices[args.command]
    flags = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    for key, value in config.items():
        flag = flags.get(key)
        if flag is None or flag.required:
            raise _UsageError(f"--config: {key!r} is not an optional flag of {args.command}")
        to_type = flag.type or str
        try:
            config[key] = to_type(str(value))
        except ValueError:
            raise _UsageError(
                f"--config: {key} must be {to_type.__name__}, got {value!r}"
            ) from None
        if flag.choices is not None and config[key] not in flag.choices:
            raise _UsageError(f"--config: {key} must be one of {flag.choices}, got {value!r}")
    command.set_defaults(**config)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except _UsageError as exc:
        print(f"evrep: error: {exc}", file=sys.stderr)
        return 1
    except (EvrepError, OSError, MemoryError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        # a MemoryError raised while a list grows carries no message
        print(f"evrep: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
