#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the evrep command line.

    python3 evbench/run.py --workload gen1_dense --seed 1 --seconds 40 --trace 0

Run from the repository root. Set-up generates one workload's inputs from
--seed and writes them through evrep's own writers. Each round then runs,
one after the other, the user-facing commands of a detection pipeline:
encode --rep taf|volume|count|sae, levels, and eval --levels, each as its
own `python3 -m evrep.cli` process (one client, closed loop), spawned from a
small launcher (launcher.py) so that its peak RSS is its own. Every output
is checked against values computed apart from evrep (checks.py); an
encode's tensors are deleted after their check, outside the timed span.
Whole rounds repeat while the next one fits in --seconds.

A fixed probe (probe.py) runs before the first round and after each
command, levels + eval counting as one command. Each command's wall time is
scaled to a reference machine speed by the mean of the two probes around
it, and each timing is the median over the run's rounds: see "Speed probe"
in README.md.

--trace 1 runs each command once per round, alternating a plain round with
a traced one, which runs the same commands through traced_cli.py, and
prints per-layer metrics instead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS held to one thread, here and in every child

from launcher import Launcher  # noqa: E402

if __name__ == "__main__":
    # forked before numpy is imported, so the commands' ru_maxrss is their own
    LAUNCHER = Launcher()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import scenes  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PARAMS = {"queue_depth": 4, "bins": 5, "recent_events": 50_000, "sae_decay": 1e-5}
OPS = ("taf", "volume", "count", "sae", "levels", "eval")
ENCODES = OPS[:4]
# One plain round: each command, or the pair levels + eval, then a probe.
PLAIN_ROUND = ("taf", "probe", "volume", "probe", "count", "probe", "sae", "probe",
               "levels", "eval", "probe")
# Wall time of probe.py at the speed the figures are scaled to, near its
# median (0.42 s) over the reference runs in README.md. A fixed constant, so
# that figures from different runs and commits compare.
PROBE_REF_S = 0.40


@dataclass(frozen=True)
class Workload:
    """One recording (geometry, events/s, 10 ms steps) and one box scene."""

    width: int
    height: int
    rate_per_s: float
    steps: int
    frames: int
    slot: tuple[int, int]


# Why each: see README.md. The recordings end exactly on the 10 ms grid.
WORKLOADS = {
    "gen1_dense": Workload(304, 240, 2_000_000, 60, 8, (50, 48)),
    "mpx_sparse": Workload(640, 360, 200_000, 30, 8, (64, 60)),
    "eval_levels": Workload(304, 240, 2_000_000, 10, 100, (50, 48)),
}

END_TO_END = {
    "setup_s": "s",
    "taf_rtf": "s/s",
    "volume_rtf": "s/s",
    "count_rtf": "s/s",
    "sae_rtf": "s/s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "io.read_events_ms": "ms",
    "io.read_events_peak_mb": "MB",
    "io.write_tensor_ms": "ms",
    "io.write_total_ms": "ms",
    "io.tensor_bytes_mb": "MB",
    "model.window_slice_us": "us",
    "taf.step_ms": "ms",
    "taf.step_ns_per_event": "ns/event",
    "taf.step_share": "ratio",
    "taf.render_ms": "ms",
    "taf.render_minflt": "count",
    "encoders.volume_ms": "ms",
    "encoders.count_ms": "ms",
    "encoders.sae_ms": "ms",
    "encoders.sae_first_ms": "ms",
    "encoders.sae_last_ms": "ms",
    "encoders.sae_growth": "ratio",
    "io.read_flow_ms": "ms",
    "io.read_csv_ms": "ms",
    "motion.flow_intensity_ms": "ms",
    "motion.bbofd_us": "us",
    "motion.sanitize_ms": "ms",
    "motion.levels_ms": "ms",
    "evalmap.match_timestamps_ms": "ms",
    "evalmap.map_metric_s": "s",
    "evalmap.map_by_level_s": "s",
    "evalmap.iou_calls": "count",
    "cli.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass
class OpRun:
    wall_s: float
    maxrss_kb: int
    status: int
    spans: list | None = None
    iou_calls: int = 0


class Bench:
    def __init__(self, spec: Workload, seed: int, work: Path, launcher: Launcher):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.launcher = launcher
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.failed: list[str] = []
        self.correct = True

    def write_inputs(self) -> None:
        """Generate this seed's inputs and write them with evrep's writers."""
        from evrep.io import (write_annotations_csv, write_detections_csv,
                              write_events_binary, write_flow)
        from evrep.model import Annotation, Detection, EventStream, FlowField, FrameGeometry

        spec = self.spec
        rng = np.random.default_rng([self.seed, *spec.slot, spec.steps, spec.frames])
        self.rec = rec = scenes.make_recording(rng, spec.width, spec.height,
                                               spec.rate_per_s, spec.steps)
        stream = EventStream.from_arrays(FrameGeometry(rec.width, rec.height, rec.t_max_us),
                                         rec.t, rec.x, rec.y, rec.p)
        self.work.mkdir(parents=True)
        self.events = self.work / "rec.evs"
        self.events.write_bytes(write_events_binary(stream))

        self.scene = scene = scenes.make_scene(rng, spec.width, spec.height, spec.frames, *spec.slot)
        self.boxes = self.work / "boxes.csv"
        self.boxes.write_text(write_annotations_csv(
            [Annotation(a.t, a.x, a.y, a.w, a.h, a.class_id) for a in scene.annotations]))
        self.dets = self.work / "dets.csv"
        self.dets.write_text(write_detections_csv(
            [Detection(d.t, d.x, d.y, d.w, d.h, d.class_id, float(s))
             for d, s in zip(scene.detections, scene.scores)]))
        self.flows = self.work / "flows"
        self.flows.mkdir()
        for t, u, v in scenes.flow_planes(scene):
            write_flow(FlowField.from_planes(t, u, v), self.flows / f"{t}.flow")

    def argv(self, op: str) -> list[str]:
        if op in ENCODES:
            return ["encode", "--rep", op, "--events", str(self.events),
                    "--out-dir", str(self.work / f"out_{op}"),
                    "--delta-tau-us", str(scenes.DELTA_TAU_US),
                    "--queue-depth", str(PARAMS["queue_depth"]), "--bins", str(PARAMS["bins"]),
                    "--recent-events", str(PARAMS["recent_events"]),
                    "--sae-decay", repr(PARAMS["sae_decay"])]
        if op == "levels":
            return ["levels", "--flows", str(self.flows), "--annotations", str(self.boxes),
                    "--out", str(self.work / "levels.csv")]
        return ["eval", "--detections", str(self.dets), "--annotations", str(self.boxes),
                "--levels", str(self.work / "levels.csv"),
                "--width", str(self.spec.width), "--height", str(self.spec.height),
                "--tolerance-us", str(scenes.TOLERANCE_US), "--csv", str(self.work / "result.csv")]

    def run(self, argv: list[str], spans: Path | None = None) -> OpRun:
        """One CLI process, timed from spawn to reap; its own rusage via wait4."""
        if spans is None:
            cmd = [sys.executable, "-m", "evrep.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
        err = self.work / "stderr.txt"
        wall, maxrss_kb, status = self.launcher.run(cmd, self.env, str(err))
        if status != 0:
            sys.stderr.write(err.read_text())
        return OpRun(wall, maxrss_kb, status)

    def probe(self) -> OpRun:
        """Run probe.py the way the commands run and keep its wall time."""
        err = self.work / "stderr.txt"
        ran = OpRun(*self.launcher.run([sys.executable, str(HERE / "probe.py")],
                                       self.env, str(err)))
        if ran.status != 0:
            raise RuntimeError(f"probe.py exited {ran.status}: {err.read_text()}")
        return ran

    def round(self, index: int, order, traced: bool) -> list[tuple[str, OpRun]]:
        """The commands of order, each output checked; returns (op, OpRun)
        in order, probes included."""
        rng = np.random.default_rng([self.seed, index, traced])
        result = []
        for op in order:
            if op == "probe":
                result.append((op, self.probe()))
                continue
            if op == "eval" and result[-1][1].status != 0:
                result.append((op, OpRun(0.0, 0, -1)))  # no levels.csv to evaluate against
                self.failed.append(op)
                continue
            spans = self.work / f"spans_{op}.json" if traced else None
            ran = self.run(self.argv(op), spans)
            result.append((op, ran))
            if ran.status != 0:
                self.failed.append(op)
                continue
            if traced:
                data = json.loads(spans.read_text())
                ran.spans, ran.iou_calls = data["spans"], data["iou_calls"]
            self.check(op, rng)
        return result

    def check(self, op: str, rng: np.random.Generator) -> None:
        if op in ENCODES:
            out = self.work / f"out_{op}"
            steps = [self.rec.steps, int(rng.integers(1, self.rec.steps))]
            problems = checks.check_encode(op, out, "rec", self.rec, steps, PARAMS)
            shutil.rmtree(out, ignore_errors=True)
        elif op == "levels":
            self.levels = checks.read_levels_csv(self.work / "levels.csv")
            problems = checks.check_levels(self.levels, self.scene)
        else:
            problems = checks.check_eval(self.work / "result.csv", self.levels, self.scene)
        for line in problems:
            print(f"evbench: FAILED CHECK: {line}", file=sys.stderr)
        self.correct = self.correct and not problems

    def close(self) -> None:
        """Remove this run's files, and the work directory once it is empty."""
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def end_to_end(bench: Bench, first_probe: OpRun, plain: list, setup_s: float) -> dict:
    """Each command (levels + eval as one) scaled by the mean of the probes
    before and after it; each metric the median over rounds. setup_s is
    scaled by the median of the run's probes."""
    scaled: dict[str, list[tuple[float, bool]]] = {}
    raw: dict[str, list[float]] = {}
    before, since = first_probe.wall_s, []
    for op, ran in (pair for r in plain for pair in r):
        if op != "probe":
            since.append((op, ran))
            continue
        name = "eval_s" if since[0][0] == "levels" else f"{since[0][0]}_rtf"
        wall = sum(r.wall_s for _, r in since)
        ok = all(r.status == 0 for _, r in since)
        scaled.setdefault(name, []).append((wall * PROBE_REF_S * 2 / (before + ran.wall_s), ok))
        raw.setdefault(name, []).append(wall)
        before, since = ran.wall_s, []

    def med(name: str) -> float:
        """Median over the rounds whose commands succeeded; over all if none did."""
        values = scaled[name]
        return statistics.median([v for v, ok in values if ok] or [v for v, _ in values])

    per_s = {name: 1 / bench.rec.seconds if name.endswith("_rtf") else 1.0 for name in scaled}
    probes = [first_probe.wall_s] + [ran.wall_s for r in plain for op, ran in r if op == "probe"]
    probe = statistics.median(probes)
    print(f"evbench: probe median {probe:.4f} s over {len(probes)}; "
          f"unscaled setup_s={setup_s:.4f} "
          + " ".join(f"{k}={statistics.median(v) * per_s[k]:.4f}" for k, v in raw.items()),
          file=sys.stderr)
    out = {"setup_s": setup_s * PROBE_REF_S / probe}
    out.update({k: med(k) * per_s[k] for k in scaled})
    out["peak_rss_mb"] = max(ran.maxrss_kb for r in plain for op, ran in r if op != "probe") / 1024
    return out


def per_layer(plain: dict[str, OpRun], traced: dict[str, OpRun]) -> dict:
    """Per-layer figures of one traced round (and the plain round before it),
    each a dict op -> OpRun of the six commands."""
    med = statistics.median

    def calls(name, ops=OPS):
        return [(s[2] - s[1], s[4]) for op in ops for s in traced[op].spans if s[0] == name]

    def times(name, ops=OPS):
        return [d for d, _ in calls(name, ops)]

    m = {}
    m["io.read_events_ms"] = med(times("io.read_events")) * 1e3
    m["io.read_events_peak_mb"] = med(f for _, f in calls("io.read_events")) / 1024
    m["io.write_tensor_ms"] = med(times("io.write_tensor", ["taf"])) * 1e3
    m["io.write_total_ms"] = sum(times("io.write_tensor")) * 1e3
    m["io.tensor_bytes_mb"] = sum(f for _, f in calls("io.write_tensor")) / 2**20
    m["model.window_slice_us"] = med(times("model.window_slice")) * 1e6
    steps = calls("taf.step")
    step_total = sum(d for d, _ in steps)
    taf_root = traced["taf"].spans[0]
    m["taf.step_ms"] = med(d for d, _ in steps) * 1e3
    m["taf.step_ns_per_event"] = step_total / max(1, sum(n for _, n in steps)) * 1e9
    m["taf.step_share"] = step_total / (taf_root[2] - taf_root[1])
    m["taf.render_ms"] = med(times("taf.render")) * 1e3
    renders = calls("taf.render")
    m["taf.render_minflt"] = sum(f for _, f in renders) / len(renders)
    for rep in ("volume", "count", "sae"):
        m[f"encoders.{rep}_ms"] = med(times(f"encoders.{rep}")) * 1e3
    sae = times("encoders.sae")
    tenth = max(1, len(sae) // 10)
    m["encoders.sae_first_ms"] = med(sae[:tenth]) * 1e3
    m["encoders.sae_last_ms"] = med(sae[-tenth:]) * 1e3
    m["encoders.sae_growth"] = m["encoders.sae_last_ms"] / m["encoders.sae_first_ms"]
    m["io.read_flow_ms"] = med(times("io.read_flow")) * 1e3
    m["io.read_csv_ms"] = sum(times("io.read_csv")) * 1e3
    m["motion.flow_intensity_ms"] = med(times("motion.flow_intensity")) * 1e3
    m["motion.bbofd_us"] = med(times("motion.bbofd")) * 1e6
    m["motion.sanitize_ms"] = med(times("motion.sanitize")) * 1e3
    m["motion.levels_ms"] = sum(times("motion.levels")) * 1e3
    m["evalmap.match_timestamps_ms"] = sum(times("evalmap.match_timestamps")) * 1e3
    m["evalmap.map_metric_s"] = sum(times("evalmap.map_metric"))
    m["evalmap.map_by_level_s"] = sum(times("evalmap.map_by_level"))
    m["evalmap.iou_calls"] = traced["eval"].iou_calls
    # spans directly under cli.main (span 0) cover what the layers did
    covered = sum(s[2] - s[1] for op in OPS for s in traced[op].spans if s[3] == 0)
    m["cli.unattributed_ms"] = (sum(plain[op].wall_s for op in OPS) - covered) * 1e3
    m["trace.overhead_ms"] = sum(traced[op].wall_s - plain[op].wall_s for op in OPS) * 1e3
    return m


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[OpRun | None, list, list]:
    """A first probe (plain runs only), then whole rounds, as many as fit
    in seconds: another round starts while a mean round or more of seconds
    is left."""
    plain, traced = [], []
    start = time.perf_counter()
    first_probe = None if trace else bench.probe()
    index = 0
    while True:
        plain.append(bench.round(index, OPS if trace else PLAIN_ROUND, traced=False))
        if trace:
            traced.append(bench.round(index, OPS, traced=True))
        print(f"evbench: round {index}: " + " ".join(
            f"{op}={ran.wall_s:.3f}s" for op, ran in plain[-1]), file=sys.stderr)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > seconds:
            return first_probe, plain, traced


def main(launcher: Launcher, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evrep" / "__init__.py").is_file():
        print(f"evbench: {SRC / 'evrep'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evrep

    if Path(evrep.__file__).resolve().parent != SRC / "evrep":
        print(f"evbench: imported evrep from {evrep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, WORK / f"{args.workload}-{os.getpid()}",
                  launcher)
    try:
        bench.write_inputs()
        warm = bench.run(["--help"])  # compiles and caches evrep's bytecode
        if warm.status != 0:
            return 2
        setup_s = time.perf_counter() - _T0
        first_probe, plain, traced = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()

    if args.trace:
        rounds = [per_layer(dict(p), dict(t)) for p, t in zip(plain, traced)
                  if all(ran.status == 0 for _, ran in (*p, *t))]
        if not rounds:
            print("evbench: no traced round ran all six commands", file=sys.stderr)
            return 1
        values = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = end_to_end(bench, first_probe, plain, setup_s)
        units = END_TO_END
    attempted = sum(op != "probe" for r in (*plain, *traced) for op, _ in r)
    print(json.dumps({
        "correct": bench.correct,
        "attempted": attempted,
        "failed": len(bench.failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        status = main(LAUNCHER)
    finally:
        LAUNCHER.close()
    sys.exit(status)
