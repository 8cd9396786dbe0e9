#!/usr/bin/env python3
"""Show that every output check passes on good output and fails on bad.

    python3 evbench/selftest.py

Run from the repository root. Builds a small seeded workload, runs the six
evrep commands on it once, and confirms that every check in checks.py
passes on their outputs. It then feeds each check one corrupted copy of an
output (a changed value, a dropped tensor, a wrong box, a damaged header)
and confirms the check reports it. It also confirms that BENCHMARK.json
names exactly the metrics run.py prints, and that a command's peak RSS
does not take in the memory of the benchmark process. Exits 0 when all of
that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from launcher import Launcher

if __name__ == "__main__":
    LAUNCHER = Launcher()  # forked before numpy is imported, as in run.py

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(150, 96, 400_000, 12, 20, (50, 48))


def rewrite(path: Path, tensor: np.ndarray) -> None:
    c, h, w = tensor.shape
    path.write_bytes(checks.TENSOR_HEADER.pack(b"EVTN", 1, c, h, w, 0)
                     + tensor.astype("<f4").tobytes())


class SelfTest:
    def __init__(self, bench: run.Bench):
        self.bench = bench
        self.rec = bench.rec
        self.last = bench.rec.steps
        self.failures: list[str] = []

    def expect(self, case: str, problems: list[str], needle: str = "") -> None:
        caught = any(needle in p for p in problems)
        print(f"{'ok  ' if caught else 'MISS'} {case}: {problems[:1] if problems else 'no failure'}")
        if not caught:
            self.failures.append(case)

    def encode_cases(self, rep: str, out: Path) -> None:
        def check(target: Path) -> list[str]:
            return checks.check_encode(rep, target, "rec", self.rec, [self.last], run.PARAMS)

        clean = check(out)
        print(f"{'ok  ' if not clean else 'FAIL'} {rep}: clean output passes {clean[:1]}")
        if clean:
            self.failures.append(f"{rep} clean")
        name = f"rec_{self.last * 10_000}.evtn"
        original = np.array(checks.read_evtn(out / name))

        def corrupted(case: str, needle: str, change) -> None:
            bad = out.parent / f"bad_{rep}"
            shutil.copytree(out, bad)
            change(bad / name, original.copy())
            self.expect(f"{rep}: {case}", check(bad), needle)
            shutil.rmtree(bad)

        corrupted("dropped tensor", "the grid has", lambda path, t: path.unlink())
        corrupted("damaged header", "bad header",
                  lambda path, t: path.write_bytes(b"XXXX" + path.read_bytes()[4:]))
        k = run.PARAMS["queue_depth"]
        if rep == "taf":
            slots = original.reshape(k, -1)
            only_newest = np.flatnonzero((slots[0] > 0) & (slots[1] == 0))[0]
            two_filled = np.flatnonzero((slots[1] > 0) & (slots[0] > slots[1]))[0]
            empty = np.flatnonzero(slots[0] == 0)[0]

            def scaled(path, t):
                t.reshape(k, -1)[0, only_newest] *= 0.999
                rewrite(path, t)

            def swapped(path, t):
                s = t.reshape(k, -1)
                s[0, two_filled], s[1, two_filled] = s[1, two_filled], s[0, two_filled]
                rewrite(path, t)

            def out_of_range(path, t):
                t.reshape(k, -1)[0, empty] = 1.5
                rewrite(path, t)

            corrupted("one value off the definition", "differs from the definition", scaled)
            corrupted("two slots swapped", "newer-valued", swapped)
            corrupted("value above 1", "outside [0, 1]", out_of_range)
        elif rep in ("volume", "count"):
            def plus_one(path, t):
                t.reshape(-1)[0] += 1
                rewrite(path, t)

            corrupted("one cell plus one", "channel sums" if rep == "volume" else "mass",
                      plus_one)
        else:
            flat = original.reshape(-1)
            never = np.flatnonzero(flat == 0)[0]
            fired = np.flatnonzero(flat > 0)[0]

            def extra_cell(path, t):
                t.reshape(-1)[never] = 0.5
                rewrite(path, t)

            def off_value(path, t):
                t.reshape(-1)[fired] *= 0.99
                rewrite(path, t)

            corrupted("cell that never fired", "support", extra_cell)
            corrupted("one value off exp decay", "values differ", off_value)

    def levels_cases(self, rows: dict) -> None:
        scene = self.bench.scene
        clean = checks.check_levels(rows, scene)
        print(f"{'ok  ' if not clean else 'FAIL'} levels: clean output passes {clean[:1]}")
        if clean:
            self.failures.append("levels clean")
        by_speed = sorted(rows, key=lambda i: scene.speed[i])
        slow, fast = by_speed[0], by_speed[-1]

        bad = dict(rows)
        t, value, level = bad[fast]
        bad[fast] = (t, value * 1.01, level)
        self.expect("levels: wrong BBOFD", checks.check_levels(bad, scene), "BBOFD")
        bad = dict(rows)
        bad[slow], bad[fast] = (*rows[slow][:2], rows[fast][2]), (*rows[fast][:2], rows[slow][2])
        self.expect("levels: slow and fast levels swapped", checks.check_levels(bad, scene),
                    "lower level")
        bad = dict(rows)
        del bad[slow]
        self.expect("levels: a kept box missing", checks.check_levels(bad, scene), "removed boxes")

    def eval_cases(self, result: Path, rows: dict) -> None:
        scene = self.bench.scene
        clean = checks.check_eval(result, rows, scene)
        print(f"{'ok  ' if not clean else 'FAIL'} eval: clean output passes {clean[:1]}")
        if clean:
            self.failures.append("eval clean")
        lines = result.read_text().splitlines()
        for prefix in ("overall,", "level,"):
            bad_lines = list(lines)
            i = next(i for i, line in enumerate(lines)
                     if line.startswith(prefix) and not line.endswith(","))
            head, value = bad_lines[i].rsplit(",", 1)
            bad_lines[i] = f"{head},{float(value) + 0.01!r}"
            bad = result.with_name("bad_result.csv")
            bad.write_text("\n".join(bad_lines) + "\n")
            self.expect(f"eval: {prefix.rstrip(',')} mAP off by 0.01",
                        checks.check_eval(bad, rows, scene), "expected")


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_own_rss(bench: run.Bench) -> list[str]:
    """A command's ru_maxrss must not grow when the benchmark holds 256 MB."""
    before = bench.run(["--help"]).maxrss_kb
    ballast = np.ones(2**25)  # 256 MB, every page touched
    after = bench.run(["--help"]).maxrss_kb
    del ballast
    print(f"{'ok  ' if after - before < 16 * 1024 else 'FAIL'} peak RSS of `evrep --help`: "
          f"{before / 1024:.1f} MB, then {after / 1024:.1f} MB with 256 MB held by the benchmark")
    return [] if after - before < 16 * 1024 else ["command peak RSS includes the benchmark's"]


def main(launcher: Launcher) -> int:
    sys.path.insert(0, str(run.SRC))
    bench = run.Bench(TINY, 7, run.WORK / f"selftest-{os.getpid()}", launcher)
    try:
        bench.write_inputs()
        assert bench.scene.planted, "the tiny scene should plant an overlapping pair"
        test = SelfTest(bench)
        for op in run.OPS:
            status = bench.run(bench.argv(op)).status
            if status != 0:
                print(f"FAIL {op}: exit status {status}")
                return 1
            if op in run.ENCODES:
                test.encode_cases(op, bench.work / f"out_{op}")
        rows = checks.read_levels_csv(bench.work / "levels.csv")
        test.levels_cases(rows)
        test.eval_cases(bench.work / "result.csv", rows)
        test.failures += check_own_rss(bench)
    finally:
        bench.close()
    test.failures += check_benchmark_json()
    print("selftest:", "FAILED " + ", ".join(test.failures) if test.failures else "all checks fail on bad output")
    return 1 if test.failures else 0


if __name__ == "__main__":
    try:
        status = main(LAUNCHER)
    finally:
        LAUNCHER.close()
    sys.exit(status)
