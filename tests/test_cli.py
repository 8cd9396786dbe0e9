import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evrep.cli
from evrep.cli import main
from evrep.encoders import (
    WindowState, event_count_image, event_volume, sae_init, surface_active_events,
)
from evrep.io import (
    _CHUNK_RECORDS,
    read_events_binary,
    read_events_geometry,
    read_tensor,
    write_annotations_csv,
    write_detections_csv,
    write_events_binary,
    write_flow,
    write_tensor,
)
from evrep.model import Annotation, Detection, EncoderParams, EventStream, FlowField, FrameGeometry
from evrep.taf import taf_init, temporal_active_focus

from conftest import ShrinksAfterItsSize, chunked_records, make_random_stream, same_bits
from encoders_oracle import sae_batch_oracle
from evs_oracle import read_events_oracle
from taf_oracle import taf_batch_oracle

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def one_second_stream(rng, tmp_path):
    geo = FrameGeometry(16, 12, 1_000_000)
    stream = make_random_stream(rng, geo, 2_000)
    path = tmp_path / "events.evs"
    path.write_bytes(write_events_binary(stream))
    return path


def _run(*argv) -> int:
    return main(list(argv))


# the CLI in a child process that caps its own address space at 1 GiB first, so
# a run that grows without bound ends in MemoryError, not in the machine's memory
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from evrep.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _run_capped(*argv, timeout=120) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", _CAPPED, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestEncode:
    def test_taf_one_file_per_period(self, one_second_stream, tmp_path):
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "taf", "--events", str(one_second_stream),
            "--out-dir", str(out), "--queue-depth", "4", "--delta-tau-us", "10000",
        )
        assert code == 0
        files = sorted(out.glob("*.evtn"))
        assert len(files) == 100
        assert (out / "events_10000.evtn").exists()
        assert (out / "events_1000000.evtn").exists()
        tensor = read_tensor(files[0])
        assert tensor.shape == (8, 12, 16)

    def test_volume_at_annotation_timestamps(self, one_second_stream, tmp_path):
        ann = tmp_path / "ann.csv"
        boxes = [
            Annotation(100_000, 1, 1, 4, 4, 0),
            Annotation(100_000, 8, 2, 4, 4, 1),
            Annotation(400_000, 2, 2, 4, 4, 0),
            Annotation(900_000, 3, 3, 4, 4, 0),
        ]
        ann.write_text(write_annotations_csv(boxes))
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "volume", "--events", str(one_second_stream),
            "--out-dir", str(out), "--bins", "5", "--delta-tau-us", "50000",
            "--at-annotations", str(ann),
        )
        assert code == 0
        assert len(list(out.glob("*.evtn"))) == 3  # unique timestamps

    @pytest.mark.parametrize("rep", ["taf", "volume", "count", "sae"])
    def test_a_read_past_several_chunks_waits_for_all_of_them(self, rep, tmp_path):
        # chunked_records' 1 s stream spans four chunk edges, so each read at
        # 0.5 and 1 s needs two chunks or more refilled before it
        data = chunked_records(7, 100, [])
        path = tmp_path / "rec.evs"
        path.write_bytes(data)
        geometry, columns = read_events_oracle(data)
        stream = EventStream.from_arrays(geometry, *columns)
        params, times = EncoderParams(delta_tau_us=500_000), [500_000, 1_000_000]
        init, read = {"taf": (taf_init, temporal_active_focus), "volume": (WindowState, event_volume),
                      "count": (WindowState, event_count_image),
                      "sae": (sae_init, surface_active_events)}[rep]
        state = init(stream.geometry, params)
        for t_n, tensor, events_read in evrep.cli._tensors(str(path), rep, params, times):
            assert same_bits(tensor, read(stream, t_n, state))
            assert events_read == state.events_read

    def test_the_drained_tail_is_not_held(self, tmp_path):
        # a read in the first chunk, then the rest of the file (four chunks
        # and a part) read and checked one chunk at a time, none of it kept
        path = tmp_path / "rec.evs"
        path.write_bytes(chunked_records(7, 100, []))
        with open(path, "rb") as source:
            held = evrep.cli._HeldEvents(source, read_events_geometry(path))
            span = len(held.through(1))
            assert 0 < span <= _CHUNK_RECORDS
            held.drain()
            assert held.ended and held.hi - held.lo <= span

    def test_annotation_time_past_t_max_writes_nothing(
        self, one_second_stream, tmp_path, capsys, monkeypatch
    ):
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv(
            [Annotation(t, 1, 1, 4, 4, 0) for t in (100_000, 2_000_000)]))
        out = tmp_path / "out"
        code = _run("encode", "--rep", "count", "--events", str(one_second_stream),
                    "--out-dir", str(out), "--at-annotations", str(ann))
        assert code == 2
        assert capsys.readouterr().err == (
            "evrep: detection timestamp 2000000 outside [0, 1000000]\n"
        )
        assert not list(out.glob("*.evtn"))

        steps = []
        monkeypatch.setattr(evrep.cli, "event_count_image", lambda *a: steps.append(a))
        code = _run("bench", "--rep", "count", "--events", str(one_second_stream),
                    "--at-annotations", str(ann), "--warmup", "0")
        assert code == 2
        assert steps == []

    def test_annotation_time_past_a_later_file_writes_nothing(self, rng, tmp_path, capsys):
        paths = []
        for name, t_max in (("a", 500_000), ("b", 150_000)):
            path = tmp_path / f"{name}.evs"
            path.write_bytes(write_events_binary(
                make_random_stream(rng, FrameGeometry(16, 12, t_max), 300)))
            paths.append(str(path))
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv(
            [Annotation(t, 1, 1, 4, 4, 0) for t in (100_000, 200_000)]))
        out = tmp_path / "out"
        code = _run("encode", "--rep", "sae", "--events", *paths, "--out-dir", str(out),
                    "--at-annotations", str(ann))
        assert code == 2
        assert capsys.readouterr().err == "evrep: detection timestamp 200000 outside [0, 150000]\n"
        assert not list(out.glob("*.evtn"))

    def test_taf_at_annotation_times(self, one_second_stream, tmp_path):
        times = [0, 5_000, 123_457, 123_457, 300_000, 999_999, 1_000_000]
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv([Annotation(t, 1, 1, 4, 4, 0) for t in times]))
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "taf", "--events", str(one_second_stream), "--out-dir", str(out),
            "--queue-depth", "3", "--delta-tau-us", "10000", "--at-annotations", str(ann),
        )
        assert code == 0
        stream = read_events_binary(one_second_stream.read_bytes())
        assert len(list(out.glob("*.evtn"))) == len(set(times))
        for t_n in set(times):
            oracle = taf_batch_oracle(stream, t_n, 10_000, 3, stream.geometry.t_max_us)
            assert np.max(np.abs(read_tensor(out / f"events_{t_n}.evtn") - oracle)) <= 1e-6

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_body_in_a_later_file_writes_nothing(self, jobs, rng, tmp_path, capsys):
        geo = FrameGeometry(16, 12, 1_000_000)
        good = make_random_stream(rng, geo, 1_000)
        bad = EventStream.from_arrays(geo, good.t[::-1], good.x, good.y, good.p)
        (tmp_path / "a.evs").write_bytes(write_events_binary(good))
        (tmp_path / "b.evs").write_bytes(write_events_binary(bad))
        out = tmp_path / "out"
        code = _run("encode", "--rep", "count", "--events", str(tmp_path / "a.evs"),
                    str(tmp_path / "b.evs"), "--out-dir", str(out), "--jobs", jobs)
        assert code == 2
        assert "non-monotonic timestamp" in capsys.readouterr().err
        assert not list(out.glob("*.evtn"))

    def test_sae_at_a_huge_decay_is_silent(self, one_second_stream, tmp_path):
        # decay * elapse overflows to -inf on both render paths, and exp(-inf)
        # = 0 is the value meant, so no RuntimeWarning reaches stderr
        out = tmp_path / "out"
        ran = _run_capped("encode", "--rep", "sae", "--events", one_second_stream,
                          "--out-dir", out, "--delta-tau-us", "10000", "--sae-decay", "1e308")
        assert (ran.returncode, ran.stderr) == (0, "")
        stream = read_events_binary(one_second_stream.read_bytes())
        files = sorted(out.glob("*.evtn"))
        assert len(files) == 100
        with np.errstate(over="ignore"):
            for f in files:
                want = sae_batch_oracle(stream, int(f.stem.split("_")[1]), 1e308)
                assert same_bits(read_tensor(f), want), f.name

    def test_inputs_of_one_stem_are_usage_error(self, one_second_stream, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        other.mkdir()
        (other / one_second_stream.name).write_bytes(one_second_stream.read_bytes())
        code = _run("encode", "--rep", "count", "--events", str(one_second_stream),
                    str(other / one_second_stream.name), "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            "evrep: error: input files must have distinct stems (outputs would collide)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unknown_representation_is_usage_error(self, one_second_stream, tmp_path):
        code = _run(
            "encode", "--rep", "hologram", "--events", str(one_second_stream),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 1

    def test_missing_required_flag_is_usage_error(self):
        assert _run("encode", "--rep", "taf") == 1

    def test_corrupt_events_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.evs"
        bad.write_bytes(b"not an event stream")
        code = _run("encode", "--rep", "taf", "--events", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 2

    def test_jobs_do_not_change_outputs(self, rng, tmp_path):
        geo = FrameGeometry(8, 8, 100_000)
        paths = []
        for i in range(3):
            stream = make_random_stream(rng, geo, 200)
            path = tmp_path / f"s{i}.evs"
            path.write_bytes(write_events_binary(stream))
            paths.append(str(path))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        common = ["encode", "--rep", "count", "--delta-tau-us", "10000"]
        assert _run(*common, "--events", *paths, "--out-dir", str(out1), "--jobs", "1") == 0
        assert _run(*common, "--events", *paths, "--out-dir", str(out2), "--jobs", "3") == 0
        files1 = sorted(f.name for f in out1.glob("*.evtn"))
        files2 = sorted(f.name for f in out2.glob("*.evtn"))
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_file_supplies_defaults(self, one_second_stream, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delta_tau_us": 100_000, "queue_depth": 2}))
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "taf", "--events", str(one_second_stream),
            "--out-dir", str(out), "--config", str(config),
        )
        assert code == 0
        files = list(out.glob("*.evtn"))
        assert len(files) == 10  # 1 s / 100 ms from the config file
        assert read_tensor(files[0]).shape == (4, 12, 16)

    def test_flag_overrides_config(self, one_second_stream, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"delta_tau_us": 100_000}))
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "taf", "--events", str(one_second_stream),
            "--out-dir", str(out), "--config", str(config), "--delta-tau-us", "500000",
        )
        assert code == 0
        assert len(list(out.glob("*.evtn"))) == 2

    @pytest.mark.parametrize("rep", ["taf", "volume", "count", "sae"])
    def test_off_grid_end_drops_partial_window(self, rep, rng, tmp_path):
        geo = FrameGeometry(16, 12, 25_000)
        path = tmp_path / "events.evs"
        path.write_bytes(write_events_binary(make_random_stream(rng, geo, 1_000)))
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", rep, "--events", str(path), "--out-dir", str(out),
            "--delta-tau-us", "10000",
        )
        assert code == 0
        assert sorted(f.name for f in out.iterdir()) == ["events_10000.evtn", "events_20000.evtn"]

    def test_volume_triangular_kernel_matches_encoder(self, one_second_stream, tmp_path):
        out = tmp_path / "out"
        code = _run(
            "encode", "--rep", "volume", "--events", str(one_second_stream), "--out-dir", str(out),
            "--delta-tau-us", "100000", "--bins", "3", "--kernel", "triangular",
        )
        assert code == 0
        stream = read_events_binary(one_second_stream.read_bytes())
        files = sorted(out.glob("*.evtn"))
        assert len(files) == 10
        params = EncoderParams(delta_tau_us=100_000, bins=3, kernel="triangular")
        for path in files:
            t_n = int(path.stem.rsplit("_", 1)[1])
            expected = event_volume(stream, t_n, WindowState(stream.geometry, params))
            assert np.array_equal(read_tensor(path), expected)
        rect = event_volume(
            stream, 1_000_000,
            WindowState(stream.geometry, EncoderParams(delta_tau_us=100_000, bins=3)),
        )
        assert not np.array_equal(read_tensor(out / "events_1000000.evtn"), rect)

    def test_config_value_of_wrong_type_is_usage_error(self, one_second_stream, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"jobs": "many"}))
        code = _run(
            "encode", "--rep", "count", "--events", str(one_second_stream),
            "--out-dir", str(tmp_path / "out"), "--config", str(config),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evrep: error: ") and "jobs" in err
        assert len(err.splitlines()) == 1


# encode's optional flags with values inside their domains; a tiny stream keeps
# every run to at most 10 tensors
_VALID_CONFIG = {
    "delta_tau_us": st.integers(20_000, 200_000),
    "bins": st.integers(1, 4),
    "queue_depth": st.integers(1, 4),
    "recent_events": st.integers(1, 500),
    "sae_decay": st.floats(1e-7, 1e-3),
    "kernel": st.sampled_from(["rect", "triangular"]),
    "jobs": st.integers(1, 3),
}
_WRONG_TYPE = st.one_of(
    st.none(), st.text("xyz", min_size=1, max_size=3),
    st.lists(st.integers(0, 9), max_size=2), st.just({"a": 1}),
)
_CONFIG_ENTRY = st.one_of(
    st.sampled_from(sorted(_VALID_CONFIG)).flatmap(
        lambda key: st.tuples(st.just(key), _VALID_CONFIG[key])),
    st.tuples(st.sampled_from(sorted(_VALID_CONFIG)), _WRONG_TYPE),
    st.tuples(st.just("kernel"), st.sampled_from(["bogus", "RECT", ""])),
    st.tuples(st.sampled_from(["deltatau", "rep", "out_dir", "help", "config"]),
              st.integers(0, 9)),
)


class TestConfigFile:
    @pytest.fixture(scope="class")
    def tiny_stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tiny") / "events.evs"
        geo = FrameGeometry(8, 6, 200_000)
        path.write_bytes(write_events_binary(
            make_random_stream(np.random.default_rng(5), geo, 200)))
        return path

    @settings(max_examples=50, deadline=None)
    @given(config=st.lists(_CONFIG_ENTRY, max_size=4).map(dict))
    def test_any_config_keeps_the_exit_contract(self, tiny_stream, config):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = _run("encode", "--rep", "count", "--events", str(tiny_stream),
                            "--out-dir", str(out), "--config", str(cfg))
            assert code in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= 1
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert not list(out.glob("*.evtn"))

    def test_kernel_from_config_matches_flag(self, one_second_stream, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"kernel": "triangular"}))
        outs = {"config": ["--config", str(config)], "flag": ["--kernel", "triangular"]}
        for name, extra in outs.items():
            assert _run("encode", "--rep", "volume", "--events", str(one_second_stream),
                        "--out-dir", str(tmp_path / name), "--delta-tau-us", "100000",
                        *extra) == 0
        files = sorted(f.name for f in (tmp_path / "flag").glob("*.evtn"))
        assert len(files) == 10
        assert files == sorted(f.name for f in (tmp_path / "config").glob("*.evtn"))
        for name in files:
            flag_bytes = (tmp_path / "flag" / name).read_bytes()
            assert (tmp_path / "config" / name).read_bytes() == flag_bytes

    def test_eval_geometry_from_config_matches_flags(self, tmp_path, capsys):
        anns = [Annotation(0, 0, 0, 10, 10, 0), Annotation(0, 40, 40, 10, 10, 0)]
        dets = [Detection(0, 0, 0, 10, 10, 0, 0.9), Detection(0, 40, 40, 10, 10, 0, 0.3)]
        (tmp_path / "a.csv").write_text(write_annotations_csv(anns))
        (tmp_path / "d.csv").write_text(write_detections_csv(dets))
        levels = tmp_path / "levels.csv"
        levels.write_text("t,box_index,bbofd,level\n0,0,0.5,1\n0,1,9.5,5\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"width": 100, "height": 100}))
        common = ["eval", "--detections", str(tmp_path / "d.csv"),
                  "--annotations", str(tmp_path / "a.csv"), "--levels", str(levels)]
        assert _run(*common, "--width", "100", "--height", "100") == 0
        from_flags = capsys.readouterr().out
        assert _run(*common, "--config", str(config)) == 0
        assert capsys.readouterr().out == from_flags
        assert "level 5 mAP: 1.0000" in from_flags

    @pytest.mark.parametrize("config", [
        {"deltatau": 5}, {"kernel": "bogus"}, {"out_dir": "elsewhere"}, {"bins": 2.5},
    ], ids=["unknown-key", "bad-choice", "required-flag", "float-for-int"])
    def test_rejected_config_is_usage_error(self, config, one_second_stream, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = _run("encode", "--rep", "volume", "--events", str(one_second_stream),
                    "--out-dir", str(out), "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evrep: error: --config: ") and next(iter(config)) in err
        assert len(err.splitlines()) == 1
        assert not list(out.glob("*.evtn"))

    @pytest.mark.parametrize("content", [b"[1, 2]", b"{not json", b"\xff\xfe{}"],
                             ids=["not-an-object", "malformed", "not-utf8"])
    def test_unreadable_config_is_data_error(self, content, one_second_stream, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code = _run("encode", "--rep", "count", "--events", str(one_second_stream),
                    "--out-dir", str(tmp_path / "out"), "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("evrep: ") and len(err.splitlines()) == 1


class TestBench:
    def test_report_well_formed(self, one_second_stream, tmp_path, capsys):
        csv = tmp_path / "report.csv"
        code = _run(
            "bench", "--rep", "taf", "--events", str(one_second_stream),
            "--steps", "15", "--warmup", "5", "--csv", str(csv),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "median" in out and "steps: 10" in out
        assert len(csv.read_text().splitlines()) == 11  # header + 10 samples

    def test_sample_count_excludes_warmup(self, one_second_stream, capsys):
        code = _run(
            "bench", "--rep", "taf", "--events", str(one_second_stream),
            "--delta-tau-us", "100000", "--steps", "10", "--warmup", "3",
        )
        assert code == 0
        assert "steps: 7 (after 3 warm-up)" in capsys.readouterr().out

    def test_zero_event_stream(self, tmp_path, capsys):
        geo = FrameGeometry(8, 8, 200_000)
        empty = tmp_path / "empty.evs"
        from evrep.model import EventStream

        empty.write_bytes(write_events_binary(EventStream.from_arrays(geo, [], [], [], [])))
        code = _run("bench", "--rep", "count", "--events", str(empty), "--steps", "12", "--warmup", "2")
        assert code == 0
        assert "steps: 10" in capsys.readouterr().out

    def test_sample_count_deterministic(self, one_second_stream, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            _run(
                "bench", "--rep", "sae", "--events", str(one_second_stream),
                "--steps", "14", "--warmup", "4", "--csv", str(path),
            )
            csvs.append(len(path.read_text().splitlines()))
        assert csvs[0] == csvs[1] == 11


    @pytest.mark.parametrize("rep,times", [
        ("taf", None), ("volume", None), ("count", None), ("sae", None),
        ("taf", [0, 5_000, 20_000, 20_000, 31_234, 38_000, 77_777, 80_000, 95_001, 999_999]),
    ], ids=["taf", "volume", "count", "sae", "taf-at-annotations"])
    def test_events_processed_matches_window_count(
        self, rep, times, one_second_stream, tmp_path, capsys
    ):
        argv = ["bench", "--rep", rep, "--events", str(one_second_stream), "--warmup", "5",
                "--delta-tau-us", "10000", "--bins", "3", "--recent-events", "30"]
        if times is None:
            argv += ["--steps", "20"]
            t_n = np.arange(1, 21) * 10_000
        else:
            ann = tmp_path / "ann.csv"
            ann.write_text(write_annotations_csv([Annotation(t, 1, 1, 4, 4, 0) for t in times]))
            argv += ["--at-annotations", str(ann)]
            t_n = np.array(sorted(set(times)))
        assert _run(*argv) == 0
        out = capsys.readouterr().out.splitlines()
        line = next(l for l in out if l.startswith("events processed"))
        t = read_events_binary(one_second_stream.read_bytes()).t
        t_prev = np.r_[0, t_n[:-1]]
        upto = np.searchsorted(t, t_n)
        expected = {
            # after an off-grid time TAF reads its open period again
            "taf": upto - np.searchsorted(t, t_prev - t_prev % 10_000),
            "volume": upto - np.searchsorted(t, t_n - 30_000),
            "count": np.minimum(upto, 30),
            "sae": upto - np.searchsorted(t, t_prev),
        }[rep]
        assert line == f"events processed: {int(expected[5:].sum())}"

    @pytest.mark.parametrize("samples_ms,median,p95,mean", [
        ([5, 1, 3], "3.000", "5.000", "3.000"),
        ([1, 2, 3, 10], "2.500", "10.000", "4.000"),
        ([1, 2, 6], "2.000", "6.000", "3.000"),
        ([7], "7.000", "7.000", "7.000"),
        (list(range(100, 0, -1)), "50.500", "95.000", "50.500"),
    ], ids=["odd", "even", "mean", "one-sample", "p95-nearest-rank"])
    def test_statistics_of_the_samples(
        self, samples_ms, median, p95, mean, one_second_stream, tmp_path, monkeypatch, capsys
    ):
        # the clock reads 0 as each step starts and the step's sample as it ends
        ticks = iter([tick for ms in samples_ms for tick in (0.0, ms / 1000)])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        csv = tmp_path / "samples.csv"
        assert _run("bench", "--rep", "count", "--events", str(one_second_stream),
                    "--delta-tau-us", "10000", "--steps", str(len(samples_ms)), "--warmup", "0",
                    "--csv", str(csv)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == f"steps: {len(samples_ms)} (after 0 warm-up)"
        assert out[4:] == [f"median: {median} ms", f"p95:    {p95} ms", f"mean:   {mean} ms"]
        assert csv.read_text() == "step,sample_us\n" + "".join(
            f"{step},{ms * 1000:.3f}\n" for step, ms in enumerate(samples_ms))

    def test_baselines_at_annotation_times(self, one_second_stream, tmp_path, capsys):
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv(
            [Annotation(t, 1, 1, 4, 4, 0) for t in (100_000, 200_000, 200_000, 300_000)]))
        common = ["bench", "--rep", "volume", "--events", str(one_second_stream),
                  "--at-annotations", str(ann), "--warmup", "1"]
        assert _run(*common) == 0
        assert "steps: 2 (after 1 warm-up)" in capsys.readouterr().out
        assert _run(*common, "--steps", "2") == 0
        assert "steps: 1 (after 1 warm-up)" in capsys.readouterr().out

    def test_no_samples_after_warmup_is_usage_error(self, one_second_stream, capsys):
        code = _run("bench", "--rep", "count", "--events", str(one_second_stream),
                    "--steps", "5", "--warmup", "5")
        assert code == 1
        assert capsys.readouterr().err.startswith("evrep: error: ")

    def test_unknown_representation_is_usage_error(self, one_second_stream):
        assert _run("bench", "--rep", "hologram", "--events", str(one_second_stream)) == 1

    @pytest.mark.parametrize("flag,value", [("--warmup", "-1"), ("--steps", "0")])
    def test_flags_are_checked_before_the_body_is_read(self, flag, value, rng, tmp_path, capsys):
        # a valid header over a body whose timestamps descend
        good = make_random_stream(rng, FrameGeometry(16, 12, 1_000_000), 1_000)
        bad = tmp_path / "bad.evs"
        bad.write_bytes(write_events_binary(
            EventStream.from_arrays(good.geometry, good.t[::-1], good.x, good.y, good.p)))
        assert _run("bench", "--rep", "sae", "--events", str(bad), flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"evrep: error: {flag} ") and len(err.splitlines()) == 1

    def test_steps_below_one_on_a_missing_file_is_usage_error(self, tmp_path, capsys):
        # checked before the header is read, like --warmup
        missing = tmp_path / "missing.evs"
        assert _run("bench", "--rep", "count", "--events", str(missing), "--steps", "0") == 1
        assert capsys.readouterr().err == "evrep: error: --steps must be positive\n"

    @pytest.mark.parametrize("rep", ["taf", "volume", "count", "sae"])
    def test_steps_past_the_end_is_usage_error(self, rep, one_second_stream, capsys):
        common = ["bench", "--rep", rep, "--events", str(one_second_stream),
                  "--delta-tau-us", "10000", "--warmup", "0"]
        assert _run(*common, "--steps", "200") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("evrep: error: --steps")
        assert _run(*common, "--steps", "100") == 0
        assert "steps: 100 (after 0 warm-up)" in capsys.readouterr().out

    def test_kernel_is_honoured(self, one_second_stream, monkeypatch):
        kernels = []

        def spy(stream, t_n, state):
            kernels.append(state.params.kernel)
            return event_volume(stream, t_n, state)

        monkeypatch.setattr(evrep.cli, "event_volume", spy)
        code = _run("bench", "--rep", "volume", "--events", str(one_second_stream),
                    "--steps", "4", "--warmup", "1", "--kernel", "triangular")
        assert code == 0
        assert kernels == ["triangular"] * 4


# Both cases hold the largest t_max a header may, 2**63 - 1: one on a 10 ms
# grid, one on a 1 µs grid of 2**63 - 1 steps. Their ids name the headers of
# 2**63 and 2**64 - 1 they held while a header's t_max could pass int64.
_HUGE_GRIDS = pytest.mark.parametrize(
    "t_max,delta_tau", [(2**63 - 1, 10_000), (2**63 - 1, 1)], ids=["t_max-2**63", "t_max-2**64-1"]
)


class TestHugeGrid:
    """A header's t_max alone sets the grid: a huge one neither builds it nor
    writes until the disk is full. Run only under _run_capped."""

    @pytest.mark.parametrize("rep", ["taf", "volume", "count", "sae"])
    @_HUGE_GRIDS
    def test_encode_refuses_and_bench_runs(self, rep, t_max, delta_tau, tmp_path):
        events = tmp_path / "huge.evs"
        events.write_bytes(struct.pack("<4sIHHQ", b"EVST", 1, 8, 6, t_max))
        out = tmp_path / "out"
        common = ["--rep", rep, "--events", events, "--delta-tau-us", delta_tau]
        encode = _run_capped("encode", *common, "--out-dir", out)
        assert encode.returncode == 2
        n_steps = t_max // delta_tau
        assert encode.stderr.startswith(f"evrep: {events}: {n_steps} tensor file(s) need ")
        assert encode.stderr.endswith(" free\n") and len(encode.stderr.splitlines()) == 1
        assert not list(out.iterdir())
        bench = _run_capped("bench", *common, "--steps", 5, "--warmup", 0)
        assert (bench.returncode, bench.stderr) == (0, "")
        assert "steps: 5 (after 0 warm-up)" in bench.stdout

    @pytest.mark.parametrize("rep", ["taf", "volume", "count", "sae"])
    @_HUGE_GRIDS
    def test_bench_without_steps_refuses(self, rep, t_max, delta_tau, tmp_path):
        # its samples would outgrow any memory; it exits before the first step,
        # where without the rule it would run on until the timeout
        events = tmp_path / "huge.evs"
        events.write_bytes(struct.pack("<4sIHHQ", b"EVST", 1, 8, 6, t_max))
        bench = _run_capped("bench", "--rep", rep, "--events", events,
                            "--delta-tau-us", delta_tau, "--warmup", 0, timeout=20)
        assert bench.returncode == 2 and not bench.stdout
        n_steps = t_max // delta_tau
        assert bench.stderr.startswith(f"evrep: {events}: {n_steps} samples need {8 * n_steps} ")
        assert bench.stderr.endswith(" bytes\n") and len(bench.stderr.splitlines()) == 1


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["encode", "--rep", "count", "--events", "{events}", "--out-dir", "{out}",
         "--delta-tau-us", "-5"],
        ["eval", "--detections", "{dets}", "--annotations", "{anns}", "--tolerance-us", "-1"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--p1", "2"],
        ["bench", "--rep", "count", "--events", "{events}", "--warmup", "-1"],
        ["bench", "--rep", "count", "--events", "{events}", "--steps", "0"],
        ["encode", "--rep", "count", "--events", "{events}", "--out-dir", "{out}",
         "--jobs", "-3"],
        ["eval", "--detections", "{dets}", "--annotations", "{anns}", "--levels", "{anns}",
         "--width", "0", "--height", "10"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--alpha", "nan"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--alpha", "inf"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--config", "{config}"],
        ["encode", "--rep", "sae", "--events", "{events}", "--out-dir", "{out}",
         "--sae-decay", "nan"],
        ["encode", "--rep", "sae", "--events", "{events}", "--out-dir", "{out}",
         "--sae-decay", "inf"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--alpha", "1e300",
         "--p2", "1"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--seed", "-1"],
        ["encode", "--rep", "taf", "--events", "{events}", "--out-dir", "{out}",
         "--queue-depth", "1000000000000000"],
        ["encode", "--rep", "volume", "--events", "{events}", "--out-dir", "{out}",
         "--bins", "1000000000000000"],
        ["encode", "--rep", "volume", "--events", "{events}", "--out-dir", "{out}",
         "--delta-tau-us", str(2**62), "--at-annotations", "{late}"],
        ["augment", "--input", "{tensor}", "--output", "{out}/a.evtn", "--p2", "-1e300"],
        ["encode", "--rep", "sae", "--events", "{events}", "--out-dir", "{out}",
         "--sae-decay", "-inf"],
        ["encode", "--rep", "hologram", "--events", "{events}", "--out-dir", "{out}"],
    ], ids=["encode-delta-tau", "eval-tolerance", "augment-p1", "bench-warmup",
            "bench-steps", "encode-jobs", "eval-width", "augment-alpha-nan", "augment-alpha-inf",
            "augment-config-alpha-nan", "encode-sae-decay-nan", "encode-sae-decay-inf",
            "augment-alpha-1e300", "augment-seed-negative", "encode-queue-depth-1e15",
            "encode-bins-1e15", "encode-volume-window-past-int64",
            "argparse-augment-p2-negative-exponent", "argparse-encode-sae-decay-minus-inf",
            "argparse-encode-unknown-rep"])
    def test_parameter_error_is_usage_error(self, argv, one_second_stream, tmp_path, capsys):
        tensor = tmp_path / "in.evtn"
        write_tensor(np.zeros((2, 4, 4), dtype=np.float32), tensor)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": "nan"}))
        late = tmp_path / "late.csv"
        late.write_text(write_annotations_csv([Annotation(500_000, 1, 1, 4, 4, 0)]))
        paths = {
            "events": one_second_stream, "out": tmp_path / "out", "tensor": tensor,
            "config": config, "late": late,
            "dets": FIXTURES / "golden_eval" / "detections.csv",
            "anns": FIXTURES / "golden_eval" / "annotations.csv",
        }
        code = _run(*(arg.format(**paths) for arg in argv))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("evrep: error: ")
        assert len(err.splitlines()) == 1
        assert not list((tmp_path / "out").glob("*.evtn"))

    def test_refused_allocation_is_one_line_data_error(
        self, one_second_stream, tmp_path, monkeypatch, capsys
    ):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(evrep.cli, "event_count_image", refuse)
        code = _run("encode", "--rep", "count", "--events", str(one_second_stream),
                    "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "evrep: Unable to allocate 8.00 EiB for an array\n"

    @pytest.mark.parametrize("rep, read", [
        ("taf", "temporal_active_focus"), ("volume", "event_volume"),
        ("count", "event_count_image"), ("sae", "surface_active_events"),
    ])
    def test_each_tensor_is_freed_before_the_next_read(
        self, one_second_stream, tmp_path, monkeypatch, rep, read
    ):
        # so an encode holds one tensor at a time, not two
        real, last = getattr(evrep.cli, read), []

        def spy(*args):
            assert not last or last[-1]() is None
            tensor = real(*args)
            last.append(weakref.ref(tensor))
            return tensor

        monkeypatch.setattr(evrep.cli, read, spy)
        code = _run("encode", "--rep", rep, "--events", str(one_second_stream),
                    "--out-dir", str(tmp_path / "out"), "--delta-tau-us", "100000")
        assert code == 0 and len(last) == 10

    def test_file_that_shrinks_while_read_is_one_line_data_error(
        self, one_second_stream, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(evrep.cli, "open", lambda path, mode: ShrinksAfterItsSize(path),
                            raising=False)
        code = _run("encode", "--rep", "count", "--events", str(one_second_stream),
                    "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert capsys.readouterr().err == "evrep: input ended 14 bytes short of its size\n"
        assert not list((tmp_path / "out").glob("*.evtn"))

    def test_zero_width_header_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.evs"
        bad.write_bytes(struct.pack("<4sIHHQ", b"EVST", 1, 0, 12, 1_000_000))
        code = _run("encode", "--rep", "count", "--events", str(bad),
                    "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert capsys.readouterr().err == "evrep: frame dimensions must be positive\n"

    @pytest.mark.parametrize("t_max", [2**63, 2**64 - 1], ids=["2**63", "2**64-1"])
    def test_header_past_int64_is_data_error(self, t_max, tmp_path, capsys):
        # every time must fit int64, so t_max stops below 2**63
        bad = tmp_path / "bad.evs"
        bad.write_bytes(struct.pack("<4sIHHQ", b"EVST", 1, 8, 6, t_max))
        out = tmp_path / "o"
        for command in (["encode", "--out-dir", str(out)], ["bench"]):
            code = _run(command[0], "--rep", "count", "--events", str(bad), *command[1:])
            assert code == 2
            assert capsys.readouterr() == ("", "evrep: t_max_us must lie in [1, 2**63)\n")
        assert not out.exists()


# flag values for the flag-value fuzz: integer sizes either small or at least
# 2**50, which the allocator refuses at once; never a size that could really be
# allocated
_INT = st.one_of(
    st.integers(-2, 64).map(str), st.integers(2**50, 2**65).map(str),
    st.sampled_from(["-0", str(2**62), str(2**63 - 1), str(2**63), str(-2**63)]),
)
_FLOAT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0", "0", "1", "1e300", "-1e300", "1e-300",
                     str(2**63)]),
    st.floats(-1, 3, allow_nan=False).map(repr),
)
_REP = st.sampled_from(["taf", "volume", "count", "sae"])


def _flags(required: list, optional: dict):
    """argv of the required flags, then any subset of the optional ones, each
    as --flag=value so that a value such as -inf is not read as a flag."""
    chosen = st.fixed_dictionaries({}, optional=optional)
    return st.tuples(*required, chosen).map(
        lambda drawn: [*drawn[:-1], *(f"{flag}={value}" for flag, value in drawn[-1].items())]
    )


_ENCODER_FLAGS = {
    "--delta-tau-us": _INT, "--bins": _INT, "--queue-depth": _INT, "--recent-events": _INT,
    "--sae-decay": _FLOAT, "--kernel": st.sampled_from(["rect", "triangular"]),
    "--at-annotations": st.sampled_from(["{anns}", "{levels}", "{missing}"]),
}
_ARGV = st.one_of(
    _flags([st.just("encode"), _REP.map("--rep={}".format), st.just("--events={events}"),
            st.just("--out-dir={out}")],
           {**_ENCODER_FLAGS, "--jobs": st.integers(1, 4)}),
    _flags([st.just("bench"), _REP.map("--rep={}".format), st.just("--events={events}")],
           {**_ENCODER_FLAGS, "--steps": _INT, "--warmup": _INT, "--csv": st.just("{out}.csv")}),
    _flags([st.just("levels"), st.sampled_from(["--flows={flows}", "--flows={out}"]),
            st.sampled_from(["--annotations={anns}", "--annotations={levels}"]),
            st.just("--out={out}.csv")],
           {"--boundaries": st.just("{out}.b.csv")}),
    _flags([st.just("eval"), st.just("--detections={dets}"), st.just("--annotations={anns}")],
           {"--tolerance-us": _INT, "--levels": st.sampled_from(["{levels}", "{anns}"]),
            "--width": _INT, "--height": _INT, "--csv": st.just("{out}.csv")}),
    _flags([st.just("augment"), st.just("--input={tensor}"), st.just("--output={out}.evtn")],
           {"--seed": _INT, "--p1": _FLOAT, "--p2": _FLOAT, "--alpha": _FLOAT}),
)


class TestFlagValues:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A 640 µs stream, so that a 1 µs grid is at most 640 small tensors,
        with boxes, detections, flow fields, levels and a tensor to match."""
        root = tmp_path_factory.mktemp("flag_values")
        geo = FrameGeometry(8, 6, 640)
        (root / "e.evs").write_bytes(write_events_binary(
            make_random_stream(np.random.default_rng(3), geo, 60)))
        boxes = [Annotation(100, 0, 0, 4, 4, 0), Annotation(100, 4, 2, 3, 3, 1),
                 Annotation(400, 1, 1, 2, 5, 0)]
        (root / "a.csv").write_text(write_annotations_csv(boxes))
        (root / "d.csv").write_text(write_detections_csv(
            [Detection(b.t, b.x + 0.5, b.y, b.w, b.h, b.class_id, 0.7) for b in boxes]))
        (root / "flows").mkdir()
        for t in (100, 400):
            write_flow(FlowField.from_planes(t, np.full((6, 8), t / 100), np.ones((6, 8))),
                       root / "flows" / f"{t}.flow")
        assert _run("levels", "--flows", str(root / "flows"), "--annotations",
                    str(root / "a.csv"), "--out", str(root / "levels.csv")) == 0
        write_tensor(np.ones((2, 4, 4), dtype=np.float32), root / "t.evtn")
        return {"events": root / "e.evs", "anns": root / "a.csv", "dets": root / "d.csv",
                "flows": root / "flows", "levels": root / "levels.csv",
                "tensor": root / "t.evtn", "missing": root / "missing.csv"}

    @settings(max_examples=150, deadline=None)
    @given(argv=_ARGV)
    @example(argv=["augment", "--input={tensor}", "--output={out}.evtn", "--alpha=1e300",
                   "--p2=1"])
    @example(argv=["encode", "--rep=volume", "--events={events}", "--out-dir={out}",
                   "--bins=1000000000000000"])
    def test_any_flag_values_keep_the_exit_contract(self, inputs, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = _run(*(arg.format(out=out, **inputs) for arg in argv))
            assert code in (0, 1, 2)
            assert len(err.getvalue().splitlines()) <= 1
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert not list(out.glob("*.evtn"))


class TestLevels:
    def _write_inputs(self, tmp_path, intensity=2.0):
        flow_dir = tmp_path / "flows"
        flow_dir.mkdir()
        h, w = 24, 32
        u = np.full((h, w), intensity, dtype=np.float32)
        v = np.zeros((h, w), dtype=np.float32)
        write_flow(FlowField.from_planes(1000, u, v), flow_dir / "t1000.flow")
        boxes = [
            Annotation(1000, 1, 1, 5, 5, 0),
            Annotation(1000, 10, 10, 5, 5, 0),
            Annotation(1000, 20, 2, 5, 5, 1),
        ]
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv(boxes))
        return flow_dir, ann

    def test_constant_flow_all_level_one(self, tmp_path, capsys):
        flow_dir, ann = self._write_inputs(tmp_path)
        out = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith(",1") for row in rows)
        sidecar = tmp_path / "levels.boundaries.csv"
        assert sidecar.exists()

    def test_missing_flow_is_data_error(self, tmp_path):
        flow_dir, ann = self._write_inputs(tmp_path)
        boxes = [Annotation(999, 1, 1, 5, 5, 0)]  # no flow at t=999
        ann.write_text(write_annotations_csv(boxes))
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(tmp_path / "o.csv"))
        assert code == 2

    def test_missing_flow_names_first_kept_box(self, tmp_path, capsys):
        flow_dir, ann = self._write_inputs(tmp_path)
        boxes = [Annotation(1000, 1, 1, 5, 5, 0), Annotation(999, 1, 1, 5, 5, 0),
                 Annotation(998, 1, 1, 5, 5, 0)]
        ann.write_text(write_annotations_csv(boxes))
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert capsys.readouterr().err == "evrep: no flow field at timestamp 999\n"

    def test_duplicate_timestamp_later_file_wins(self, tmp_path):
        flow_dir, ann = self._write_inputs(tmp_path, intensity=2.0)
        u = np.full((24, 32), 7.0, dtype=np.float32)
        write_flow(FlowField.from_planes(1000, u, np.zeros_like(u)), flow_dir / "t1000b.flow")
        out = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(out))
        assert code == 0
        assert [row.split(",")[2] for row in out.read_text().splitlines()[1:]] == ["7.0"] * 3

    @pytest.mark.parametrize(
        "box", [(6, 1, 6, 4), (0, 8, 3, 3)], ids=["inside-both", "outside-smaller"]
    )
    def test_flow_of_another_size_is_data_error(self, box, tmp_path, capsys):
        flow_dir = tmp_path / "flows"
        flow_dir.mkdir()
        for name, t, (h, w) in (("a", 10, (12, 16)), ("b", 20, (6, 8))):
            u = np.ones((h, w), dtype=np.float32)
            write_flow(FlowField.from_planes(t, u, u), flow_dir / f"{name}.flow")
        ann = tmp_path / "ann.csv"
        ann.write_text(write_annotations_csv([Annotation(20, *box, 0)]))
        out = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == (
            f"evrep: flow file {flow_dir / 'b.flow'} is 8x6, but {flow_dir / 'a.flow'} is 16x12\n"
        )
        assert not out.exists()

    def test_no_box_left_after_sanitization_is_data_error(self, tmp_path, capsys):
        flow_dir, ann = self._write_inputs(tmp_path)
        # one box outside the 32x24 frame, and two that overlap
        ann.write_text(write_annotations_csv([Annotation(1000, 40, 1, 5, 5, 0),
                                              Annotation(1000, 1, 1, 5, 5, 0),
                                              Annotation(1000, 3, 3, 5, 5, 1)]))
        out = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == "evrep: no annotations survived sanitization\n"
        assert not out.exists()

    @pytest.mark.parametrize("h,w,plane,message", [
        (24, 32, np.nan, "flow planes must be finite"),
        # a 0-wide frame clips every box away
        (24, 0, 1.0, "no annotations survived sanitization"),
    ], ids=["nan-plane", "zero-width"])
    def test_unusable_flow_file_is_data_error(self, h, w, plane, message, tmp_path, capsys):
        flow_dir, ann = self._write_inputs(tmp_path)
        # written by hand: FlowField.from_planes refuses a non-finite plane
        payload = np.full((2, h, w), plane, dtype="<f4").tobytes()
        (flow_dir / "t1000.flow").write_bytes(struct.pack("<4sQII", b"FLOW", 1000, h, w) + payload)
        out = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == f"evrep: {message}\n"
        assert not out.exists()

    def test_annotation_at_the_last_int64_time(self, tmp_path, capsys):
        # levels and eval --levels take the frame size alone, so no bound on
        # the time is made up from the annotations
        t = 2**63 - 1
        flow_dir, ann = self._write_inputs(tmp_path)
        u = np.full((24, 32), 3.0, dtype=np.float32)
        write_flow(FlowField.from_planes(t, u, u * 0), flow_dir / "last.flow")
        ann.write_text(write_annotations_csv([Annotation(t, 1, 1, 5, 5, 0)]))
        levels = tmp_path / "levels.csv"
        code = _run("levels", "--flows", str(flow_dir), "--annotations", str(ann),
                    "--out", str(levels))
        assert code == 0
        assert levels.read_text().splitlines()[1:] == [f"{t},0,3.0,1"]
        dets = tmp_path / "d.csv"
        dets.write_text(write_detections_csv([Detection(t, 1, 1, 5, 5, 0, 0.9)]))
        capsys.readouterr()
        code = _run("eval", "--detections", str(dets), "--annotations", str(ann),
                    "--levels", str(levels), "--width", "32", "--height", "24")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["overall mAP: 1.0000",
                                                           "level 1 mAP: 1.0000"]


class TestEval:
    def test_golden_fixture_scores_point_three(self, capsys):
        code = _run(
            "eval",
            "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
            "--annotations", str(FIXTURES / "golden_eval" / "annotations.csv"),
        )
        assert code == 0
        assert "overall mAP: 0.3000" in capsys.readouterr().out

    def test_with_levels_prints_breakdown(self, tmp_path, capsys):
        anns = [Annotation(0, 0, 0, 10, 10, 0), Annotation(0, 40, 40, 10, 10, 0)]
        dets = [Detection(0, 0, 0, 10, 10, 0, 0.9), Detection(0, 40, 40, 10, 10, 0, 0.8)]
        ann_path = tmp_path / "a.csv"
        det_path = tmp_path / "d.csv"
        ann_path.write_text(write_annotations_csv(anns))
        det_path.write_text(write_detections_csv(dets))
        levels = tmp_path / "levels.csv"
        levels.write_text("t,box_index,bbofd,level\n0,0,0.5,1\n0,1,9.5,5\n")
        code = _run(
            "eval", "--detections", str(det_path), "--annotations", str(ann_path),
            "--levels", str(levels), "--width", "100", "--height", "100",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "level 1 mAP: 1.0000" in out
        assert "level 5 mAP: 1.0000" in out
        assert "level 2 mAP: n/a" in out

    @pytest.mark.parametrize("boxes", [
        [],
        # one box out of frame, and an overlapping pair
        [Annotation(0, 40, 40, 4, 4, 0), Annotation(0, 1, 1, 4, 4, 0), Annotation(0, 2, 2, 4, 4, 1)],
    ], ids=["no-annotation", "sanitization-drops-every-box"])
    def test_empty_ground_truth_with_levels_scores_zero(self, boxes, tmp_path, capsys):
        dets = tmp_path / "d.csv"
        dets.write_text(write_detections_csv([Detection(0, 1, 1, 4, 4, 0, 0.9)]))
        empty, anns = tmp_path / "empty.csv", tmp_path / "a.csv"
        empty.write_text(write_annotations_csv([]))
        anns.write_text(write_annotations_csv(boxes))
        levels = tmp_path / "levels.csv"
        levels.write_text("t,box_index,bbofd,level\n")
        assert _run("eval", "--detections", str(dets), "--annotations", str(empty)) == 0
        plain = capsys.readouterr().out.splitlines()
        code = _run("eval", "--detections", str(dets), "--annotations", str(anns),
                    "--levels", str(levels), "--width", "32", "--height", "24")
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "overall mAP: 0.0000", *(f"level {lv} mAP: n/a" for lv in range(1, 6)), *plain[1:],
        ]
        assert plain[-1] == "warning: no ground truth classes; mAP defined as 0"

    def test_level_outside_one_to_five_is_data_error(self, tmp_path, capsys):
        levels = tmp_path / "levels.csv"
        levels.write_text("t,box_index,bbofd,level\n0,0,0.5,9\n")
        code = _run(
            "eval",
            "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
            "--annotations", str(FIXTURES / "golden_eval" / "annotations.csv"),
            "--levels", str(levels), "--width", "100", "--height", "100",
        )
        assert code == 2
        assert capsys.readouterr().err == "evrep: line 2: level 9 outside 1..5\n"

    def test_levels_without_geometry_is_usage_error(self, tmp_path):
        code = _run(
            "eval",
            "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
            "--annotations", str(FIXTURES / "golden_eval" / "annotations.csv"),
            "--levels", "whatever.csv",
        )
        assert code == 1

    def test_zero_width_is_usage_error(self, tmp_path, capsys):
        code = _run(
            "eval",
            "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
            "--annotations", str(FIXTURES / "golden_eval" / "annotations.csv"),
            "--levels", "whatever.csv", "--width", "0", "--height", "100",
        )
        assert code == 1
        assert capsys.readouterr().err == "evrep: error: frame dimensions must be positive\n"

    def test_kept_box_without_a_level_is_data_error(self, tmp_path, capsys):
        anns = tmp_path / "a.csv"
        anns.write_text(write_annotations_csv([Annotation(0, 0, 0, 10, 10, 0),
                                               Annotation(0, 40, 40, 10, 10, 0)]))
        levels = tmp_path / "levels.csv"
        levels.write_text("t,box_index,bbofd,level\n0,0,0.5,1\n")
        code = _run("eval", "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
                    "--annotations", str(anns), "--levels", str(levels),
                    "--width", "100", "--height", "100")
        assert code == 2
        assert capsys.readouterr().err == "evrep: no level for annotation (0, 1)\n"

    def test_non_finite_box_coordinate_is_data_error(self, tmp_path, capsys):
        anns = tmp_path / "a.csv"
        anns.write_text("t,x,y,w,h,class_id\n0,1,1,4,4,0\n5,nan,1,4,4,0\n")
        code = _run("eval", "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
                    "--annotations", str(anns))
        assert code == 2
        assert capsys.readouterr().err == "evrep: line 3: non-finite x 'nan'\n"

    def test_csv_output(self, tmp_path):
        out = tmp_path / "result.csv"
        code = _run(
            "eval",
            "--detections", str(FIXTURES / "golden_eval" / "detections.csv"),
            "--annotations", str(FIXTURES / "golden_eval" / "annotations.csv"),
            "--csv", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("overall,,0.3") for line in lines)


class TestAugmentCommand:
    def test_tensor_of_another_version_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "in.evtn"
        src.write_bytes(struct.pack("<4sIIIIB", b"EVTN", 2, 1, 1, 1, 0) + bytes(4))
        code = _run("augment", "--input", str(src), "--output", str(tmp_path / "out.evtn"))
        assert code == 2
        assert capsys.readouterr().err == "evrep: unsupported tensor version 2\n"
        assert not (tmp_path / "out.evtn").exists()

    def test_non_finite_tensor_is_data_error(self, tmp_path, capsys):
        # written by hand: write_tensor refuses a non-finite tensor
        src = tmp_path / "in.evtn"
        nan = struct.pack("<f", float("nan"))
        src.write_bytes(struct.pack("<4sIIIIB", b"EVTN", 1, 1, 1, 2, 0) + bytes(4) + nan)
        dst = tmp_path / "out.evtn"
        code = _run("augment", "--input", str(src), "--output", str(dst), "--seed", "3")
        assert code == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "evrep: tensor contains non-finite values\n")
        assert not dst.exists()

    def test_seeded_determinism(self, rng, tmp_path):
        src = tmp_path / "in.evtn"
        write_tensor(rng.random((2, 6, 6)).astype(np.float32), src)
        outs = []
        for name in ("a.evtn", "b.evtn"):
            dst = tmp_path / name
            code = _run("augment", "--input", str(src), "--output", str(dst), "--seed", "42")
            assert code == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]

    def test_degenerate_config_identity(self, rng, tmp_path):
        src = tmp_path / "in.evtn"
        tensor = rng.random((2, 6, 6)).astype(np.float32)
        write_tensor(tensor, src)
        dst = tmp_path / "out.evtn"
        code = _run(
            "augment", "--input", str(src), "--output", str(dst),
            "--seed", "1", "--p1", "0", "--p2", "0",
        )
        assert code == 0
        assert np.array_equal(read_tensor(dst), tensor)


def test_the_cli_does_not_import_bfm():
    # no command reaches the BFM head, so starting the CLI does not load it
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, evrep.cli; print('evrep.bfm' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert child.stdout == "False\n"
