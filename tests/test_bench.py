from evrep.bench import BenchReport


def _report(samples):
    return BenchReport(representation="x", params={}, samples_us=list(samples))


class TestBenchReport:
    def test_median_odd_and_even(self):
        assert _report([5.0, 1.0, 3.0]).median_us == 3.0
        assert _report([1.0, 2.0, 3.0, 10.0]).median_us == 2.5

    def test_p95_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert _report(samples).p95_us == 95.0
        assert _report([7.0]).p95_us == 7.0

    def test_mean(self):
        assert _report([1.0, 2.0, 6.0]).mean_us == 3.0

    def test_csv_has_one_row_per_sample(self):
        report = _report([1.5, 2.5])
        lines = report.to_csv().splitlines()
        assert lines[0] == "step,sample_us"
        assert len(lines) == 3

