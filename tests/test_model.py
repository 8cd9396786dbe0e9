import math

import numpy as np
import pytest

from evrep.errors import InvalidParamError
from evrep.model import (
    Annotation,
    Detection,
    EncoderParams,
    EventStream,
    FlowField,
    FrameGeometry,
    WindowView,
)

from conftest import make_random_stream


def test_tensor_offset_map_is_bijective():
    c, h, w = 3, 4, 5
    offsets = {
        ci * h * w + yi * w + xi for ci in range(c) for yi in range(h) for xi in range(w)
    }
    assert len(offsets) == c * h * w
    assert min(offsets) == 0 and max(offsets) == c * h * w - 1
    # numpy C-order agrees with the offset formula
    a = np.arange(c * h * w).reshape(c, h, w)
    assert a[2, 3, 1] == 2 * h * w + 3 * w + 1


@pytest.mark.parametrize("width,height", [(5, 3), (7, 300)])
def test_cells_is_the_polarity_major_ravel(width, height):
    # every cell once, in the stream's column dtypes; 300 rows overflow a uint8 p * H
    p, y, x = (a.ravel() for a in np.indices((2, height, width)))
    geo = FrameGeometry(width, height, 100)
    got = geo.cells(x.astype(np.int32), y.astype(np.int32), p.astype(np.uint8))
    assert got.dtype == np.int64
    assert np.array_equal(got, np.ravel_multi_index((p, y, x), (2, height, width)))


class TestInvariants:
    def test_geometry_must_be_positive(self):
        with pytest.raises(InvalidParamError):
            FrameGeometry(0, 10, 100)
        with pytest.raises(InvalidParamError):
            FrameGeometry(10, 10, 0)

    def test_t_max_fits_int64(self):
        # every event and detection time lies in [0, t_max], so it fits int64
        assert FrameGeometry(10, 10, 2**63 - 1).t_max_us == 2**63 - 1
        for t_max in (0, -1, 2**63, 2**64 - 1):
            with pytest.raises(InvalidParamError, match=r"^t_max_us must lie in \[1, 2\*\*63\)$"):
                FrameGeometry(10, 10, t_max)

    def test_annotation_needs_positive_size(self):
        with pytest.raises(InvalidParamError):
            Annotation(0, 1.0, 1.0, 0.0, 5.0, 0)

    def test_detection_score_domain(self):
        for score in (1.5, -0.25, float("nan")):
            with pytest.raises(InvalidParamError, match=rf"^score {score} outside \[0, 1\]$"):
                Detection(0, 1.0, 1.0, 5.0, 5.0, 0, score)
        Detection(0, 1.0, 1.0, 5.0, 5.0, 0, 1.0)
        Detection(0, 1.0, 1.0, 5.0, 5.0, 0, 0.0)

    def test_detection_is_an_annotation_plus_a_score(self):
        # the box check is Annotation's, and it runs before the score's
        with pytest.raises(InvalidParamError, match="^box width and height must be positive$"):
            Detection(0, 1.0, 1.0, 0.0, 5.0, 0, 1.5)
        det = Detection(7, 1.0, 2.0, 3.0, 4.0, 5, 0.5)
        assert isinstance(det, Annotation)
        assert det != Annotation(7, 1.0, 2.0, 3.0, 4.0, 5)

    def test_encoder_params_domains(self):
        # the one check of each encoder domain: no encoder repeats it
        for bad in (
            {"delta_tau_us": 0},
            {"bins": 0},
            {"bins": 2**31},  # 2 * bins channels must fit a .evtn header's u32
            {"queue_depth": 0},
            {"queue_depth": 2**31},
            {"recent_events": 0},
            {"bins": 2, "delta_tau_us": 2**62},  # the volume window reaches 2**63 µs
        ):
            with pytest.raises(InvalidParamError):
                EncoderParams(**bad)
        for decay in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParamError):
                EncoderParams(sae_decay_per_us=decay)
        # the largest values inside every bound are accepted
        EncoderParams(bins=2**31 - 1, queue_depth=2**31 - 1, delta_tau_us=1)
        EncoderParams(bins=1, delta_tau_us=2**63 - 1, recent_events=1)

    def test_event_columns_must_be_equally_long(self, small_geometry):
        with pytest.raises(InvalidParamError, match="^event columns must be 1-D and equally long$"):
            EventStream.from_arrays(small_geometry, [0, 1], [0, 1], [0, 1], [0])

    def test_flow_planes_must_have_one_shape(self):
        with pytest.raises(InvalidParamError, match="^u and v must be equal-shape 2-D planes$"):
            FlowField.from_planes(0, np.zeros((2, 3)), np.zeros((3, 2)))

    def test_stream_arrays_are_read_only(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 10)
        with pytest.raises(ValueError):
            stream.t[0] = 5


class TestWindowView:
    def test_from_stream_restricts_to_bounds(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 500)
        window = WindowView.from_stream(stream, 100_000, 200_000, 200_000)
        assert np.all(window.t >= 100_000)
        assert np.all(window.t < 200_000)

    def test_window_cannot_end_after_detection(self, rng, small_geometry):
        stream = make_random_stream(rng, small_geometry, 10)
        with pytest.raises(InvalidParamError):
            WindowView.from_stream(stream, 0, 1000, 999)
