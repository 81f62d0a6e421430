"""Tests for photodetector and balanced-pair models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector, Photodetector
from repro.errors import ConfigError, DeviceError


def _reference_detection_noise(noise, signal):
    """Reference for ``NoiseModel.apply_detection_noise``: one expression, temporaries."""
    signal = np.asarray(signal, dtype=np.float64)
    if not noise.enabled:
        return signal.copy()
    std = np.sqrt(
        noise.shot_noise_coeff**2 * np.abs(signal)
        + noise.thermal_noise_std**2
        + (noise.rin_coeff * signal) ** 2
    )
    return signal + noise.rng.standard_normal(signal.shape) * std


def _reference_detect_normalized(bpd, differential, scale_w):
    """Reference for ``detect_normalized``: plus/minus split, detect, unscale."""
    d = np.asarray(differential, dtype=np.float64)
    plus = np.where(d > 0, d, 0.0) * scale_w
    minus = np.where(d < 0, -d, 0.0) * scale_w
    r = bpd.detector.responsivity_a_per_w
    return _reference_detection_noise(bpd.noise, r * (plus - minus) / (r * scale_w))


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e300, -1e300]
_signals = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=3, max_side=6),
    elements=st.one_of(
        st.sampled_from(_EDGE_VALUES),
        st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True),
    ),
)


class TestPhotodetector:
    def test_photocurrent_linear_in_power(self):
        pd = Photodetector(dark_current_a=0.0)
        assert float(pd.photocurrent(2e-3)) == pytest.approx(2 * float(pd.photocurrent(1e-3)))

    def test_dark_current_added(self):
        pd = Photodetector(dark_current_a=5e-9)
        assert float(pd.photocurrent(0.0)) == pytest.approx(5e-9)

    def test_rejects_negative_power(self):
        with pytest.raises(DeviceError):
            Photodetector().photocurrent(-1e-3)

    def test_shot_noise_grows_with_sqrt_power(self):
        pd = Photodetector(dark_current_a=0.0)
        ratio = float(pd.shot_noise_std(4e-3)) / float(pd.shot_noise_std(1e-3))
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_thermal_noise_independent_of_power(self):
        pd = Photodetector()
        assert pd.thermal_noise_std() > 0

    def test_snr_improves_with_power(self):
        pd = Photodetector()
        assert pd.snr_db(1e-3) > pd.snr_db(1e-6)

    def test_snr_rejects_nonpositive_power(self):
        with pytest.raises(DeviceError):
            Photodetector().snr_db(0.0)

    def test_snr_is_tens_of_db_at_milliwatt(self):
        assert 20 < Photodetector().snr_db(1e-3) < 120

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            Photodetector(responsivity_a_per_w=0.0)
        with pytest.raises(ConfigError):
            Photodetector(dark_current_a=-1e-9)
        with pytest.raises(ConfigError):
            Photodetector(bandwidth_hz=0.0)


class TestBalancedPhotodetector:
    def test_differential_subtracts(self):
        bpd = BalancedPhotodetector()
        r = bpd.detector.responsivity_a_per_w
        out = bpd.detect(2e-3, 0.5e-3)
        assert float(out) == pytest.approx(r * 1.5e-3)

    def test_dark_current_cancels(self):
        bpd = BalancedPhotodetector(detector=Photodetector(dark_current_a=1e-6))
        assert float(bpd.detect(1e-3, 1e-3)) == pytest.approx(0.0)

    def test_rejects_shape_mismatch(self):
        bpd = BalancedPhotodetector()
        with pytest.raises(DeviceError):
            bpd.detect(np.ones(3), np.ones(4))

    def test_rejects_negative_power(self):
        bpd = BalancedPhotodetector()
        with pytest.raises(DeviceError):
            bpd.detect(np.array([-1e-3]), np.array([0.0]))

    def test_detect_normalized_identity_when_ideal(self):
        bpd = BalancedPhotodetector()
        sig = np.array([1.0, -2.0, 0.25, 0.0])
        assert np.allclose(bpd.detect_normalized(sig), sig)

    def test_detect_normalized_noisy_is_unbiased(self):
        bpd = BalancedPhotodetector(noise=NoiseModel.realistic(seed=3))
        sig = np.full(20000, 0.5)
        out = bpd.detect_normalized(sig)
        assert np.mean(out) == pytest.approx(0.5, abs=1e-3)
        assert np.std(out) > 0

    def test_noise_repeatable_from_seed(self):
        sig = np.linspace(-1, 1, 64)
        a = BalancedPhotodetector(noise=NoiseModel.realistic(seed=9)).detect_normalized(sig)
        b = BalancedPhotodetector(noise=NoiseModel.realistic(seed=9)).detect_normalized(sig)
        assert np.array_equal(a, b)

    def test_nan_propagates(self):
        # NaN must not come out as a plausible finite detection.
        sig = np.array([np.nan, 0.5])
        out = BalancedPhotodetector().detect_normalized(sig)
        assert np.isnan(out[0]) and out[1] == 0.5
        noisy = BalancedPhotodetector(noise=NoiseModel.realistic(seed=1))
        assert np.isnan(noisy.detect_normalized(sig)[0])

    @pytest.mark.parametrize("scale_w", [0.0, -1e-3, float("nan")])
    def test_rejects_nonpositive_scale(self, scale_w):
        with pytest.raises(DeviceError, match="scale_w must be positive"):
            BalancedPhotodetector().detect_normalized(np.ones(3), scale_w=scale_w)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestDetectionBitIdentity:
    """The lean detection path reproduces the split/unscale path bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        sig=_signals,
        responsivity=st.one_of(st.just(1.0), st.floats(0.05, 4.0)),
        scale_w=st.one_of(st.just(1e-3), st.floats(1e-9, 1e3)),
        enabled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        transpose=st.booleans(),
    )
    def test_matches_reference(self, sig, responsivity, scale_w, enabled, seed, transpose):
        if transpose:
            sig = sig.T  # non-C-contiguous for 2-D and 3-D shapes
        before = sig.copy()

        def bpd():
            return BalancedPhotodetector(
                detector=Photodetector(responsivity_a_per_w=responsivity),
                noise=NoiseModel(enabled=enabled, seed=seed),
            )

        lean, reference = bpd(), bpd()
        for _ in range(2):  # the generators must stay in step across calls
            got = lean.detect_normalized(sig, scale_w)
            want = _reference_detect_normalized(reference, sig, scale_w)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(sig, before) and np.array_equal(np.signbit(sig), np.signbit(before))

    @settings(max_examples=100, deadline=None)
    @given(sig=_signals, enabled=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_noise_matches_reference(self, sig, enabled, seed):
        got = NoiseModel(enabled=enabled, seed=seed).apply_detection_noise(sig)
        want = _reference_detection_noise(NoiseModel(enabled=enabled, seed=seed), sig)
        assert got is not sig
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
