import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuromap.fidelity import (
    EndSignal,
    FidelityError,
    distortion_flag,
    from_values,
    load_end_signal,
    resample,
    xcorr_curve,
    xcorr_score,
)


def sig(values, dt=1.0):
    return from_values(values, dt)


def brute_force_xcorr(xs, ys, mean_center=True):
    """O(n*m) reference: z[L] = sum_i x[i] y[i+L] / sqrt((x.x)(y.y))."""
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    if mean_center:
        mx = sum(x) / len(x)
        my = sum(y) / len(y)
        x = [v - mx for v in x]
        y = [v - my for v in y]
    # normalize scale first so tiny samples cannot underflow the energies
    sx = max(abs(v) for v in x)
    sy = max(abs(v) for v in y)
    if sx > 0:
        x = [v / sx for v in x]
    if sy > 0:
        y = [v / sy for v in y]
    denom = math.sqrt(sum(v * v for v in x)) * math.sqrt(sum(v * v for v in y))
    out = {}
    for lag in range(-(len(x) - 1), len(y)):
        s = 0.0
        for i in range(len(x)):
            j = i + lag
            if 0 <= j < len(y):
                s += x[i] * y[j]
        out[lag] = s / denom
    return out


def test_autocorrelation_identity():
    rng = np.random.default_rng(0)
    x = sig(rng.normal(size=50))
    peak, shift = xcorr_score(x, x)
    assert abs(peak - 1.0) <= 1e-9
    assert shift == 0.0


def test_impulse_pair_shift():
    x = sig([0.0] * 12, dt=0.01)
    y = sig([0.0] * 12, dt=0.01)
    x = sig([1.0 if i == 5 else 0.0 for i in range(12)], dt=0.01)
    y = sig([1.0 if i == 8 else 0.0 for i in range(12)], dt=0.01)
    peak, shift_ms = xcorr_score(x, y, mean_center=False)
    assert peak == pytest.approx(1.0, abs=1e-9)
    assert shift_ms == pytest.approx(3 * 0.01 * 1000.0, abs=1e-9)
    peak_rev, shift_rev = xcorr_score(y, x, mean_center=False)
    assert shift_rev == pytest.approx(-shift_ms, abs=1e-9)


def test_negated_signal_uncentered_peak_nonpositive():
    # for a nonnegative signal and no mean removal, every lag of
    # x against -x is a sum of nonpositive terms
    x = sig([0.0, 1.0, 3.0, 2.0, 0.5, 0.0])
    y = sig([-v for v in x.samples])
    lags, z = xcorr_curve(x, y, mean_center=False)
    assert z.max() <= 0.0


def test_negated_signal_centered_zero_lag_is_minus_one():
    x = sig([0.0, 1.0, 3.0, 2.0, 0.5, 0.0])
    y = sig([-v for v in x.samples])
    lags, z = xcorr_curve(x, y)
    assert z[list(lags).index(0)] == pytest.approx(-1.0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=2, max_size=24),
    ys=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=2, max_size=24),
)
def test_matches_brute_force_oracle(xs, ys):
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return  # constant signals are zero-energy after centering
    lags, z = xcorr_curve(sig(xs), sig(ys))
    ref = brute_force_xcorr(xs, ys)
    for lag, v in zip(lags, z):
        assert v == pytest.approx(ref[int(lag)], abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=3, max_size=30),
    ys=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=3, max_size=30),
)
def test_bound_and_symmetry(xs, ys):
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        return
    x, y = sig(xs), sig(ys)
    _, z = xcorr_curve(x, y)
    assert np.all(np.abs(z) <= 1.0 + 1e-9)
    p_xy, s_xy = xcorr_score(x, y)
    p_yx, s_yx = xcorr_score(y, x)
    assert p_xy == pytest.approx(p_yx, rel=1e-9)


def test_shift_antisymmetry_generic():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=20)
    ys = np.roll(xs, 4) + rng.normal(size=20) * 0.01
    p1, s1 = xcorr_score(sig(xs), sig(ys))
    p2, s2 = xcorr_score(sig(ys), sig(xs))
    assert s1 == -s2


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.01, max_value=50, allow_nan=False),
    beta=st.floats(min_value=0.01, max_value=50, allow_nan=False),
)
def test_scale_invariance(alpha, beta):
    rng = np.random.default_rng(7)
    xs = rng.normal(size=16)
    ys = rng.normal(size=16)
    p0, s0 = xcorr_score(sig(xs), sig(ys))
    p1, s1 = xcorr_score(sig(alpha * xs), sig(beta * ys))
    assert p1 == pytest.approx(p0, rel=1e-9)
    assert s1 == s0


def test_zero_energy_rejected():
    with pytest.raises(FidelityError):
        xcorr_score(sig([1.0, 1.0, 1.0]), sig([1.0, 2.0, 1.0]))


def test_dt_mismatch_rejected():
    with pytest.raises(FidelityError):
        xcorr_score(sig([1.0, 2.0], dt=1.0), sig([1.0, 2.0], dt=2.0))


def test_end_signal_invariants():
    with pytest.raises(FidelityError):
        EndSignal(samples=(1.0,), dt=1.0)
    with pytest.raises(FidelityError):
        EndSignal(samples=(1.0, 2.0), dt=0.0)


def test_distortion_flag_cases():
    assert distortion_flag(1.0, 0.0, min_peak=0.85, max_shift_ms=100) is False
    assert distortion_flag(0.5, 0.0, min_peak=0.85, max_shift_ms=100) is True
    # strong peak but kilosecond-scale shift still fails
    assert distortion_flag(0.89, 1565.0, min_peak=0.85, max_shift_ms=100) is True
    with pytest.raises(FidelityError):
        distortion_flag(0.9, 0.0, min_peak=0.0, max_shift_ms=10)


def test_resample_zero_order_hold():
    s = resample([(0.0, 1.0), (1.0, 2.0), (2.5, 3.0)], dt=1.0)
    assert s.samples == (1.0, 2.0, 2.0)
    s = resample([(0.0, 1.0), (0.5, 5.0), (2.0, 3.0)], dt=1.0)
    assert s.samples == (1.0, 5.0, 3.0)


def test_resample_single_point_padded():
    s = resample([(0.0, 4.0)], dt=0.5)
    assert s.samples == (4.0, 4.0)


def test_output_snapshot_roundtrip(tmp_path):
    p = tmp_path / "output_snapshot.csv"
    p.write_text("timestamp,value\n0.0,1.0\n1.0,2.0\n2.0,4.0\n")
    s = load_end_signal(p, dt=1.0)
    assert s.samples == (1.0, 2.0, 4.0)
