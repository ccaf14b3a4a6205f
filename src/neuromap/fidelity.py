"""Output-signal fidelity: normalized cross-correlation peak and time shift.

End signals from event-driven runs are irregular; they are brought onto a
uniform grid by zero-order hold before correlating. The score is the maximum
of z(L) = sum_i x[i] y[i+L] over all integer lags L, normalized by
sqrt((x.x)(y.y)) after mean removal, so a positive t_shift means y lags x.
Shifts are reported in milliseconds (dt is taken to be in seconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configio import MAX_SNAPSHOT_SAMPLES, read_rows


class FidelityError(ValueError):
    """Raised for signals the correlation score is undefined on."""


@dataclass(frozen=True)
class EndSignal:
    samples: tuple[float, ...]
    dt: float

    def __post_init__(self):
        if len(self.samples) < 2:
            raise FidelityError("end signal needs at least 2 samples")
        if self.dt <= 0:
            raise FidelityError("dt must be > 0")


def resample(samples, dt: float) -> EndSignal:
    """Zero-order hold of (timestamp, value) pairs onto a uniform dt grid.

    The grid starts at the first timestamp and covers through the last one.
    Duplicate timestamps keep the later value. FidelityError unless every
    sample is finite and the grid holds at most MAX_SNAPSHOT_SAMPLES points.
    """
    pts = sorted(samples, key=lambda p: p[0])
    if not pts:
        raise FidelityError("cannot resample an empty signal")
    # NaN fails the comparison
    if not dt > 0:
        raise FidelityError("dt must be > 0")
    for t, v in pts:
        if not math.isfinite(t) or not math.isfinite(v):
            raise FidelityError(f"end signal sample ({t!r}, {v!r}) is not finite")
    t0 = pts[0][0]
    span = pts[-1][0] - t0
    # a float count, which a tiny dt can overflow to inf
    count = span / dt + 1e-9
    if count >= MAX_SNAPSHOT_SAMPLES:
        raise FidelityError(f"resampling interval {dt!r} over span {span!r} "
                            f"needs more than {MAX_SNAPSHOT_SAMPLES} samples")
    n = int(math.floor(count)) + 1
    if n < 2:
        n = 2
    out = []
    j = 0
    value = pts[0][1]
    for k in range(n):
        t = t0 + k * dt
        while j < len(pts) and pts[j][0] <= t + 1e-12 * max(1.0, abs(t)):
            value = pts[j][1]
            j += 1
        out.append(value)
    return EndSignal(samples=tuple(out), dt=dt)


def from_values(values, dt: float) -> EndSignal:
    """Signal already on a uniform grid (e.g. one value per frame)."""
    return EndSignal(samples=tuple(float(v) for v in values), dt=dt)


def xcorr_curve(x: EndSignal, y: EndSignal, *, mean_center: bool = True):
    """(lags, z) over every lag; z[i] corresponds to lags[i]."""
    if not math.isclose(x.dt, y.dt, rel_tol=1e-9):
        raise FidelityError(f"signals have different dt: {x.dt} vs {y.dt}")
    a = np.asarray(x.samples, dtype=np.float64)
    b = np.asarray(y.samples, dtype=np.float64)
    if mean_center:
        a = a - a.mean()
        b = b - b.mean()
    # the normalized curve is scale-invariant; rescaling to unit max keeps
    # the energy products from under/overflowing for extreme sample values
    ma = float(np.max(np.abs(a))) if len(a) else 0.0
    mb = float(np.max(np.abs(b))) if len(b) else 0.0
    if ma > 0.0:
        a = a / ma
    if mb > 0.0:
        b = b / mb
    denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    if denom == 0.0:
        raise FidelityError("zero-energy signal, normalization undefined")
    # np.correlate full mode: c[k] = sum_n a[n + k - (len(b)-1)] * b[n],
    # so z[L] = sum_i a[i] b[i+L] is c reversed
    c = np.correlate(a, b, mode="full")
    z = c[::-1] / denom
    lags = np.arange(-(len(a) - 1), len(b))
    return lags, z


def xcorr_score(x: EndSignal, y: EndSignal, *,
                mean_center: bool = True) -> tuple[float, float]:
    """(peak, shift_ms): max of the normalized cross-correlation and its lag.

    Lag ties resolve to the smallest |lag|, then the smaller lag.
    """
    lags, z = xcorr_curve(x, y, mean_center=mean_center)
    peak = float(z.max())
    tied = np.flatnonzero(z == z.max())
    best = min(tied, key=lambda i: (abs(int(lags[i])), int(lags[i])))
    shift_ms = float(lags[best]) * x.dt * 1000.0
    return peak, shift_ms


def distortion_flag(peak: float, t_shift_ms: float, *, min_peak: float,
                    max_shift_ms: float) -> bool:
    """True when the pair fails the acceptance thresholds."""
    if not (0.0 < min_peak <= 1.0):
        raise FidelityError("min_peak must be in (0, 1]")
    # NaN fails every comparison, so it would switch the shift test off
    if not max_shift_ms >= 0:
        raise FidelityError(f"max_shift_ms must be >= 0, got {max_shift_ms!r}")
    return peak < min_peak or abs(t_shift_ms) > max_shift_ms


SIGNAL_COLUMNS = (("timestamp", float), ("value", float))


def load_end_signal(path, dt: float) -> EndSignal:
    """Read an output_snapshot.csv of SIGNAL_COLUMNS and ZOH-resample."""
    return resample(read_rows(path, SIGNAL_COLUMNS, FidelityError), dt)
