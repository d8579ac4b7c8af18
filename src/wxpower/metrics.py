"""Error and accuracy metrics for paired (solar, wind) predictions.

rmse pools every entry of the prediction matrix (2 per sample). Accuracy
is per source: mean over samples of 1 - |error| / train_mean, where
train_mean is that source's mean production over the *training* split.
The score is deliberately unclamped, so predictions worse than one whole
training-mean of error push it negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as2d(a, name) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError(f"{name} must be (N, 2), got {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} is empty")
    return a


def rmse(pred, target) -> float:
    """Root mean squared error over all entries of both columns."""
    p = _as2d(pred, "pred")
    t = _as2d(target, "target")
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def accuracy(pred, target, train_mean: float) -> float:
    """Mean of 1 - |pred - target| / train_mean over one source's column."""
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    t = np.asarray(target, dtype=np.float64).reshape(-1)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"bad accuracy operands {p.shape} vs {t.shape}")
    if not np.isfinite(train_mean) or train_mean <= 0.0:
        raise ValueError(f"train_mean must be positive, got {train_mean}")
    return float(np.mean(1.0 - np.abs(p - t) / train_mean))


@dataclass(frozen=True)
class MetricReport:
    n: int
    rmse: float
    solar_accuracy: float
    wind_accuracy: float
    train_mean_solar: float
    train_mean_wind: float


def compute_report(pred, target, train_means) -> MetricReport:
    p = _as2d(pred, "pred")
    t = _as2d(target, "target")
    ms, mw = float(train_means[0]), float(train_means[1])
    return MetricReport(
        n=p.shape[0],
        rmse=rmse(p, t),
        solar_accuracy=accuracy(p[:, 0], t[:, 0], ms),
        wind_accuracy=accuracy(p[:, 1], t[:, 1], mw),
        train_mean_solar=ms,
        train_mean_wind=mw,
    )


def report_text(rep: MetricReport) -> str:
    return (
        f"samples:            {rep.n}\n"
        f"rmse_mw:            {rep.rmse:.6f}\n"
        f"solar_accuracy:     {rep.solar_accuracy:.6f}\n"
        f"wind_accuracy:      {rep.wind_accuracy:.6f}\n"
        f"train_mean_solar:   {rep.train_mean_solar:.6f}\n"
        f"train_mean_wind:    {rep.train_mean_wind:.6f}\n"
    )


def report_csv(rep: MetricReport) -> str:
    head = "n,rmse_mw,solar_accuracy,wind_accuracy,train_mean_solar,train_mean_wind"
    row = (f"{rep.n},{rep.rmse:.9g},{rep.solar_accuracy:.9g},"
           f"{rep.wind_accuracy:.9g},{rep.train_mean_solar:.9g},{rep.train_mean_wind:.9g}")
    return head + "\n" + row + "\n"
