"""Dependency-free ARIMA(p, d, q) modelling for idle-time forecasting.

The paper falls back to ARIMA time-series forecasting (via the
``pmdarima.auto_arima`` package) for applications whose idle times are too
long to be captured by the compact histogram.  That package is not
available offline, so this module provides a small, self-contained ARIMA
implementation sufficient for the policy's needs:

* differencing of order ``d``;
* ARMA(p, q) estimation with the **Hannan–Rissanen** two-stage procedure
  (a long autoregression estimates the innovations, then the ARMA
  coefficients are obtained by least squares on lagged values and lagged
  innovations);
* one-step-ahead (and multi-step) forecasting with un-differencing;
* :func:`auto_arima`, a small grid search over ``(p, d, q)`` orders scored
  by AIC, mirroring the role ``pmdarima.auto_arima`` plays in the paper.

The implementation intentionally favours robustness on the very short,
irregular series produced by sparse applications (a handful of idle times)
over econometric completeness: every failure mode degrades gracefully to a
simpler model, ending at the series mean.

All numerics are delegated to the stacked kernels in
:mod:`repro.core.arima_batch` with a leading batch dimension of one, so a
scalar fit and a row of a batched fit are the *same* float operations —
the batched hot path (the hybrid family's forecast memo) stays bit-exact
against this scalar reference by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core import arima_batch

__all__ = ["ARIMA", "ARIMAFit", "auto_arima", "difference", "undifference"]


def difference(series: np.ndarray, order: int) -> np.ndarray:
    """Apply ``order`` rounds of first differencing to a series."""
    if order < 0:
        raise ValueError("differencing order must be non-negative")
    out = np.asarray(series, dtype=float)
    for _ in range(order):
        out = np.diff(out)
    return out


def undifference(forecast: float, history: np.ndarray, order: int) -> float:
    """Invert ``order`` rounds of differencing for a one-step forecast.

    Args:
        forecast: Forecast produced in the differenced domain.
        history: The original (undifferenced) series.
        order: Differencing order used when fitting.
    """
    if order == 0:
        return float(forecast)
    history = np.asarray(history, dtype=float)
    value = float(forecast)
    # Re-integrate: a forecast of the d-th difference is added back through
    # the last value of each lower-order differenced series.
    for level in range(order - 1, -1, -1):
        tail = difference(history, level)
        if tail.size == 0:
            return value
        value = value + float(tail[-1])
    return value


@dataclass
class ARIMAFit:
    """Fitted ARIMA model parameters and diagnostics."""

    order: tuple[int, int, int]
    ar_coefficients: np.ndarray
    ma_coefficients: np.ndarray
    intercept: float
    sigma2: float
    aic: float
    nobs: int
    residuals: np.ndarray = field(repr=False)

    @property
    def p(self) -> int:
        return self.order[0]

    @property
    def d(self) -> int:
        return self.order[1]

    @property
    def q(self) -> int:
        return self.order[2]


class ARIMA:
    """ARIMA(p, d, q) model fitted by Hannan–Rissanen conditional least squares.

    Args:
        order: The ``(p, d, q)`` model order.

    Usage::

        model = ARIMA((1, 0, 1))
        fit = model.fit(series)
        next_value = model.forecast(series, steps=1)[0]
    """

    def __init__(self, order: tuple[int, int, int] = (1, 0, 0)) -> None:
        p, d, q = order
        if p < 0 or d < 0 or q < 0:
            raise ValueError("ARIMA orders must be non-negative")
        self.order = (int(p), int(d), int(q))
        self._fit: ARIMAFit | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    @property
    def fitted(self) -> ARIMAFit | None:
        """The most recent fit, or ``None`` if :meth:`fit` has not run."""
        return self._fit

    def fit(self, series: Sequence[float]) -> ARIMAFit:
        """Fit the model to ``series`` and return the fitted parameters.

        The series must contain at least ``d + max(p, q) + 1`` observations;
        shorter series raise ``ValueError`` (callers are expected to fall
        back to a simpler forecast).
        """
        p, d, q = self.order
        raw = np.asarray(series, dtype=float)
        if raw.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if np.any(~np.isfinite(raw)):
            raise ValueError("series contains non-finite values")
        working = difference(raw, d)
        min_len = max(p, q) + 1
        if working.size < max(min_len, 2):
            raise ValueError(
                f"series too short for ARIMA{self.order}: need at least "
                f"{max(min_len, 2) + d} observations, got {raw.size}"
            )
        if p == 0 and q == 0:
            fit = self._fit_mean_only(working)
        else:
            fit = self._fit_hannan_rissanen(working)
        self._fit = fit
        return fit

    def _fit_mean_only(self, working: np.ndarray) -> ARIMAFit:
        """ARIMA(0, d, 0): the differenced series is white noise about a mean."""
        intercept, residuals, sigma2, aic = arima_batch.mean_fit_stack(
            working[None, :]
        )
        return ARIMAFit(
            order=self.order,
            ar_coefficients=np.zeros(0),
            ma_coefficients=np.zeros(0),
            intercept=float(intercept[0]),
            sigma2=float(sigma2[0]),
            aic=float(aic[0]),
            nobs=int(working.size),
            residuals=residuals[0],
        )

    def _fit_hannan_rissanen(self, working: np.ndarray) -> ARIMAFit:
        p, d, q = self.order
        n = working.size
        # Stage 1: long autoregression to estimate the innovations; stage
        # 2: regress x_t on its own lags and lagged innovations.  Both run
        # through the stacked kernels as a batch of one.
        long_order = arima_batch.long_ar_order(p, q, n)
        innovations = self._long_ar_residuals(working, long_order)
        fit = arima_batch.hannan_rissanen_fit_stack(
            working[None, :], innovations[None, :], p, q
        )
        if fit is None:
            # Not enough rows for the regression: degrade to a pure AR fit of
            # reduced order, or to the mean.
            return self._fit_reduced(working)
        coefficients, residuals, sigma2, aic = fit
        return ARIMAFit(
            order=self.order,
            ar_coefficients=np.asarray(coefficients[0, 1 : 1 + p], dtype=float),
            ma_coefficients=np.asarray(coefficients[0, 1 + p :], dtype=float),
            intercept=float(coefficients[0, 0]),
            sigma2=float(sigma2[0]),
            aic=float(aic[0]),
            nobs=n - max(p, q),
            residuals=residuals[0],
        )

    def _fit_reduced(self, working: np.ndarray) -> ARIMAFit:
        """Fallback when the requested order is too rich for the data."""
        intercept, residuals, sigma2, aic = arima_batch.mean_fit_stack(
            working[None, :]
        )
        p, _, q = self.order
        return ARIMAFit(
            order=self.order,
            ar_coefficients=np.zeros(p),
            ma_coefficients=np.zeros(q),
            intercept=float(intercept[0]),
            sigma2=float(sigma2[0]),
            aic=float(aic[0]),
            nobs=int(working.size),
            residuals=residuals[0],
        )

    @staticmethod
    def _long_ar_residuals(working: np.ndarray, long_order: int) -> np.ndarray:
        """Residuals of a long AR fit, used as innovation estimates."""
        return arima_batch.long_ar_innovations_stack(working[None, :], long_order)[0]

    @staticmethod
    def _aic(sigma2: float, *, nobs: int, k: int) -> float:
        """Akaike information criterion for a Gaussian likelihood."""
        return float(arima_batch.aic_stack(np.asarray([sigma2]), nobs, k)[0])

    # ------------------------------------------------------------------ #
    # Forecasting
    # ------------------------------------------------------------------ #
    def forecast(self, series: Sequence[float], steps: int = 1) -> np.ndarray:
        """Forecast ``steps`` values ahead of the end of ``series``.

        The model must have been fitted first (usually on the same series).
        Forecasts are produced in the differenced domain with the fitted
        ARMA recursion and re-integrated back to the original scale.
        """
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if self._fit is None:
            raise RuntimeError("call fit() before forecast()")
        fit = self._fit
        p, d, q = self.order
        raw = np.asarray(series, dtype=float)
        working = difference(raw, d)
        history = list(working)
        innovations = list(fit.residuals[-max(q, 1) :]) if q > 0 else []
        forecasts_diff: list[float] = []
        for _ in range(steps):
            value = fit.intercept
            for lag in range(1, p + 1):
                if len(history) >= lag:
                    value += fit.ar_coefficients[lag - 1] * history[-lag]
            for lag in range(1, q + 1):
                if len(innovations) >= lag:
                    value += fit.ma_coefficients[lag - 1] * innovations[-lag]
            forecasts_diff.append(value)
            history.append(value)
            if q > 0:
                innovations.append(0.0)
        # Re-integrate each step against a history extended with the
        # previously forecast values.
        results: list[float] = []
        extended = np.asarray(raw, dtype=float)
        for value in forecasts_diff:
            restored = undifference(value, extended, d)
            results.append(restored)
            extended = np.append(extended, restored)
        return np.asarray(results)

    def fit_forecast(self, series: Sequence[float], steps: int = 1) -> np.ndarray:
        """Convenience wrapper: fit on ``series`` then forecast ``steps`` ahead."""
        self.fit(series)
        return self.forecast(series, steps=steps)


def auto_arima(
    series: Sequence[float],
    *,
    max_p: int = 2,
    max_d: int = 1,
    max_q: int = 2,
    candidates: Iterable[tuple[int, int, int]] | None = None,
) -> ARIMA:
    """Select and fit the ARIMA order with the lowest AIC.

    This mirrors the role of ``pmdarima.auto_arima`` in the paper: it
    searches a small grid of ``(p, d, q)`` orders, fits each candidate with
    :class:`ARIMA`, and returns the fitted model with the lowest AIC.
    Orders that cannot be fitted on the (possibly very short) series are
    skipped; if nothing fits, an ARIMA(0, 0, 0) mean model is returned.
    """
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise ValueError("cannot fit ARIMA on an empty series")
    if candidates is None:
        candidates = [
            (p, d, q)
            for d in range(max_d + 1)
            for p in range(max_p + 1)
            for q in range(max_q + 1)
        ]
    best_model: ARIMA | None = None
    best_aic = float("inf")
    for order in candidates:
        model = ARIMA(order)
        try:
            fit = model.fit(values)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if not math.isfinite(fit.aic):
            continue
        if fit.aic < best_aic:
            best_aic = fit.aic
            best_model = model
    if best_model is None:
        fallback = ARIMA((0, 0, 0))
        if values.size == 1:
            # A single observation: fabricate a degenerate fit by repeating it.
            fallback.fit(np.asarray([values[0], values[0]]))
        else:
            fallback.fit(values)
        return fallback
    return best_model
