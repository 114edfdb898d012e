"""Stacked-window (batched) Hannan-Rissanen ARIMA fitting.

The scalar model in :mod:`repro.core.arima` fits one series at a time;
the hybrid family evaluator's forecast memo routinely needs the same fit
for *hundreds of histories at once* (every invocation selected by the
out-of-bounds mask).  This module lowers the whole procedure — the long
autoregression, the stage-2 least squares, the AIC grid search of
:func:`~repro.core.arima.auto_arima`, and the one-step forecast — to
operations over a ``(rows, window)`` stack, so a batch of R same-length
histories costs a handful of gufunc calls instead of R Python-level
model fits.

Bit-compatibility is the design constraint, not an afterthought: the
scalar :class:`~repro.core.arima.ARIMA` delegates its numerics to these
kernels with a leading batch dimension of one, and numpy's batched
``pinv`` / ``einsum`` / reductions produce bit-identical per-slice
results regardless of the leading batch size.  A batched fit over R
histories therefore *is* the R scalar fits, to the last bit — which is
what lets the family evaluator keep its exact-cold-start equivalence
locks while replacing the per-row Python loop.

Least squares is solved via the SVD pseudo-inverse (``np.linalg.pinv``)
rather than ``lstsq``: ``pinv`` is a gufunc (it broadcasts over the
stack) and returns the same minimum-norm solution on rank-deficient
designs, whereas ``lstsq`` only accepts one matrix at a time.

All series must be finite; callers validate at the boundary (the scalar
``fit`` raises, the forecaster's histories are observed idle times).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_CANDIDATES",
    "aic_stack",
    "auto_arima_forecast_stack",
    "group_rows_by_length",
    "hannan_rissanen_fit_stack",
    "long_ar_innovations_stack",
    "long_ar_order",
    "lstsq_stack",
    "mean_fit_stack",
    "residuals_stack",
]

#: The ``auto_arima`` default grid, in its exact iteration order (``d``
#: outer, ``p`` middle, ``q`` inner); first minimum wins under strict
#: ``<`` comparison, so the order is part of the selection semantics.
DEFAULT_CANDIDATES: tuple[tuple[int, int, int], ...] = tuple(
    (p, d, q) for d in (0, 1) for p in (0, 1, 2) for q in (0, 1, 2)
)


def long_ar_order(p: int, q: int, n: int) -> int:
    """Stage-1 long-AR order for an ARMA(p, q) fit on ``n`` observations.

    Grows slowly with the series length but never exceeds what the data
    can support; shared by the scalar and stacked fitters so both stages
    see the same design matrices.
    """
    return min(max(p + q, int(round(math.log(max(n, 2)) * 2)), 1), max(n // 2, 1))


def lstsq_stack(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Batched least squares: minimum-norm solution per stacked system.

    Args:
        design: ``(..., rows, k)`` design matrices.
        target: ``(..., rows)`` regression targets.

    Returns:
        ``(..., k)`` coefficient vectors.
    """
    pseudo_inverse = np.linalg.pinv(design)
    return np.einsum("...km,...m->...k", pseudo_inverse, target)


def residuals_stack(
    design: np.ndarray, coefficients: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Regression residuals ``target - design @ coefficients``, batched."""
    return target - np.einsum("...mk,...k->...m", design, coefficients)


def aic_stack(sigma2: np.ndarray, nobs: int, k: int) -> np.ndarray:
    """Akaike information criterion per stacked fit (Gaussian likelihood)."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if nobs <= 0:
        return np.full(sigma2.shape, np.inf)
    safe_sigma2 = np.maximum(sigma2, 1e-12)
    log_likelihood = -0.5 * nobs * (np.log(2 * math.pi * safe_sigma2) + 1.0)
    return 2.0 * k - 2.0 * log_likelihood


def mean_fit_stack(
    working: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """White-noise-about-a-mean fit per row (ARIMA(0, d, 0) and fallbacks).

    Returns:
        ``(intercept, residuals, sigma2, aic)`` with shapes
        ``(R,), (R, n), (R,), (R,)``.
    """
    n = working.shape[-1]
    intercept = np.mean(working, axis=-1) if n else np.zeros(working.shape[0])
    residuals = working - intercept[..., None]
    sigma2 = np.mean(residuals**2, axis=-1) if n else np.zeros(working.shape[0])
    aic = aic_stack(sigma2, n, 1)
    return intercept, residuals, sigma2, aic


def long_ar_innovations_stack(working: np.ndarray, long_order: int) -> np.ndarray:
    """Stage 1 of Hannan-Rissanen: innovations from a long AR fit, per row.

    Mirrors :meth:`repro.core.arima.ARIMA._long_ar_residuals` over a
    ``(R, n)`` stack: positions before ``long_order`` are zero, the rest
    are the residuals of the order-``long_order`` autoregression.
    """
    num_rows, n = working.shape
    if long_order >= n:
        long_order = max(n - 1, 1)
    rows = n - long_order
    innovations = np.zeros((num_rows, n))
    if rows < 1:
        return innovations
    design = np.empty((num_rows, rows, 1 + long_order))
    design[:, :, 0] = 1.0
    for lag in range(1, long_order + 1):
        design[:, :, lag] = working[:, long_order - lag : n - lag]
    target = working[:, long_order:]
    coefficients = lstsq_stack(design, target)
    innovations[:, long_order:] = residuals_stack(design, coefficients, target)
    return innovations


def hannan_rissanen_fit_stack(
    working: np.ndarray, innovations: np.ndarray, p: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Stage 2 of Hannan-Rissanen: the ARMA regression, per row.

    Regresses ``x_t`` on its own lags and the lagged stage-1 innovations
    for every row of the stack at once.

    Returns:
        ``(coefficients, residuals, sigma2, aic)`` with shapes
        ``(R, 1+p+q), (R, rows), (R,), (R,)`` — or ``None`` when the
        series is too short for the regression (``rows < p + q + 1``),
        in which case callers degrade to the mean model, exactly like
        the scalar ``_fit_reduced`` fallback.
    """
    num_rows, n = working.shape
    start = max(p, q)
    rows = n - start
    if rows < p + q + 1:
        return None
    design = np.empty((num_rows, rows, 1 + p + q))
    design[:, :, 0] = 1.0
    target = working[:, start:]
    for lag in range(1, p + 1):
        design[:, :, lag] = working[:, start - lag : n - lag]
    for lag in range(1, q + 1):
        design[:, :, p + lag] = innovations[:, start - lag : n - lag]
    coefficients = lstsq_stack(design, target)
    residuals = residuals_stack(design, coefficients, target)
    sigma2 = np.mean(residuals**2, axis=-1)
    aic = aic_stack(sigma2, rows, 1 + p + q)
    return coefficients, residuals, sigma2, aic


def auto_arima_forecast_stack(
    stack: np.ndarray,
    candidates: Iterable[tuple[int, int, int]] | None = None,
) -> np.ndarray:
    """One-step forecast of the lowest-AIC candidate, per stacked row.

    The batched counterpart of ``auto_arima(series).forecast(series)[0]``
    applied to every row of a ``(R, L)`` stack of same-length series:
    every candidate order is fitted on the whole stack, AIC selects the
    winner per row (first minimum under strict ``<``, in candidate
    order — the same tie-breaking as the scalar grid search), and the
    winner's one-step forecast is re-integrated per row.  Rows for which
    no candidate fits fall back to the series mean, matching the scalar
    ARIMA(0, 0, 0) fallback.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError("stack must be two-dimensional (rows, window)")
    num_rows, length = stack.shape
    if length == 0:
        raise ValueError("cannot fit ARIMA on empty series")
    if candidates is None:
        candidates = DEFAULT_CANDIDATES
    else:
        candidates = tuple(candidates)

    # Differenced stacks, one per differencing order in the grid.
    max_d = max((order[1] for order in candidates), default=0)
    workings = [stack]
    for _ in range(max_d):
        workings.append(np.diff(workings[-1], axis=-1))

    # The scalar search returns the ARIMA(0, 0, 0) mean model when no
    # candidate fits; seeding the running best with the mean forecast
    # (at +inf AIC, so any finite fit beats it) reproduces that.
    best_aic = np.full(num_rows, np.inf)
    best_forecast = np.mean(stack, axis=-1)

    innovations_cache: dict[tuple[int, int], np.ndarray] = {}
    for p, d, q in candidates:
        working = workings[d]
        n = working.shape[-1]
        if n < max(max(p, q) + 1, 2):
            continue
        if p == 0 and q == 0:
            intercept, residuals, _, aic = mean_fit_stack(working)
            ar = ma = np.zeros((num_rows, 0))
        else:
            order_key = (d, long_ar_order(p, q, n))
            innovations = innovations_cache.get(order_key)
            if innovations is None:
                innovations = long_ar_innovations_stack(working, order_key[1])
                innovations_cache[order_key] = innovations
            fit = hannan_rissanen_fit_stack(working, innovations, p, q)
            if fit is None:
                # Reduced fallback: the mean model with zero AR/MA
                # coefficients (they still enter the forecast recursion,
                # exactly as the scalar reduced fit's zero arrays do).
                intercept, residuals, _, aic = mean_fit_stack(working)
                ar = np.zeros((num_rows, p))
                ma = np.zeros((num_rows, q))
            else:
                coefficients, residuals, _, aic = fit
                intercept = coefficients[:, 0]
                ar = coefficients[:, 1 : 1 + p]
                ma = coefficients[:, 1 + p :]

        # One-step forecast in the differenced domain, accumulated in
        # the scalar recursion's term order (intercept, AR lags 1..p,
        # MA lags 1..q), then re-integrated through the lower-order
        # differenced tails.
        value = intercept.copy()
        for lag in range(1, p + 1):
            value += ar[:, lag - 1] * working[:, n - lag]
        for lag in range(1, q + 1):
            value += ma[:, lag - 1] * residuals[:, residuals.shape[-1] - lag]
        for level in range(d - 1, -1, -1):
            tail = workings[level]
            if tail.shape[-1] == 0:
                break
            value = value + tail[:, -1]

        better = np.isfinite(aic) & (aic < best_aic)
        if better.any():
            best_aic[better] = aic[better]
            best_forecast[better] = value[better]
    return best_forecast


def group_rows_by_length(
    histories: Sequence[np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group variable-length 1-D histories into same-length stacks.

    Returns:
        ``[(indices, stack), ...]`` where ``stack[i] == histories[j]``
        for ``j = indices[i]``; every input index appears in exactly one
        group.  Groups are ordered by ascending length.
    """
    lengths = np.asarray([len(history) for history in histories], dtype=np.int64)
    groups: list[tuple[np.ndarray, np.ndarray]] = []
    for length in np.unique(lengths):
        indices = np.nonzero(lengths == length)[0]
        stack = np.empty((indices.size, int(length)), dtype=np.float64)
        for i, j in enumerate(indices):
            stack[i] = histories[j]
        groups.append((indices, stack))
    return groups
