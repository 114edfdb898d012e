"""Idle-time forecasting for applications with out-of-bounds idle times.

Applications that are invoked very infrequently produce idle times longer
than the histogram range, so the histogram alone carries no information
about them.  For these applications the hybrid policy keeps a short window
of recent idle times and asks an ARIMA model (selected by
:func:`repro.core.arima.auto_arima`) to forecast the next idle time.  The
policy then schedules the pre-warming window just before the forecast and
keeps the application alive for a small margin around it (15% by default).

Two shapes of the same computation live here.  :class:`IdleTimeForecaster`
is the scalar per-application model the paper describes; the module-level
:func:`forecast_idle_times` batches it across many applications at once
via the stacked kernels in :mod:`repro.core.arima_batch` (histories
grouped by length, one stacked Hannan-Rissanen grid search per group).
Because the scalar model delegates to the same kernels as a batch of
one, the batched forecasts are bit-identical to looping the scalar
forecaster row by row — the hybrid family evaluator's forecast memo
relies on that exactness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Sequence

import numpy as np

from repro.core.arima import ARIMA, auto_arima
from repro.core.arima_batch import auto_arima_forecast_stack, group_rows_by_length
from repro.core.windows import PolicyDecision

#: Default minimum observations before ARIMA is attempted (see
#: :class:`IdleTimeForecaster`); shorter histories use the mean.
DEFAULT_MIN_HISTORY = 4


def predict_idle_times_stack(
    stack: np.ndarray, *, min_history: int = DEFAULT_MIN_HISTORY
) -> np.ndarray:
    """Next-idle-time forecasts for a stack of same-length histories.

    The batched counterpart of
    :meth:`IdleTimeForecaster.predict_next_idle_time` with the default
    refit-every-observation configuration: below ``min_history``
    observations the forecast is the history mean (zero for empty
    histories), otherwise the best-AIC ARIMA one-step forecast, falling
    back to the mean where the model prediction is non-finite or
    non-positive.
    """
    stack = np.asarray(stack, dtype=np.float64)
    num_rows, length = stack.shape
    if length == 0:
        return np.zeros(num_rows)
    mean = np.mean(stack, axis=-1)
    if length < min_history:
        return mean
    predictions = auto_arima_forecast_stack(stack)
    return np.where(np.isfinite(predictions) & (predictions > 0), predictions, mean)


def forecast_idle_times(histories: Sequence[np.ndarray]) -> np.ndarray:
    """Next-idle-time forecasts for variable-length histories, batched.

    Histories are grouped by length and each group is forecast with one
    stacked fit.  Should a stacked fit fail to converge (SVD breakdown —
    effectively unseen on these tiny, well-scaled designs), the affected
    group degrades to the scalar forecaster row by row, which skips only
    the offending candidate orders.
    """
    predictions = np.empty(len(histories), dtype=np.float64)
    for indices, stack in group_rows_by_length(histories):
        try:
            predictions[indices] = predict_idle_times_stack(stack)
        except np.linalg.LinAlgError:
            for j in indices:
                history = histories[j]
                forecaster = IdleTimeForecaster.from_history(
                    history, max_history=max(len(history), 2)
                )
                predictions[j] = forecaster.predict_next_idle_time()[0]
    return predictions


@dataclass(frozen=True)
class ForecastResult:
    """Outcome of one idle-time forecast."""

    predicted_idle_minutes: float
    decision: PolicyDecision
    model_order: tuple[int, int, int]
    used_fallback: bool


class IdleTimeForecaster:
    """Maintains recent idle times for one application and forecasts the next.

    Args:
        margin: Fractional margin around the forecast (0.15 in the paper):
            the pre-warming window is ``forecast * (1 - margin)`` and the
            keep-alive window spans ``2 * margin * forecast`` (the margin
            on each side of the predicted invocation time).
        max_history: Number of recent idle times retained for fitting.
        min_history: Minimum observations before ARIMA is attempted; below
            this the forecaster falls back to the mean of what it has seen.
        refit_every: Refit the model every N observations (1 = always, the
            paper refits after every invocation because these applications
            are rare).
    """

    def __init__(
        self,
        *,
        margin: float = 0.15,
        max_history: int = 64,
        min_history: int = 4,
        refit_every: int = 1,
    ) -> None:
        if not 0 <= margin < 1:
            raise ValueError("margin must be in [0, 1)")
        if max_history < 2:
            raise ValueError("max_history must be at least 2")
        if min_history < 2:
            raise ValueError("min_history must be at least 2")
        if refit_every < 1:
            raise ValueError("refit_every must be at least 1")
        self._margin = margin
        self._history: Deque[float] = deque(maxlen=max_history)
        self._min_history = min_history
        self._refit_every = refit_every
        self._observations_since_fit = 0
        self._model: ARIMA | None = None

    # ------------------------------------------------------------------ #
    @property
    def history(self) -> list[float]:
        """Copy of the retained idle times (oldest first)."""
        return list(self._history)

    @property
    def margin(self) -> float:
        return self._margin

    def observe(self, idle_time_minutes: float) -> None:
        """Record one observed idle time."""
        if idle_time_minutes < 0:
            raise ValueError("idle time must be non-negative")
        self._history.append(float(idle_time_minutes))
        self._observations_since_fit += 1

    def _fit_if_needed(self) -> tuple[ARIMA | None, bool]:
        """Return (model, used_fallback); fits lazily on the retained history."""
        if len(self._history) < self._min_history:
            return None, True
        needs_fit = (
            self._model is None or self._observations_since_fit >= self._refit_every
        )
        if needs_fit:
            try:
                self._model = auto_arima(np.asarray(self._history))
            except (ValueError, np.linalg.LinAlgError):
                self._model = None
                return None, True
            self._observations_since_fit = 0
        return self._model, False

    def predict_next_idle_time(self) -> tuple[float, tuple[int, int, int], bool]:
        """Forecast the next idle time in minutes.

        Returns:
            ``(prediction, model_order, used_fallback)``.  The fallback is
            the mean of the retained history (or zero when empty), used when
            the history is too short or the model fit fails.
        """
        model, used_fallback = self._fit_if_needed()
        if model is None:
            if not self._history:
                return 0.0, (0, 0, 0), True
            return float(np.mean(self._history)), (0, 0, 0), True
        try:
            prediction = float(model.forecast(np.asarray(self._history), steps=1)[0])
        except (RuntimeError, ValueError, np.linalg.LinAlgError):
            return float(np.mean(self._history)), model.order, True
        if not np.isfinite(prediction) or prediction <= 0:
            prediction = float(np.mean(self._history))
            used_fallback = True
        return prediction, model.order, used_fallback

    def decide(self, *, minimum_keepalive_minutes: float = 1.0) -> ForecastResult:
        """Produce a policy decision from the forecast.

        The pre-warming window elapses just before the predicted invocation
        (forecast minus the margin) and the keep-alive window covers the
        margin on both sides of the prediction, as in the paper's example
        (a 5-hour prediction gives a 4.25-hour pre-warm and a 1.5-hour
        keep-alive).
        """
        prediction, order, used_fallback = self.predict_next_idle_time()
        prewarm = max(prediction * (1.0 - self._margin), 0.0)
        keepalive = max(2.0 * self._margin * prediction, minimum_keepalive_minutes)
        decision = PolicyDecision(prewarm_minutes=prewarm, keepalive_minutes=keepalive)
        return ForecastResult(
            predicted_idle_minutes=prediction,
            decision=decision,
            model_order=order,
            used_fallback=used_fallback,
        )

    def reset(self) -> None:
        """Forget all retained idle times and the fitted model."""
        self._history.clear()
        self._model = None
        self._observations_since_fit = 0

    def __len__(self) -> int:
        return len(self._history)

    @classmethod
    def from_history(
        cls, idle_times_minutes: Sequence[float], **kwargs: float
    ) -> "IdleTimeForecaster":
        """Build a forecaster pre-loaded with a sequence of idle times."""
        forecaster = cls(**kwargs)  # type: ignore[arg-type]
        for value in idle_times_minutes:
            forecaster.observe(value)
        return forecaster
