"""Struct-of-arrays bank of idle-time histograms (one row per application).

:class:`~repro.core.histogram.IdleTimeHistogram` keeps one application's
idle-time distribution; the hybrid family evaluator
(:mod:`repro.simulation.sweep_engine`) needs the state of *every*
application at once so that one numpy operation can update or query all
of them.  :class:`HistogramBank` is the struct-of-arrays twin:

* per-row bin counts for a 2D ``(num_apps, num_bins)`` layout, stored as
  **running cumulative counts with a per-row offset baked in** (see
  below);
* per-row out-of-bounds (OOB) and total counters;
* per-row Welford accumulators over the *bin counts* (the
  representativeness CV signal of the hybrid policy), maintained with the
  exact ``remove``/``add`` update sequence of
  :class:`~repro.core.welford.Welford.replace` so every row's statistics
  are bit-identical to a scalar histogram fed the same observations;
* vectorized percentile bins over row prefixes (the hot path of the
  hybrid family's recording pass).

Storage layout
--------------
The bank stores ``cum[r, b] = offset[r] + sum(counts[r, :b + 1])`` with
``offset[r] = r * 2**32``.  Recording an observation in bin ``b`` turns
into ``cum[r, b:] += 1`` (a broadcast mask add), individual bin counts
are recovered as adjacent differences, and — the point of the layout —
the whole matrix read row-major is strictly sorted, so locating the
percentile bin of every row is **one** exact integer
:func:`numpy.searchsorted` over a flat view instead of a fresh
``cumsum`` plus broadcast comparisons per decision step.  The percentile
targets are integerized with ``ceil`` first, which is exact: cumulative
counts are integers, so ``count(cum < target) == count(cum < ceil(target))``.

All float arithmetic mirrors the scalar code operation for operation, so
a bank row and a scalar :class:`IdleTimeHistogram` that observe the same
idle times agree on every derived quantity down to the last bit — the
property ``TestHistogramBankEquivalence`` locks down.
"""

from __future__ import annotations

import numpy as np

from repro.core.histogram import IdleTimeHistogram
from repro.core.welford import Welford

#: Spacing of the per-row offsets baked into the cumulative matrix; must
#: exceed any single row's total in-bounds count (2**32 observations of
#: one application is far beyond any trace horizon).
_ROW_OFFSET_SPACING = np.int64(1) << 32


class HistogramBank:
    """Fixed-range idle-time histograms for a whole population of apps.

    Args:
        num_apps: Number of rows (applications) in the bank.
        range_minutes: Histogram range shared by every row; idle times at
            or beyond this value are counted as out of bounds.
        bin_width_minutes: Width of each bin in minutes.
    """

    def __init__(
        self,
        num_apps: int,
        range_minutes: float = 240.0,
        bin_width_minutes: float = 1.0,
    ) -> None:
        if num_apps < 0:
            raise ValueError("number of applications must be non-negative")
        if range_minutes <= 0:
            raise ValueError("histogram range must be positive")
        if bin_width_minutes <= 0:
            raise ValueError("bin width must be positive")
        if range_minutes < bin_width_minutes:
            raise ValueError("histogram range must cover at least one bin")
        self._num_apps = int(num_apps)
        self._range_minutes = float(range_minutes)
        self._bin_width = float(bin_width_minutes)
        self._num_bins = int(round(self._range_minutes / self._bin_width))
        # Cumulative-count storage (module docstring): row r starts at its
        # baked-in offset and each in-bounds observation in bin b adds one
        # to cum[r, b:].
        self._offsets = np.arange(self._num_apps, dtype=np.int64) * _ROW_OFFSET_SPACING
        self._cum = np.repeat(self._offsets[:, None], self._num_bins, axis=1)
        self._row_starts = np.arange(self._num_apps, dtype=np.int64) * self._num_bins
        self._bin_grid = np.arange(self._num_bins, dtype=np.int64)
        self._oob_count = np.zeros(self._num_apps, dtype=np.int64)
        self._total_count = np.zeros(self._num_apps, dtype=np.int64)
        self._row_indices = np.arange(self._num_apps, dtype=np.intp)
        # Per-row Welford state over the bin counts.  A fresh scalar
        # histogram seeds its accumulator with num_bins zeros, which yields
        # exactly (count=num_bins, mean=0, m2=0); the count never changes
        # afterwards because every update is a replace.
        self._bin_mean = np.zeros(self._num_apps, dtype=np.float64)
        self._bin_m2 = np.zeros(self._num_apps, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_apps(self) -> int:
        """Number of rows (applications) in the bank."""
        return self._num_apps

    @property
    def range_minutes(self) -> float:
        """Histogram range in minutes (shared by every row)."""
        return self._range_minutes

    @property
    def bin_width_minutes(self) -> float:
        """Bin width in minutes."""
        return self._bin_width

    @property
    def num_bins(self) -> int:
        """Number of bins per row."""
        return self._num_bins

    @property
    def oob_count(self) -> np.ndarray:
        """Per-row out-of-bounds counters (a live view; do not mutate)."""
        return self._oob_count

    @property
    def total_count(self) -> np.ndarray:
        """Per-row total observation counters (a live view; do not mutate)."""
        return self._total_count

    @property
    def in_bounds_count(self) -> np.ndarray:
        """Per-row number of observations recorded inside the range."""
        return self._total_count - self._oob_count

    def counts_row(self, row: int) -> np.ndarray:
        """One row's per-bin counts (reconstructed from the cumulative row)."""
        return np.diff(self._cum[row], prepend=self._offsets[row])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistogramBank(apps={self._num_apps}, range={self._range_minutes}min, "
            f"bins={self._num_bins})"
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def observe(self, rows: np.ndarray, idle_times_minutes: np.ndarray) -> np.ndarray:
        """Record one idle time for each of the given rows.

        Args:
            rows: Unique row indices (one observation per row per call).
            idle_times_minutes: Idle time observed for each row.

        Returns:
            Boolean array: True where the idle time landed inside the
            histogram range, False where it was counted as out of bounds.
        """
        rows = np.asarray(rows, dtype=np.intp)
        idle = np.asarray(idle_times_minutes, dtype=np.float64)
        if np.any(idle < 0):
            raise ValueError("idle time must be non-negative")
        in_bounds = idle < self._range_minutes
        self._total_count[rows] += 1
        rows_oob = rows[~in_bounds]
        if rows_oob.size:
            self._oob_count[rows_oob] += 1
        rows_in = rows[in_bounds]
        if rows_in.size:
            # Same truncation as the scalar bin_index: int() toward zero.
            bins = np.minimum(
                (idle[in_bounds] / self._bin_width).astype(np.int64),
                self._num_bins - 1,
            )
            self._record_bins(rows_in, bins, prefix=False)
        return in_bounds

    def observe_prefix(self, idle_times_minutes: np.ndarray) -> np.ndarray:
        """Record one idle time for each of the first ``len(idle)`` rows.

        Prefix fast path of :meth:`observe` used by the lockstep
        recording loop: row ``k`` receives ``idle_times_minutes[k]``, and
        the caller guarantees non-negative idle times (the recording pass
        derives them from validated, sorted timestamps).  The per-element
        arithmetic is identical to :meth:`observe`; only the row-index
        bookkeeping is cheaper.

        Returns:
            Boolean array: True where the idle time landed inside the
            histogram range.
        """
        idle = np.asarray(idle_times_minutes, dtype=np.float64)
        n = int(idle.size)
        in_bounds = idle < self._range_minutes
        self._total_count[:n] += 1
        if in_bounds.all():
            rows_in = self._row_indices[:n]
            idle_in = idle
            prefix = True
        else:
            oob = ~in_bounds
            self._oob_count[:n][oob] += 1
            rows_in = self._row_indices[:n][in_bounds]
            idle_in = idle[in_bounds]
            prefix = False
        if rows_in.size:
            bins = np.minimum(
                (idle_in / self._bin_width).astype(np.int64), self._num_bins - 1
            )
            self._record_bins(rows_in, bins, prefix=prefix)
        return in_bounds

    def _record_bins(self, rows: np.ndarray, bins: np.ndarray, *, prefix: bool) -> None:
        """Add one observation to bin ``bins[i]`` of row ``rows[i]``.

        Reads the previous bin count from adjacent cumulative differences
        (the baked-in row offsets cancel, except for bin 0 where the left
        neighbour *is* the offset), updates the Welford statistics with the
        exact scalar replace sequence, then bumps the cumulative suffixes.

        Args:
            rows: Row index per observation.
            bins: Bin index per observation.
            prefix: True when (and only when) ``rows`` is exactly
                ``0..len(rows)-1``, enabling in-place slice updates with no
                gather/scatter.
        """
        cum = self._cum
        right = cum[rows, bins]
        left = np.where(
            bins > 0, cum[rows, np.maximum(bins - 1, 0)], self._offsets[rows]
        )
        old = (right - left).astype(np.float64)
        mask = self._bin_grid >= bins[:, None]
        if prefix:
            self._replace_bin_stat_prefix(rows.size, old, old + 1.0)
            cum[: rows.size] += mask
        else:
            self._replace_bin_stat(rows, old, old + 1.0)
            cum[rows] += mask

    def _replace_bin_stat_prefix(
        self, k: int, old_values: np.ndarray, new_values: np.ndarray
    ) -> None:
        """:meth:`_replace_bin_stat` for the first ``k`` rows, in place.

        Same per-element arithmetic, operating on slice views instead of
        gathered copies (``maximum(m2, 0)`` equals the scalar
        ``m2 = 0 if m2 < 0 else m2`` guard — no NaNs can appear here).
        """
        nb = self._num_bins
        mean = self._bin_mean[:k]
        m2 = self._bin_m2[:k]
        if nb == 1:
            mean[:] = new_values
            m2[:] = 0.0
            return
        # remove(old)
        old_mean = (nb * mean - old_values) / (nb - 1)
        np.subtract(m2, (old_values - mean) * (old_values - old_mean), out=m2)
        np.maximum(m2, 0.0, out=m2)
        # add(new)
        delta = new_values - old_mean
        np.add(old_mean, delta / nb, out=old_mean)
        delta2 = new_values - old_mean
        np.add(m2, delta * delta2, out=m2)
        mean[:] = old_mean

    def _replace_bin_stat(
        self, rows: np.ndarray, old_values: np.ndarray, new_values: np.ndarray
    ) -> None:
        """Vectorized :meth:`Welford.replace` across rows.

        Mirrors the scalar remove-then-add sequence operation for
        operation so each row's (mean, m2) stays bit-identical to a scalar
        accumulator fed the same replacements.
        """
        nb = self._num_bins
        mean = self._bin_mean[rows]
        m2 = self._bin_m2[rows]
        if nb == 1:
            # remove() empties the accumulator, add() refills it with one
            # value: mean becomes the value, m2 collapses to zero.
            mean = new_values.astype(np.float64, copy=True)
            m2 = np.zeros_like(mean)
        else:
            # remove(old)
            reduced = nb - 1
            old_mean = (nb * mean - old_values) / reduced
            m2 = m2 - (old_values - mean) * (old_values - old_mean)
            mean = old_mean
            m2 = np.where(m2 < 0.0, 0.0, m2)
            # add(new)
            delta = new_values - mean
            mean = mean + delta / nb
            delta2 = new_values - mean
            m2 = m2 + delta * delta2
        self._bin_mean[rows] = mean
        self._bin_m2[rows] = m2

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #
    def bin_count_cv_prefix(self, n: int) -> np.ndarray:
        """CV of the bin counts for the first ``n`` rows only."""
        nb = self._num_bins
        mean = self._bin_mean[:n]
        m2 = self._bin_m2[:n]
        with np.errstate(divide="ignore", invalid="ignore"):
            cv = np.sqrt(m2 / nb) / np.abs(mean)
        # Same zero-mean convention as Welford.cv: an all-zero row is
        # perfectly regular (0.0); zero mean with residual variance is inf.
        zero_mean = mean == 0.0
        cv = np.where(zero_mean, np.where(m2 == 0.0, 0.0, np.inf), cv)
        return cv

    def percentile_bins_prefix(
        self,
        n: int,
        percentiles: np.ndarray | tuple[float, ...],
        in_bounds: np.ndarray | None = None,
    ) -> np.ndarray:
        """Percentile bin indices for the first ``n`` rows, without validation.

        Locates the weighted-percentile bin of every (percentile, row)
        pair with **one** exact integer :func:`numpy.searchsorted` over
        the flat cumulative view, used by the hybrid family evaluator to
        record every distinct cutoff percentile of a family in one pass.
        Same per-element arithmetic as
        :meth:`~repro.core.histogram.IdleTimeHistogram.percentile`: target
        is ``(q / 100) * in_bounds`` floored at 1e-12, integerized with
        ``ceil`` (exact, the cumulative counts are integers).  Rows with
        no in-bounds observations yield finite garbage instead of
        raising; the caller masks them out.

        Args:
            n: Number of leading rows to compute bins for.
            percentiles: Percentile values in ``[0, 100]``.
            in_bounds: Optional precomputed per-row in-bounds counts.

        Returns:
            Integer array of shape ``(len(percentiles), n)``: the bin
            index of each percentile per row, clipped to the last bin.
            The head cutoff is ``bin * bin_width`` and the tail cutoff
            ``(bin + 1) * bin_width``.
        """
        if in_bounds is None:
            in_bounds = self._total_count[:n] - self._oob_count[:n]
        flat = self._cum[:n].reshape(-1)
        qs = np.asarray(percentiles, dtype=np.float64)
        target = np.maximum(qs[:, None] / 100.0 * in_bounds, 1e-12)
        threshold = np.ceil(target).astype(np.int64) + self._offsets[:n]
        index = np.searchsorted(flat, threshold.reshape(-1), side="left")
        index = index.reshape(qs.size, n) - self._row_starts[:n]
        return np.minimum(index, self._num_bins - 1)

    # ------------------------------------------------------------------ #
    # Interop with the scalar histogram
    # ------------------------------------------------------------------ #
    def extract_row(self, row: int) -> IdleTimeHistogram:
        """Clone one row into a scalar :class:`IdleTimeHistogram`.

        The clone carries the row's exact Welford state (not a recomputed
        one), so a scalar policy continuing from the clone makes the same
        decisions the bank would have made.
        """
        return IdleTimeHistogram.from_state(
            self.counts_row(row),
            oob_count=int(self._oob_count[row]),
            range_minutes=self._range_minutes,
            bin_width_minutes=self._bin_width,
            bin_stats=Welford(
                count=self._num_bins,
                mean=float(self._bin_mean[row]),
                m2=float(self._bin_m2[row]),
            ),
        )
