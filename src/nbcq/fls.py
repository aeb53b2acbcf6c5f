"""Feature-loss driven local search for the threshold exponent.

The search walks a one-dimensional grid n_init + k * step inside
[n_min, n_max] in a fixed order: the offsets k = 0, +1, -1, +2, -2, ...,
each side ending at its bound. After scoring an offset it checks the grid
point one step from it toward n_init, which is a certified local minimum
once it and both its neighbours are scored and it lies strictly below
both. At the first certificate the walk scores at most one more
candidate, the next in the order if it lies on the other side of n_init,
and stops. The reported exponent is the argmin over everything evaluated,
with ties broken toward the earliest-explored candidate so runs are
reproducible. The search is local by design: a deeper valley beyond an
intervening rise is never visited.

The default evaluation criterion is the feature loss, the mean squared
entry-wise distance between full-precision and quantized pre-head
features. Any other criterion (for example perplexity on a calibration
set) plugs in through the same ``evaluator`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, count, takewhile, zip_longest
from typing import Callable, Iterator

import numpy as np

from .errors import EvaluatorError, FitError
from .numerics import as_tensor
from .transform import N_EXP_RANGE

__all__ = [
    "MIN_STEP",
    "HOLDOUT_FRACTION",
    "FlsConfig",
    "FlsResult",
    "check_fit_rows",
    "compute_feature_loss",
    "holdout_count",
    "holdout_split",
    "fls_search",
    "search_n_for_pipeline",
]

# The finest grid step: N_EXP_RANGE then holds at most 1,281 grid points, and
# n_init + k * step moves with every k, so the walk ends. A step so small that
# it vanishes next to n_init would score the same exponent forever.
MIN_STEP = 2.0**-6

# The share of the records the search holds out to score its candidates.
HOLDOUT_FRACTION = 0.25


@dataclass(frozen=True)
class FlsConfig:
    """Search grid and hold-out seed for the exponent search; the bounds of
    the grid are stated here only, for the run configuration too (the
    fit-row rule is :func:`check_fit_rows`)."""

    n_init: float = 2.0
    n_min: float = -10.0
    n_max: float = 10.0
    step: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for key, ok, rule in (
            ("n_min", N_EXP_RANGE[0] <= self.n_min, f">= {N_EXP_RANGE[0]}"),
            ("n_max", self.n_max <= N_EXP_RANGE[1], f"<= {N_EXP_RANGE[1]}"),
            ("n_init", self.n_min <= self.n_init <= self.n_max, "in [n_min, n_max]"),
            ("step", self.step >= MIN_STEP, f">= {MIN_STEP}"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")


@dataclass
class FlsResult:
    """Outcome of one search run.

    ``history`` maps each evaluated exponent to its loss in exploration
    order (dict insertion order is the trace).
    """

    chosen_n: float
    history: dict[float, float] = field(repr=False)

    @property
    def evaluations(self) -> int:
        """How many candidates the search scored."""
        return len(self.history)


def compute_feature_loss(f_full, f_quant) -> float:
    """Mean squared entry-wise distance between two feature tensors."""
    a = as_tensor(f_full, "f_full")
    b = as_tensor(f_quant, "f_quant")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def holdout_count(n_records: int) -> int:
    """Records :func:`holdout_split` holds out: floor(n * HOLDOUT_FRACTION), at least 1."""
    return max(1, int(np.floor(n_records * HOLDOUT_FRACTION)))


def check_fit_rows(n_samples: int, d: int) -> None:
    """Raise ValueError unless the hold-out quarter leaves d + 1 rows to fit d weights and a bias."""
    fit_rows = n_samples - holdout_count(n_samples)
    if fit_rows < d + 1:
        raise ValueError(
            f"n_samples = {n_samples} leaves {fit_rows} rows to fit on after the hold-out "
            f"quarter; the search needs at least d + 1 = {d + 1}"
        )


def holdout_split(n_records: int, cfg: FlsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Split the record indices ``0 .. n_records - 1`` into disjoint
    (fit, holdout) index arrays.

    A seeded permutation picks the hold-out quarter, floor(n *
    HOLDOUT_FRACTION) records and at least 1, so the 512-record default
    splits 384/128. Each array is sorted ascending.
    """
    if n_records < 2:
        raise ValueError(f"need at least 2 records to split, got {n_records}")
    n_hold = holdout_count(n_records)
    perm = np.random.default_rng(cfg.seed).permutation(n_records)
    return np.sort(perm[n_hold:]), np.sort(perm[:n_hold])


def _visit_order(cfg: FlsConfig) -> Iterator[int]:
    """The grid offsets k = 0, +1, -1, +2, -2, ..., each side ending at its bound."""
    up = takewhile(lambda k: cfg.n_init + k * cfg.step <= cfg.n_max, count(1))
    down = takewhile(lambda k: cfg.n_init + k * cfg.step >= cfg.n_min, count(-1, -1))
    return chain([0], (k for k in chain.from_iterable(zip_longest(up, down)) if k is not None))


def fls_search(cfg: FlsConfig, evaluator: Callable[[float], float]) -> FlsResult:
    """Score the exponent grid in its visit order until a local minimum is certified.

    The order is n_init, then one step up, one step down, two steps up, two
    steps down and so on, each side ending at its bound. After scoring
    offset k the walk takes j, the grid point one step from k toward
    n_init: j is certified once j - 1, j and j + 1 are scored and j's loss
    is strictly below both neighbours'. At the first certificate the walk
    scores at most one more candidate, the next in the order if it lies on
    the other side of n_init from k, and stops; without one it ends at both
    bounds. The choice is the earliest-scored of the least finite losses.

    ``evaluator`` must be a pure function of the candidate exponent; calls
    never overlap and the visit order is part of the contract (it feeds the
    tie-break). The failures a pipeline raises on purpose, a ``ValueError``
    (such as a finiteness check) or a :class:`FitError`, propagate as
    :class:`EvaluatorError` with the offending exponent attached; any other
    exception propagates unchanged. A search in which no candidate scores a
    finite loss has nothing to choose and raises :class:`EvaluatorError`.
    """
    # Candidates are tracked as integer offsets k with N = n_init + k*step,
    # so grid points compare exactly and no point is evaluated twice.
    order = _visit_order(cfg)
    losses: dict[int, float] = {}
    history: dict[float, float] = {}

    def score(k: int) -> None:
        n = cfg.n_init + k * cfg.step
        try:
            loss = float(evaluator(n))
        except (ValueError, FitError) as exc:
            raise EvaluatorError(f"evaluator failed at n_exp={n!r}: {exc}") from exc
        losses[k] = history[n] = loss

    for k in order:
        score(k)
        j = k - int(np.sign(k))  # at k = 0, j = 0 certifies nothing: no neighbour is scored yet
        # an unscored neighbour reads NaN, and no comparison with NaN holds
        if losses[j] < losses.get(j - 1, np.nan) and losses[j] < losses.get(j + 1, np.nan):
            following = next(order, 0)  # an exhausted order gives 0, on neither side
            if following * k < 0:
                score(following)
            break

    finite = [n for n, loss in history.items() if loss < np.inf]  # NaN is not below inf
    if not finite:
        raise EvaluatorError(
            f"no candidate scored a finite loss: {len(history)} scored, "
            f"n_exp in [{min(history)!r}, {max(history)!r}]"
        )
    # min keeps the first of equal keys, so the earliest-scored candidate wins a tie
    return FlsResult(chosen_n=min(finite, key=history.get), history=history)


def search_n_for_pipeline(n_records: int, cfg: FlsConfig, pipeline) -> FlsResult:
    """Select the exponent with the hold-out protocol.

    The indices of ``n_records`` records are split once into fit and
    hold-out index arrays (:func:`holdout_split`); every candidate is
    fitted on the former (``pipeline.fit(rows, n_exp)``) and scored on the
    latter (``pipeline.holdout_loss(fitted, rows)``, the feature loss of
    the fitted pipeline on those records). No call sees every record: the
    caller fits the chosen exponent on them all.
    """
    fit_rows, holdout_rows = holdout_split(n_records, cfg)

    def evaluator(n_exp: float) -> float:
        fitted = pipeline.fit(fit_rows, n_exp)
        return pipeline.holdout_loss(fitted, holdout_rows)

    return fls_search(cfg, evaluator)
