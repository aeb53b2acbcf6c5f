"""Feature-loss driven local search for the threshold exponent.

The search walks a one-dimensional grid n_init + k * step inside
[n_min, n_max] with a FIFO queue. It seeds the queue with the initial
point and its two neighbors, then expands rightward from points above the
start and leftward from points below it, one step per dequeue. After each
evaluation it checks whether the just-completed neighborhood certifies a
local minimum (a point strictly below both grid neighbors); once one is
certified, expansion stops but candidates already queued still get
evaluated. The reported exponent is the argmin over everything evaluated,
with ties broken toward the earliest-explored candidate so runs are
reproducible. The search is local by design: a deeper valley beyond an
intervening rise is never visited.

The default evaluation criterion is the feature loss, the mean squared
entry-wise distance between full-precision and quantized pre-head
features. Any other criterion (for example perplexity on a calibration
set) plugs in through the same ``evaluator`` callable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluatorError, FitError
from .numerics import as_tensor
from .transform import N_EXP_RANGE

__all__ = [
    "TERMINATED_LOCAL_MINIMUM",
    "TERMINATED_BOUNDS",
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

TERMINATED_LOCAL_MINIMUM = "local_minimum"
TERMINATED_BOUNDS = "bounds_exhausted"

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
    evaluations: int
    terminated_by: str


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


def holdout_split(records: Sequence, cfg: FlsConfig) -> tuple[list, list]:
    """Split a record list into disjoint (fit_set, holdout_set) lists.

    A seeded permutation picks the hold-out quarter, floor(n *
    HOLDOUT_FRACTION) records and at least 1, so the 512-record default
    splits 384/128. Each side keeps the records in their input order.
    """
    n_records = len(records)
    if n_records < 2:
        raise ValueError(f"need at least 2 records to split, got {n_records}")
    n_hold = holdout_count(n_records)
    perm = np.random.default_rng(cfg.seed).permutation(n_records)
    hold = np.sort(perm[:n_hold])
    fit = np.sort(perm[n_hold:])
    return [records[i] for i in fit], [records[i] for i in hold]


def fls_search(cfg: FlsConfig, evaluator: Callable[[float], float]) -> FlsResult:
    """Run the queue-driven neighborhood search over the exponent grid.

    ``evaluator`` must be a pure function of the candidate exponent; calls
    never overlap and queue order is part of the contract (it feeds the
    tie-break). The failures a pipeline raises on purpose, a ``ValueError``
    (such as a finiteness check) or a :class:`FitError`, propagate as
    :class:`EvaluatorError` with the offending exponent attached; any other
    exception propagates unchanged. A search in which no candidate scores a
    finite loss has nothing to choose and raises :class:`EvaluatorError`.
    """
    # Candidates are tracked as integer offsets k with N = n_init + k*step,
    # so grid points compare exactly and no point is evaluated twice.
    def n_of(k: int) -> float:
        return cfg.n_init + k * cfg.step

    losses: dict[int, float] = {}
    history: dict[float, float] = {}
    queue: deque[int] = deque()
    found_local_min = False

    queue.append(0)
    if n_of(1) <= cfg.n_max:
        queue.append(1)
    if n_of(-1) >= cfg.n_min:
        queue.append(-1)

    def is_local_min(k: int) -> bool:
        return (
            k in losses
            and k - 1 in losses
            and k + 1 in losses
            and losses[k] < losses[k - 1]
            and losses[k] < losses[k + 1]
        )

    while queue:
        k = queue.popleft()
        n = n_of(k)
        try:
            loss = float(evaluator(n))
        except (ValueError, FitError) as exc:
            raise EvaluatorError(f"evaluator failed at n_exp={n!r}: {exc}") from exc
        losses[k] = loss
        history[n] = loss

        if k > 1 and is_local_min(k - 1):
            found_local_min = True
        if k < 0 and is_local_min(k + 1):
            found_local_min = True

        if not found_local_min:
            if k > 0 and n_of(k + 1) <= cfg.n_max:
                queue.append(k + 1)
            elif k < 0 and n_of(k - 1) >= cfg.n_min:
                queue.append(k - 1)

    chosen = None
    best = np.inf
    for n, loss in history.items():  # insertion order breaks ties
        if loss < best:
            best = loss
            chosen = n
    if chosen is None:
        raise EvaluatorError(
            f"no candidate scored a finite loss: {len(history)} scored, "
            f"n_exp in [{min(history)!r}, {max(history)!r}]"
        )
    return FlsResult(
        chosen_n=chosen,
        history=history,
        evaluations=len(history),
        terminated_by=TERMINATED_LOCAL_MINIMUM if found_local_min else TERMINATED_BOUNDS,
    )


def search_n_for_pipeline(records: Sequence, cfg: FlsConfig, pipeline) -> FlsResult:
    """Select the exponent with the hold-out protocol.

    The record list is split once into fit and hold-out sets; every
    candidate is fitted on the former (``pipeline.fit(records, n_exp)``)
    and scored on the latter (``pipeline.holdout_loss(fitted, records)``,
    the feature loss of the fitted pipeline on those records). No call sees
    the whole record list: the caller fits the chosen exponent on it.
    """
    fit_set, holdout_set = holdout_split(records, cfg)

    def evaluator(n_exp: float) -> float:
        fitted = pipeline.fit(fit_set, n_exp)
        return pipeline.holdout_loss(fitted, holdout_set)

    return fls_search(cfg, evaluator)
