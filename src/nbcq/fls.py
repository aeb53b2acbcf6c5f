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
from typing import Any, Callable, Sequence

import numpy as np

from .errors import EvaluatorError
from .numerics import as_tensor

__all__ = [
    "TERMINATED_LOCAL_MINIMUM",
    "TERMINATED_BOUNDS",
    "FlsConfig",
    "FlsResult",
    "compute_feature_loss",
    "holdout_count",
    "holdout_indices",
    "holdout_split",
    "fls_search",
    "search_n_for_pipeline",
]

TERMINATED_LOCAL_MINIMUM = "local_minimum"
TERMINATED_BOUNDS = "bounds_exhausted"


@dataclass(frozen=True)
class FlsConfig:
    """Search grid, hold-out fraction and seed for the exponent search."""

    n_init: float = 2.0
    n_min: float = -10.0
    n_max: float = 10.0
    step: float = 1.0
    holdout_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not self.n_min <= self.n_init <= self.n_max:
            raise ValueError(
                f"n_init {self.n_init} outside [{self.n_min}, {self.n_max}]"
            )
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")


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


def holdout_count(n_records: int, holdout_fraction: float) -> int:
    """Records :func:`holdout_indices` holds out: floor(n * fraction), at least 1."""
    return max(1, int(np.floor(n_records * holdout_fraction)))


def holdout_indices(n_records: int, cfg: FlsConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded disjoint (fit, holdout) index partition of range(n_records).

    The hold-out count is floor(n * fraction), at least 1, so the 512-record
    default splits 384/128. Indices come back sorted within each side.
    """
    if n_records < 2:
        raise ValueError(f"need at least 2 records to split, got {n_records}")
    n_hold = holdout_count(n_records, cfg.holdout_fraction)
    perm = np.random.default_rng(cfg.seed).permutation(n_records)
    hold = np.sort(perm[:n_hold])
    fit = np.sort(perm[n_hold:])
    return fit, hold


def holdout_split(records: Sequence, cfg: FlsConfig) -> tuple[list, list]:
    """Split a record list into disjoint (fit_set, holdout_set) lists."""
    fit_idx, hold_idx = holdout_indices(len(records), cfg)
    return [records[i] for i in fit_idx], [records[i] for i in hold_idx]


def fls_search(cfg: FlsConfig, evaluator: Callable[[float], float]) -> FlsResult:
    """Run the queue-driven neighborhood search over the exponent grid.

    ``evaluator`` must be a pure function of the candidate exponent; calls
    never overlap and queue order is part of the contract (it feeds the
    tie-break). Evaluator failures propagate as :class:`EvaluatorError`
    with the offending exponent attached.
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
        except Exception as exc:
            raise EvaluatorError(f"evaluator failed at n_exp={n!r}: {exc}", n_exp=n) from exc
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
    return FlsResult(
        chosen_n=chosen,
        history=history,
        evaluations=len(history),
        terminated_by=TERMINATED_LOCAL_MINIMUM if found_local_min else TERMINATED_BOUNDS,
    )


def search_n_for_pipeline(records: Sequence, cfg: FlsConfig, pipeline) -> tuple[Any, FlsResult]:
    """Select the exponent with the hold-out protocol, then refit in full.

    The record list is split once into fit and hold-out sets; every
    candidate is fitted on the former (``pipeline.fit(records, n_exp)``)
    and scored on the latter (``pipeline.holdout_loss(fitted, records)``,
    the feature loss of the fitted pipeline on those records). After the
    search picks an exponent, the pipeline is refitted on the complete
    record set at that exponent. Returns ``(final_fit, result)``.
    """
    fit_set, holdout_set = holdout_split(records, cfg)

    def evaluator(n_exp: float) -> float:
        fitted = pipeline.fit(fit_set, n_exp)
        return pipeline.holdout_loss(fitted, holdout_set)

    result = fls_search(cfg, evaluator)
    return pipeline.fit(list(records), result.chosen_n), result
