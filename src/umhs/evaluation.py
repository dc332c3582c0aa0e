"""Scoring rankings against a planted core: precision at core size, the
precision-recall curve with its average precision, and UMHS iteration sweeps.

AUPRC here is average precision, the stepwise integral of the PR curve.
The harness reports AUPRC rather than AUROC throughout because the core is
a small minority class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .baselines import Ranking
from .hypergraph import Hypergraph, node_set
from .recovery import RoundSizes, UmhsConfig, umhs


@dataclass(frozen=True)
class PrCurve:
    """(recall, precision) at every ranking prefix 1..n; positives = |C|."""

    points: tuple[tuple[float, float], ...]
    positives: int


@dataclass(frozen=True)
class SweepRecord:
    iteration: int
    union_size: int
    recovered_fraction: float


@dataclass(frozen=True)
class SweepResult:
    """Per-iteration records of one UMHS run, and the run's saturation round
    and per-round sizes (see :class:`~umhs.recovery.UmhsResult`)."""

    records: tuple[SweepRecord, ...]
    saturation_round: int
    rounds: RoundSizes


def _core_set(n: int, core: Iterable[int]) -> frozenset[int]:
    s = node_set(n, core)
    if not s:
        raise ValueError("core must be nonempty")
    return s


def precision_at_core_size(ranking: Ranking, core: Iterable[int]) -> float:
    """Fraction of the top-|C| ranked nodes that belong to C."""
    s = _core_set(len(ranking.scores), core)
    prefix = ranking.order[: len(s)]
    return sum(1 for v in prefix if v in s) / len(s)


def auprc(ranking: Ranking, core: Iterable[int]) -> tuple[float, PrCurve]:
    """Average precision of the ranking against C, with its PR curve.

    AP = (1/|C|) * sum over positions i holding a core node of the
    precision at i; this equals the stepwise area under the curve, since
    recall rises by exactly 1/|C| at those positions.
    """
    s = _core_set(len(ranking.scores), core)
    hits = 0
    total = 0.0
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ranking.order, start=1):
        if v in s:
            hits += 1
            total += hits / i
        points.append((hits / len(s), hits / i))
    return total / len(s), PrCurve(points=tuple(points), positives=len(s))


def sweep(G: Hypergraph, core: Iterable[int], n_max: int, seed: int) -> SweepResult:
    """Per-iteration union size and recovered core fraction of one UMHS run."""
    s = _core_set(G.n, core)
    cfg = UmhsConfig(iterations=n_max, seed=seed, record_trajectory=True)
    result = umhs(G, cfg, core=s)
    assert result.trajectory is not None
    records = tuple(
        SweepRecord(
            iteration=i,
            union_size=size,
            recovered_fraction=(overlap or 0) / len(s),
        )
        for i, (size, overlap) in enumerate(result.trajectory, start=1)
    )
    return SweepResult(
        records=records,
        saturation_round=result.saturation_round,
        rounds=result.rounds,
    )
