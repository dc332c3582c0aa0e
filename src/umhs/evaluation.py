"""Scoring rankings against a planted core: precision at core size and the
precision-recall curve with its average precision.

AUPRC here is average precision, the stepwise integral of the PR curve.
The harness reports AUPRC rather than AUROC throughout because the core is
a small minority class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .baselines import Ranking
from .hypergraph import node_set


@dataclass(frozen=True)
class PrCurve:
    """(recall, precision) at every ranking prefix 1..n; positives = |C|."""

    points: tuple[tuple[float, float], ...]
    positives: int


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
