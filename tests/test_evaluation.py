"""Tests for precision at core size and average precision."""

import itertools

import pytest

from umhs import Ranking, auprc, precision_at_core_size


def ranking_from_order(order):
    n = len(order)
    scores = [0.0] * n
    for position, v in enumerate(order):
        scores[v] = float(n - position)
    r = Ranking.from_scores(scores)
    assert list(r.order) == list(order)
    return r


def stepwise_area(order, core):
    """Independent PR integration: precision summed at each recall step."""
    hits = 0
    area = 0.0
    for i, v in enumerate(order, start=1):
        if v in core:
            hits += 1
            area += hits / i / len(core)
    return area


class TestPrecisionAtCoreSize:
    def test_perfect_prefix(self):
        assert precision_at_core_size(ranking_from_order([1, 2, 0, 3]), {1, 2}) == 1.0

    def test_core_at_the_tail(self):
        assert precision_at_core_size(ranking_from_order([2, 3, 4, 0, 1]), {0, 1}) == 0.0

    def test_hand_value_half(self):
        assert precision_at_core_size(ranking_from_order([0, 2, 1, 3]), {0, 1}) == 0.5

    def test_empty_core_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            precision_at_core_size(ranking_from_order([0, 1]), set())

    def test_core_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            precision_at_core_size(ranking_from_order([0, 1]), {5})


class TestAuprc:
    def test_perfect_ranking(self):
        ap, _ = auprc(ranking_from_order([0, 1, 2, 3]), {0, 1})
        assert ap == 1.0

    def test_hand_value_five_sixths(self):
        ap, _ = auprc(ranking_from_order([0, 2, 1, 3]), {0, 1})
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_full_core_is_always_perfect(self):
        for order in itertools.permutations(range(4)):
            ap, _ = auprc(ranking_from_order(order), {0, 1, 2, 3})
            assert ap == 1.0

    def test_curve_recall_monotone_ending_at_one(self):
        ranking = ranking_from_order([3, 0, 2, 1, 4])
        _, curve = auprc(ranking, {1, 4})
        recalls = [rec for rec, _ in curve.points]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0
        assert curve.positives == 2
        assert len(curve.points) == 5

    def test_precision_at_core_matches_curve_prefix(self):
        ranking = ranking_from_order([2, 0, 3, 1])
        core = {0, 1}
        _, curve = auprc(ranking, core)
        assert curve.points[len(core) - 1][1] == precision_at_core_size(ranking, core)

    def test_agrees_with_stepwise_integration(self):
        for order in itertools.permutations(range(5)):
            for size in range(1, 6):
                for core in itertools.combinations(range(5), size):
                    ap, _ = auprc(ranking_from_order(order), set(core))
                    assert ap == pytest.approx(stepwise_area(order, set(core)), abs=1e-12)

    def test_empty_core_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            auprc(ranking_from_order([0, 1]), set())

