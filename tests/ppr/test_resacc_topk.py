"""Tests for ResAcc, FORA-TopK, and TopPPR."""

import pytest

from repro.graph.updates import EdgeUpdate
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.resacc import ResAcc
from repro.ppr.topk import ForaTopK, TopPPR


class TestResAcc:
    def test_query_accuracy(self, small_ba_graph, params):
        alg = ResAcc(small_ba_graph, params)
        alg.seed(0)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        estimate = alg.query(0)
        errors = [abs(estimate[v] - exact[v]) for v in range(120)]
        assert max(errors) < 0.02

    def test_multiple_rounds_accumulate(self, small_ba_graph, params):
        one_round = ResAcc(small_ba_graph, params, rounds=1)
        one_round.seed(1)
        three_rounds = ResAcc(small_ba_graph.copy(), params, rounds=3)
        three_rounds.seed(1)
        # force the same starting threshold for an apples comparison
        r0 = one_round.r_max
        three_rounds.set_hyperparameters(r_max=r0)
        one_round.query(0)
        three_rounds.query(0)
        assert three_rounds.last_query_stats.pushes >= one_round.last_query_stats.pushes
        assert three_rounds.last_query_stats.walks <= one_round.last_query_stats.walks

    def test_invalid_rounds(self, small_ba_graph, params):
        with pytest.raises(ValueError):
            ResAcc(small_ba_graph, params, rounds=0)

    def test_update_is_graph_only(self, small_ba_graph, params):
        alg = ResAcc(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 20))
        assert alg.timers.count("Graph Update") == 1


class TestForaTopK:
    def test_topk_matches_exact_ranking(self, small_ba_graph, params):
        alg = ForaTopK(small_ba_graph, params, k=5)
        alg.seed(0)
        got = [node for node, _ in alg.query_topk(0)]
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        truth = [node for node, _ in exact.top_k(5)]
        # precision@5 of at least 4/5 (Monte-Carlo ranking noise)
        assert len(set(got) & set(truth)) >= 4

    def test_scores_descending(self, small_ba_graph, params):
        alg = ForaTopK(small_ba_graph, params, k=8)
        alg.seed(1)
        scores = [score for _, score in alg.query_topk(0)]
        assert scores == sorted(scores, reverse=True)

    def test_refinement_tightens_r_max(self, small_ba_graph, params):
        alg = ForaTopK(small_ba_graph, params, k=5, max_rounds=4)
        alg.seed(2)
        alg.query(0)
        assert alg.last_query_stats.extra["final_r_max"] <= alg.r_max

    def test_invalid_k(self, small_ba_graph, params):
        with pytest.raises(ValueError):
            ForaTopK(small_ba_graph, params, k=0)

    def test_update_is_graph_only(self, small_ba_graph, params):
        alg = ForaTopK(small_ba_graph, params)
        alg.apply_update(EdgeUpdate(0, 20))
        assert alg.timers.count("Graph Update") == 1


class TestTopPPR:
    def test_topk_matches_exact_ranking(self, small_ba_graph, params):
        alg = TopPPR(small_ba_graph, params, k=5)
        alg.seed(0)
        got = [node for node, _ in alg.query_topk(0)]
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        truth = [node for node, _ in exact.top_k(5)]
        assert len(set(got) & set(truth)) >= 4

    def test_reverse_push_phase_runs(self, small_ba_graph, params):
        alg = TopPPR(small_ba_graph, params, k=5)
        alg.seed(1)
        alg.query(0)
        assert alg.timers.count("Reverse Push") == 1
        assert alg.last_query_stats.extra["candidates"] == 10  # 2.0 * k

    def test_candidate_factor_bounds(self, small_ba_graph, params):
        with pytest.raises(ValueError):
            TopPPR(small_ba_graph, params, candidate_factor=0.5)
        with pytest.raises(ValueError):
            TopPPR(small_ba_graph, params, k=0)

    def test_two_hyperparameters(self, small_ba_graph, params):
        alg = TopPPR(small_ba_graph, params)
        assert alg.hyperparameter_names == ("r_max", "r_max_b")

    def test_refined_scores_close_to_exact(self, small_ba_graph, params):
        alg = TopPPR(small_ba_graph, params, k=5)
        alg.seed(3)
        exact = ppr_exact(small_ba_graph, 0, alpha=params.alpha)
        for node, score in alg.query_topk(0):
            assert score == pytest.approx(exact[node], abs=0.02)
