import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfieboost import boost
from selfieboost.boost import IterationRecord, cache_from_scores, edge
from selfieboost.errors import DomainError, ValidationError
from selfieboost.sampling import SplitMix64
from selfieboost.verify import (
    bound_suite,
    grad_suite,
    iteration_count_for,
    lemma_suite,
    lse_inequality_deficit,
    lse_suite,
    oracle_step,
)


def record(t, edge_v, before, after, mistakes, m=100):
    return IterationRecord(
        t=t, edge=edge_v, potential_before=before, potential_after=after,
        train_err=mistakes / m, mistakes=mistakes, retries_used=0,
        sgd_steps_used=500, widened_to=16, wall_ms=0.0,
    )


class TestLseDeficit:
    def test_equal_vectors_give_exact_zero(self):
        theta = np.array([0.3, -1.2, 5.0])
        assert lse_inequality_deficit(theta, theta) == 0.0

    def test_unit_downward_shift(self):
        # both sides shift by -1, quadratic term adds exactly 1/2
        deficit = lse_inequality_deficit(np.zeros(2), -np.ones(2))
        assert deficit == pytest.approx(0.5, abs=1e-12)

    def test_precondition_violation_is_domain_error(self):
        with pytest.raises(DomainError):
            lse_inequality_deficit(np.array([2.0, 0.0]), np.array([0.0, 0.0]))

    def test_rejects_nonfinite_and_mismatched(self):
        with pytest.raises(DomainError):
            lse_inequality_deficit(np.array([np.inf]), np.array([0.0]))
        with pytest.raises(DomainError):
            lse_inequality_deficit(np.zeros(2), np.zeros(3))

    @settings(max_examples=150)
    @given(
        pair=st.integers(1, 64).flatmap(lambda n: st.tuples(
            st.lists(st.floats(-30, 30), min_size=n, max_size=n),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        )),
    )
    # theta - u rounds, so theta - lam reads 1.0000000000000018: outside the domain
    @example(pair=([0.0] * 5 + [-15.470968232328259], [0.0] * 5 + [1.0]))
    def test_nonnegative_on_downward_moves(self, pair):
        theta, u = map(np.asarray, pair)
        lam = theta - u
        if np.max(theta - lam) > 1.0:
            with pytest.raises(DomainError):
                lse_inequality_deficit(theta, lam)
        else:
            assert lse_inequality_deficit(theta, lam) >= -1e-9

    def test_documented_counterexample_outside_guarantee(self):
        """Upward moves on low-weight slots satisfy the precondition yet
        break the bound; this pins the known domain gap."""
        deficit = lse_inequality_deficit(np.array([10.0, 0.0]), np.array([10.0, 3.0]))
        assert deficit < -1e-4

    def test_suite_checks_the_deciding_edge(self, monkeypatch):
        """A shift in ``boost.edge`` itself must fail the lse suite: the
        suite checks the code that decides acceptance, not a copy of it."""
        real_edge = boost.edge

        def shifted_edge(*args, **kwargs):
            report = real_edge(*args, **kwargs)
            return dataclasses.replace(report, edge=report.edge - 0.01)

        assert lse_suite(pairs=200).passed
        monkeypatch.setattr(boost, "edge", shifted_edge)
        assert not lse_suite(pairs=200).passed


class TestOracleStep:
    def test_edge_is_minus_half_for_any_distribution(self):
        rng = SplitMix64(23)
        for _ in range(100):
            m = 3 + int(rng.uniform() * 60)
            raw = rng.normal_block(m) * (10.0 ** (rng.uniform() * 2 - 1))
            labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
            cache = cache_from_scores(raw, labels)
            step = oracle_step(cache)
            report = edge(cache, step, rho=0.1)
            assert report.edge == pytest.approx(-0.5, abs=1e-12)
            assert report.max_margin_diff == pytest.approx(1.0, abs=1e-12)

    def test_boundary_exact_on_dyadic_scores(self):
        raw = np.array([0.5, -2.0, 1.25])
        labels = np.array([1.0, -1.0, -1.0])
        cache = cache_from_scores(raw, labels)
        report = edge(cache, oracle_step(cache), rho=0.2)
        assert report.max_margin_diff == 1.0
        assert report.accepted


class TestTheoremBoundCheck:
    """``bound_suite``: a recorded run against the convergence theorem's bound."""

    def test_empty_records_pass(self):
        rep = bound_suite([], m=100, rho=0.1)
        assert rep.passed and rep.instances == 0 and rep.worst_deficit == 0.0

    def test_consistent_records_pass(self):
        recs = [
            record(1, -0.15, math.log(100), math.log(100) - 0.15, 20),
            record(2, -0.12, math.log(100) - 0.15, math.log(100) - 0.27, 5),
        ]
        assert bound_suite(recs, 100, 0.1).passed

    def test_tampered_potential_fails(self):
        recs = [record(1, -0.05, 4.6, 4.55, 20)]  # dropped by only 0.05 < rho
        assert not bound_suite(recs, 100, 0.1).passed

    def test_excess_mistakes_fail(self):
        recs = [record(1, -0.15, math.log(100), math.log(100) - 0.2, 99)]
        assert not bound_suite(recs, 100, 0.1).passed

    def test_malformed_records_raise(self):
        with pytest.raises(ValidationError):
            bound_suite([record(1, -0.2, math.nan, 1.0, 3)], 100, 0.1)
        with pytest.raises(ValidationError):
            bound_suite([record(1, -0.2, 4.0, 3.8, -2)], 100, 0.1)

    def test_gap_between_records_fails(self):
        # each record drops by rho, but the second starts above where the first ended
        recs = [record(1, -0.5, math.log(100), 4.0, 10), record(2, -0.5, 9.0, 4.2, 1)]
        assert bound_suite(recs[:1], 100, 0.1).passed
        assert not bound_suite(recs, 100, 0.1).passed

    def test_nan_edge_fails(self):
        start = math.log(100)
        assert bound_suite([record(1, -0.15, start, start - 0.15, 20)], 100, 0.1).passed
        assert not bound_suite([record(1, math.nan, start, start - 0.15, 20)], 100, 0.1).passed

    def test_jump_in_t_fails(self):
        recs = [record(1, -0.5, math.log(100), 4.0, 10), record(3, -0.5, 4.0, 3.5, 1)]
        assert bound_suite([recs[0], record(2, -0.5, 4.0, 3.5, 1)], 100, 0.1).passed
        assert not bound_suite(recs, 100, 0.1).passed
        assert not bound_suite([record(2, -0.5, 4.0, 3.5, 1)], 100, 0.1).passed


class TestIterationCount:
    def test_unit_log_ratio(self):
        assert iteration_count_for(math.exp(-1.0), 0.1) == 10

    def test_one_percent_error(self):
        assert iteration_count_for(0.01, 0.1) == 47

    def test_half_error_quarter_edge(self):
        assert iteration_count_for(0.5, 0.25) == 3

    def test_domain(self):
        with pytest.raises(DomainError):
            iteration_count_for(0.0, 0.1)
        with pytest.raises(DomainError):
            iteration_count_for(1.0, 0.1)
        for rho in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                iteration_count_for(0.1, rho)


class TestPotentialChainOnRealPairs:
    """The inequality the proof chains: potential change vs the edge value,
    instantiated on margin-improving candidates (shift in [0, 1])."""

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32))
    def test_potential_change_bounded_by_edge(self, seed):
        rng = SplitMix64(seed)
        m = 5 + int(rng.uniform() * 80)
        raw = rng.normal_block(m) * 3.0
        labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
        cache = cache_from_scores(raw, labels)
        shift = rng.uniform_block(m)  # margin improvements in [0, 1]
        cand = raw + labels * shift
        report = edge(cache, cand, rho=0.1)
        new_potential = math.log(math.fsum(math.exp(-v) for v in labels * cand))
        assert new_potential - cache.potential <= report.edge + 1e-9


class TestSuites:
    def test_lse_suite_passes(self):
        rep = lse_suite(pairs=1500, seed=0)
        assert rep.passed and rep.worst_deficit >= -1e-9

    def test_lemma_suite_passes(self):
        rep = lemma_suite(trials=40, seed=0)
        assert rep.passed and rep.worst_deficit <= 1e-12

    def test_grad_suite_passes(self):
        rep = grad_suite(trials_per_activation=4, seed=0)
        assert rep.passed and rep.worst_deficit <= 1e-6

    def test_bound_suite_flags_bad_chain(self):
        bad = [record(1, -0.2, 4.6, 4.5, 10)]  # potential fell less than |edge|
        rep = bound_suite(bad, 100, 0.1)
        assert not rep.passed
