import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfieboost import boost
from selfieboost.baselines import _hinge_steps
from selfieboost.boost import (
    Attempt,
    BoostConfig,
    RetryPolicy,
    SgdParams,
    STOP_COMPLETED,
    STOP_NO_CANDIDATE,
    STOP_ZERO_ERROR,
    _next_attempt,
    _sgd_loop,
    cache_from_scores,
    edge,
    err,
    margins,
    run_selfieboost,
    sgd_inner,
    surrogate_output_grad,
)
from selfieboost.data import Dataset, gen_realizable
from selfieboost.errors import ConfigError, EmptyDatasetError, NumericError, ShapeError
from selfieboost.nnet import NetworkArchitecture, forward, forward_batch, init_network
from selfieboost.sampling import SplitMix64, uniform_picks

import sgd_oracle


@pytest.fixture(scope="module")
def small_data():
    dataset, teacher = gen_realizable(300, 5, NetworkArchitecture(5, (3,)), 0.1, 7)
    return dataset, teacher


@pytest.fixture(scope="module")
def small_config():
    return BoostConfig(
        rho=0.1, T=15, n=128, sgd=SgdParams(300, 0.05, 16),
        seed=3, init_scale=0.0, hidden=(16,),
    )


@pytest.fixture(scope="module")
def small_run(small_data, small_config):
    return run_selfieboost(small_data[0], small_config)


def record_attempts(monkeypatch):
    """Log each ``sgd_inner`` call of a run, in order: its working set,
    candidate, steps, lr and width, and the edge report that follows it
    (``None`` after a ``NumericError``)."""
    inner, edge_fn, attempts = boost.sgd_inner, boost.edge, []

    def recording_inner(data, working_set, snapshot, candidate, params, rng):
        attempts.append({
            "working_set": working_set, "candidate": candidate, "steps": params.steps,
            "lr": params.lr, "width": candidate.architecture.hidden_layers[-1], "report": None,
        })
        return inner(data, working_set, snapshot, candidate, params, rng)

    def recording_edge(*args):
        attempts[-1]["report"] = edge_fn(*args)
        return attempts[-1]["report"]

    monkeypatch.setattr(boost, "sgd_inner", recording_inner)
    monkeypatch.setattr(boost, "edge", recording_edge)
    return attempts


def is_shallow(attempt):
    report = attempt["report"]
    return report is not None and not report.accepted and report.violation_count == 0


def brute_force_edge(margins_vec, raw, labels, cand):
    """Independent loop: own softmax weights, own functional accumulation."""
    m = len(raw)
    w = [math.exp(-mv) for mv in margins_vec]
    z = sum(w)
    total = 0.0
    max_diff = -math.inf
    for i in range(m):
        d = labels[i] * (cand[i] - raw[i])
        total += (w[i] / z) * (-d + 0.5 * d * d)
        max_diff = max(max_diff, d)
    return total, max_diff


def reference_sgd(net, feats, steps, lr, batch, rng, loss):
    """The SGD run that ``_sgd_loop`` must match bit for bit, done the plain
    way: per step one draw of ``batch`` picks, one gather, and the plain
    numpy forward pass and step of ``sgd_oracle``, with ``loss(pick, scores)``.
    Returns the step whose scores were non-finite, where the run stops, or
    None; non-finite parameters at the end raise ``NumericError``."""
    with np.errstate(all="ignore"):
        for k in range(steps):
            pick = uniform_picks(rng, batch, len(feats))
            acts = sgd_oracle.forward_cached(net, feats[pick])
            scores = acts[-1][:, 0]
            if not np.isfinite(scores).all():
                return k
            sgd_oracle.step(net, acts, loss(pick, scores), lr)
    if not all(np.isfinite(p).all() for p in net.weights + net.biases):
        raise NumericError("parameters became non-finite during SGD")
    return None


def surrogate_reference(data, working_set, snapshot, batch):
    """``sgd_inner``'s rows and loss for :func:`reference_sgd`, the loss
    written ``-y + (g - f)``, so that the loop's ``(g - f) - y`` is checked
    to give the same bits."""
    labels, snap = data.labels[working_set], snapshot[working_set]
    scale = batch * len(working_set)
    return data.features[working_set], lambda pick, g: (-labels[pick] + (g - snap[pick])) / scale


def hinge_reference(data, batch):
    """``_hinge_steps``'s rows and loss for :func:`reference_sgd`, dividing
    by ``batch`` after the ``where`` rather than before it."""
    return data.features, lambda pick, g: np.where(data.labels[pick] * g < 1.0, -data.labels[pick], 0.0) / batch


class TestMarginCache:
    def test_zero_net_uniform_weights(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (16,)), 1, 0.0)
        cache = margins(net, dataset)
        assert np.all(cache.labels * cache.raw_scores == 0.0)
        np.testing.assert_allclose(cache.probs, 1.0 / dataset.m, atol=1e-15)
        assert cache.potential == pytest.approx(math.log(dataset.m), abs=1e-12)

    def test_single_example_potential(self):
        cache = cache_from_scores(np.array([2.0]), np.array([1.0]))
        assert (cache.labels * cache.raw_scores)[0] == 2.0
        assert cache.potential == -2.0

    def test_margins_match_scalar_forward_bitwise(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (7,)), 4, 1.0)
        cache = margins(net, dataset)
        looped = np.array(
            [dataset.labels[i] * forward(net, dataset.features[i]) for i in range(dataset.m)]
        )
        np.testing.assert_array_equal(cache.labels * cache.raw_scores, looped)


class TestPotential:
    def test_zero_function_is_log_m(self):
        cache = cache_from_scores(np.zeros(8), np.ones(8))
        assert cache.potential == pytest.approx(math.log(8), abs=1e-12)

    def test_large_margins_stay_finite(self):
        cache = cache_from_scores(np.array([1000.0, 1000.0]), np.ones(2))
        assert cache.potential == pytest.approx(-1000.0 + math.log(2.0), abs=1e-9)

    def test_upper_bounds_log_mistakes(self):
        rng = SplitMix64(31)
        for _ in range(25):
            raw = rng.normal_block(80) * 3.0
            labels = np.where(rng.uniform_block(80) < 0.5, -1.0, 1.0)
            cache = cache_from_scores(raw, labels)
            wrong = sum(1 for mv in labels * raw if mv <= 0.0)  # brute-force recount
            if wrong >= 1:
                assert math.log(wrong) <= cache.potential + 1e-12


class TestMistakes:
    def test_zero_net_counts_everything(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, ()), 0, 0.0)
        assert margins(net, dataset).mistakes == dataset.m
        assert err(net, dataset) == 1.0

    def test_teacher_is_perfect_on_its_data(self, small_data):
        dataset, teacher = small_data
        assert margins(teacher, dataset).mistakes == 0
        assert err(teacher, dataset) == 0.0

    def test_matches_brute_force(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (6,)), 77, 1.0)
        count = 0
        for i in range(dataset.m):
            if dataset.labels[i] * forward(net, dataset.features[i]) <= 0.0:
                count += 1
        assert margins(net, dataset).mistakes == count
        assert err(net, dataset) * dataset.m == count


class TestSurrogate:
    def test_output_gradient_sign(self):
        # at g = f with y = +1 the derivative is -1: a step raises the score
        assert surrogate_output_grad(np.array([1.0]), np.array([0.0]), np.array([0.0]))[0] == -1.0
        assert surrogate_output_grad(np.array([-1.0]), np.array([0.0]), np.array([0.0]))[0] == 1.0


class TestSgdInner:
    def test_zero_steps_returns_candidate_unchanged(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (4,)), 2, 1.0)
        snapshot = forward_batch(net, dataset.features)
        candidate = net.copy()
        sgd_inner(dataset, np.arange(10), snapshot, candidate, SgdParams(0, 0.1, 4), SplitMix64(0))
        for a, b in zip(candidate.weights, net.weights):
            np.testing.assert_array_equal(a, b)

    def test_single_example_moves_toward_label(self):
        dataset = Dataset(np.array([[1.0, 0.5]]), np.array([1.0]))
        net = init_network(NetworkArchitecture(2, (4,)), 5, 1.0)
        snapshot = forward_batch(net, dataset.features)
        candidate = net.copy()
        sgd_inner(dataset, np.array([0]), snapshot, candidate, SgdParams(10, 0.001, 1), SplitMix64(1))
        moved = forward(candidate, dataset.features[0]) - snapshot[0]
        assert moved > 0.0  # label +1 pulls the score up

    def test_continued_candidate_equals_one_longer_run_bit_for_bit(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (16,)), 4, 0.5)
        snapshot = forward_batch(net, dataset.features)
        working_set = np.arange(0, dataset.m, 2)
        rng = SplitMix64(11)
        fresh = copy.copy(rng)
        continued, longer = net.copy(), net.copy()
        sgd_inner(dataset, working_set, snapshot, continued, SgdParams(500, 0.05, 16), rng)
        halfway = continued.copy()
        sgd_inner(dataset, working_set, snapshot, continued, SgdParams(500, 0.05, 16), rng)
        sgd_inner(dataset, working_set, snapshot, longer, SgdParams(1000, 0.05, 16), fresh)
        assert not np.array_equal(halfway.weights[0], continued.weights[0])
        for a, b in zip(continued.weights + continued.biases, longer.weights + longer.biases):
            assert a.tobytes() == b.tobytes()
        assert rng.next_u64() == fresh.next_u64()

    def test_empty_working_set_raises_before_any_pick(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (4,)), 2, 1.0)
        snapshot = forward_batch(net, dataset.features)
        with pytest.raises(EmptyDatasetError, match="working set is empty"):
            sgd_inner(dataset, np.arange(0), snapshot, net.copy(), SgdParams(10, 0.1, 4), SplitMix64(0))

    def test_non_finite_bias_raises(self):
        # the output bias overflows to inf while every weight and score stays finite
        net = init_network(NetworkArchitecture(1, (2,)), 0, 1.0)
        feats = np.array([[1e-200], [-1e-200]])
        start = net.copy()
        with pytest.raises(NumericError, match="parameters"):
            _sgd_loop(net, feats, 2, 1.7e308, 1, SplitMix64(1), lambda scores: -np.ones(len(scores)))
        for p, q in zip(net.weights + net.biases, start.weights + start.biases):
            assert p.tobytes() == q.tobytes() and np.isfinite(p).all()


WIDTHS = st.one_of(st.sampled_from([1, 8, 9, 16, 17, 32, 40]), st.integers(1, 40))


class TestSgdLoop:
    """``_sgd_loop`` against :func:`reference_sgd`: the same outcome, the same
    stream position afterwards, and after a success the same parameters, bit
    for bit; a run that raises leaves the net with its starting bytes."""

    @staticmethod
    def run_both(net, data, working_set, snapshot, loss, steps, lr, batch, seed):
        ours, theirs = net.copy(), net.copy()
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        try:
            if loss == "surrogate":
                sgd_inner(data, working_set, snapshot, ours, SgdParams(steps, lr, batch), rng)
            else:
                _hinge_steps(ours, data, steps, lr, batch, rng)
        except NumericError as exc:
            outcome = str(exc)
        else:
            outcome = None
        if loss == "surrogate":
            feats, ref_loss = surrogate_reference(data, working_set, snapshot, batch)
        else:
            feats, ref_loss = hinge_reference(data, batch)
        failed_at = None
        try:
            failed_at = reference_sgd(theirs, feats, steps, lr, batch, ref_rng, ref_loss)
        except NumericError as exc:
            ref_outcome = str(exc)
        else:
            ref_outcome = None if failed_at is None else "scores became non-finite during SGD"
        assert outcome == ref_outcome
        expected = net if outcome else theirs
        for a, b in zip(ours.weights + ours.biases, expected.weights + expected.biases):
            assert a.tobytes() == b.tobytes() and np.isfinite(a).all()
        assert rng.next_u64() == ref_rng.next_u64()
        return failed_at

    @settings(max_examples=150, deadline=None)
    @example(d=1, hidden=[], activation="tanh", m=1, batch=5, steps=1, lr=0.05, init_scale=0.0,
             loss="surrogate", chunk_bytes=1, seed=0)
    @given(
        d=st.integers(1, 20),
        hidden=st.lists(WIDTHS, max_size=3),
        activation=st.sampled_from(["tanh", "relu"]),
        m=st.integers(1, 24),
        batch=st.one_of(st.just(1), st.integers(1, 40)),
        steps=st.integers(0, 45),
        lr=st.sampled_from([0.05, 0.7, 1e3, 1e60, 1e150]),
        init_scale=st.sampled_from([0.0, 1.0]),
        loss=st.sampled_from(["surrogate", "hinge"]),
        chunk_bytes=st.sampled_from([1, 3000, boost._CHUNK_BYTES]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_the_reference_loop_bit_for_bit(
        self, d, hidden, activation, m, batch, steps, lr, init_scale, loss, chunk_bytes, seed
    ):
        # batch 1, batches larger than the working set, depth 0 to 3, one-unit
        # and 8-multiple widths, an exactly zero output layer (init_scale 0),
        # chunks of one step, of a few and of the default budget; the example
        # is one feature into one output unit, whose one-column input must
        # enter the backward pass as a copy
        rng = SplitMix64(seed)
        data = Dataset(rng.normal_block(m * d).reshape(m, d) * 2.0, np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0))
        net = init_network(NetworkArchitecture(d, tuple(hidden), activation), seed, init_scale)
        working_set = uniform_picks(rng, m + 3, m)
        snapshot = forward_batch(net, data.features) + rng.normal_block(m) * 0.1
        with mock.patch.object(boost, "_CHUNK_BYTES", chunk_bytes):
            self.run_both(net, data, working_set, snapshot, loss, steps, lr, batch, seed + 1)

    @pytest.mark.parametrize("loss, lr, seed, failing_step", [("surrogate", 1e5, 6, 9), ("hinge", 1e40, 4, 2)])
    def test_blow_up_inside_a_chunk(self, loss, lr, seed, failing_step):
        # chunks of 4 steps of 4 rows; the scores overflow at a step that is
        # not the first of its chunk, with unused draws in and after the chunk
        data, _ = gen_realizable(40, 5, NetworkArchitecture(5, (3,)), 0.1, 2)
        net = init_network(NetworkArchitecture(5, (9, 8), "relu"), seed, 1.0)
        snapshot = forward_batch(net, data.features)
        with mock.patch.object(boost, "_CHUNK_BYTES", 4 * 4 * 8 * (5 + 2)):
            failed_at = self.run_both(net, data, np.arange(40), snapshot, loss, 60, lr, 4, 7)
        assert failed_at == failing_step

    BLOW_UP_CHUNK_BYTES = 4 * 4 * 8 * (2 + 2)  # chunks of 4 steps of 4 two-feature rows

    @staticmethod
    def blow_up_data():
        """40 rows of 2 features; row 0, labelled +1, is ``(1e308, 1e308)``.
        On a relu net whose weights are all near 0.5 its hidden units stay
        finite and its score overflows to +inf."""
        rng = SplitMix64(3)
        feats = rng.normal_block(80).reshape(40, 2)
        feats[0] = 1e308
        labels = np.where(rng.uniform_block(40) < 0.5, -1.0, 1.0)
        labels[0] = 1.0
        net = init_network(NetworkArchitecture(2, (8,), "relu"), 1, 1.0)
        for w in net.weights:
            w[...] = 0.5 + 0.01 * w
        return Dataset(feats, labels), net

    @pytest.mark.parametrize("seed, failing_step", [(4, 5), (0, 8)])
    def test_hinge_blow_up_that_leaves_the_parameters_finite(self, seed, failing_step):
        # chunks of 4 steps of 4 rows; row 0 is first picked in the middle of
        # a chunk (step 5) or at its first step (step 8).  Its hinge gradient
        # is 0 at +inf, so without the check on the scores every parameter
        # would stay finite to the end of the run.
        data, net = self.blow_up_data()
        unchecked = net.copy()
        feats, loss = hinge_reference(data, 4)
        rng = SplitMix64(seed)
        with np.errstate(all="ignore"):
            for k in range(20):
                pick = uniform_picks(rng, 4, 40)
                acts = sgd_oracle.forward_cached(unchecked, feats[pick])
                scores = acts[-1][:, 0]
                assert np.isfinite(scores).all() == (k < failing_step or 0 not in pick)
                sgd_oracle.step(unchecked, acts, loss(pick, scores), 0.01)
        assert all(np.isfinite(p).all() for p in unchecked.weights + unchecked.biases)
        with mock.patch.object(boost, "_CHUNK_BYTES", self.BLOW_UP_CHUNK_BYTES):
            failed_at = self.run_both(net, data, None, None, "hinge", 20, 0.01, 4, seed)
        assert failed_at == failing_step

    def test_surrogate_blow_up_in_the_last_short_chunk(self):
        # 18 steps in chunks of 4: row 0 is first picked at step 17, the
        # second of the last chunk's two steps
        data, net = self.blow_up_data()
        with mock.patch.object(boost, "_CHUNK_BYTES", self.BLOW_UP_CHUNK_BYTES):
            failed_at = self.run_both(net, data, np.arange(40), np.zeros(40), "surrogate", 18, 0.01, 4, 124)
        assert failed_at == 17


class TestEdge:
    def test_identity_candidate_is_rejected(self):
        cache = cache_from_scores(np.array([0.5, -0.25]), np.array([1.0, -1.0]))
        report = edge(cache, cache.raw_scores, rho=0.1)
        assert report.edge == 0.0
        assert report.max_margin_diff == 0.0
        assert not report.accepted

    def test_label_shift_hits_minus_half_and_boundary(self):
        # dyadic raw scores make g - f = y exact, so the functional is exact
        raw = np.array([0.25, -1.5, 3.0, -0.5])
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        cache = cache_from_scores(raw, labels)
        report = edge(cache, raw + labels, rho=0.1)
        assert report.edge == pytest.approx(-0.5, abs=1e-15)
        assert report.max_margin_diff == 1.0
        assert report.violation_count == 0
        assert report.accepted  # holds for any rho < 1/4

    def test_matches_brute_force_oracle(self):
        rng = SplitMix64(17)
        for _ in range(20):
            m = 40
            raw = rng.normal_block(m) * 2.0
            labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
            cand = raw + rng.normal_block(m)
            cache = cache_from_scores(raw, labels)
            report = edge(cache, cand, rho=0.1)
            oracle_edge, oracle_mmd = brute_force_edge(labels * raw, raw, labels, cand)
            assert report.edge == pytest.approx(oracle_edge, abs=1e-12)
            assert report.max_margin_diff == pytest.approx(oracle_mmd, abs=1e-15)
            assert report.accepted == (
                report.edge < -0.1
                and report.max_margin_diff <= 1.0
                and report.candidate.potential <= cache.potential - 0.1
            )

    def test_margin_drop_that_raises_the_potential_is_rejected(self):
        # weights 0.995 / 0.005; shifts d = (1, -11.6) give edge -0.1031 < -rho
        # and max shift 1, yet the potential rises by about 6.30
        raw = np.array([0.0, math.log(199.0)])
        labels = np.array([1.0, 1.0])
        cache = cache_from_scores(raw, labels)
        cand = raw + np.array([1.0, -11.6])
        report = edge(cache, cand, rho=0.1)
        assert report.edge == pytest.approx(-0.1031, abs=1e-4)
        assert report.max_margin_diff == 1.0
        assert not report.accepted
        after = math.log(math.exp(-cand[0]) + math.exp(-cand[1]))
        assert report.candidate.potential == pytest.approx(after, abs=1e-12)
        assert after - cache.potential == pytest.approx(6.30, abs=0.01)

    def test_accepted_candidates_drop_the_potential_by_rho(self):
        rng = SplitMix64(23)
        accepted = 0
        for _ in range(300):
            m = 2 + int(rng.uniform() * 6)
            raw = rng.normal_block(m) * 3.0
            labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
            # shifts up to 1 toward the label, and drops of up to 12 against it
            shift = np.where(rng.uniform_block(m) < 0.7, rng.uniform_block(m), -12.0 * rng.uniform_block(m))
            cand = raw + labels * shift
            cache = cache_from_scores(raw, labels)
            report = edge(cache, cand, rho=0.1)
            if report.accepted:
                accepted += 1
                after = math.log(math.fsum(math.exp(-y * g) for y, g in zip(labels, cand)))
                assert after <= cache.potential - 0.1 + 1e-12
        assert accepted > 0

    def test_non_finite_candidate_scores_raise(self):
        cache = cache_from_scores(np.zeros(2), np.array([1.0, -1.0]))
        with pytest.raises(NumericError):
            edge(cache, np.array([0.5, np.inf]), rho=0.1)

    @pytest.mark.parametrize("length", [1, 2])
    def test_candidate_of_another_length_raises(self, length):
        # a length-1 candidate would broadcast against the cache without the check
        cache = cache_from_scores(np.zeros(3), np.array([1.0, 1.0, -1.0]))
        with pytest.raises(ShapeError):
            edge(cache, np.zeros(length), rho=0.1)

    def test_violation_count(self):
        cache = cache_from_scores(np.zeros(3), np.array([1.0, 1.0, -1.0]))
        report = edge(cache, np.array([2.0, 0.5, 0.0]), rho=0.1)
        assert report.violation_count == 1
        assert not report.accepted  # margin shift 2 breaks the clip


class TestBoostConfig:
    def test_rho_range_enforced(self):
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.3)
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.25)
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.0)
        BoostConfig(rho=0.249)  # inside the open interval

    def test_other_validation(self):
        with pytest.raises(ConfigError):
            BoostConfig(T=-1)
        with pytest.raises(ConfigError):
            BoostConfig(n=0)
        with pytest.raises(ConfigError):
            SgdParams(lr=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(sgd_growth=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(lr_shrink=0.0)
        with pytest.raises(ConfigError):
            BoostConfig(hidden=(0,))


START = Attempt(number=0, steps=100, lr=0.05, widen=0, done=0)
RESUMED = Attempt(number=1, steps=200, lr=0.05, widen=0, done=100)
AT_LR_04 = START._replace(lr=0.4)
TWO_STEPS = START._replace(steps=2)


class TestNextAttempt:
    """The retry schedule alone, with no training: each row is the policy, the
    rejected attempt, why it was rejected, and the attempt that comes next."""

    @pytest.mark.parametrize("retry, attempt, outcome, expected", [
        (RetryPolicy(), START, "shallow", Attempt(1, 200, 0.05, 0, 100)),
        (RetryPolicy(), RESUMED, "shallow", Attempt(2, 400, 0.05, 0, 200)),
        (RetryPolicy(sgd_growth=1.5), START._replace(steps=3), "shallow", Attempt(1, 5, 0.05, 0, 3)),
        (RetryPolicy(sgd_growth=1), START, "shallow", Attempt(1, 100, 0.05, 0, 0)),
        (RetryPolicy(), START._replace(steps=0), "shallow", Attempt(1, 0, 0.05, 0, 0)),
        (RetryPolicy(), START, "clip", Attempt(1, 200, 0.025, 0, 0)),
        (RetryPolicy(), START, "numeric", Attempt(1, 200, 0.025, 0, 0)),
        (RetryPolicy(), RESUMED, "clip", Attempt(2, 400, 0.025, 0, 0)),
        (RetryPolicy(), RESUMED, "numeric", Attempt(2, 400, 0.025, 0, 0)),
        (RetryPolicy(widen_units=4), START, "shallow", Attempt(1, 200, 0.05, 4, 0)),
        (RetryPolicy(widen_units=4), Attempt(1, 200, 0.05, 4, 0), "clip", Attempt(2, 400, 0.025, 8, 0)),
        (RetryPolicy(lr_shrink=5e-324), AT_LR_04, "clip", None),
        (RetryPolicy(lr_shrink=5e-324), AT_LR_04, "numeric", None),
        (RetryPolicy(lr_shrink=5e-324), AT_LR_04, "shallow", Attempt(1, 200, 0.4, 0, 100)),
        (RetryPolicy(sgd_growth=1e308), TWO_STEPS, "shallow", None),
        (RetryPolicy(sgd_growth=5e16), TWO_STEPS, "shallow", None),
        (RetryPolicy(sgd_growth=1e15), TWO_STEPS, "shallow", Attempt(1, 2 * 10**15, 0.05, 0, 2)),
        (RetryPolicy(max_retries=2), START._replace(number=2), "shallow", None),
        (RetryPolicy(max_retries=2), START._replace(number=1), "shallow", Attempt(2, 200, 0.05, 0, 100)),
        (RetryPolicy(max_retries=0), START, "clip", None),
    ], ids=[
        "shallow-resumes", "shallow-resumes-again", "steps-round-up", "growth-1-draws-fresh",
        "0-steps-draws-fresh", "clip-shrinks-lr", "numeric-shrinks-lr", "clip-after-resume",
        "numeric-after-resume", "widen-draws-fresh", "widen-adds-up", "lr-underflow-clip",
        "lr-underflow-numeric", "shallow-keeps-lr", "picks-inf", "picks-too-many-bytes",
        "picks-fit", "max-retries", "below-max-retries", "no-retries",
    ])
    def test_transition(self, retry, attempt, outcome, expected):
        config = BoostConfig(sgd=SgdParams(batch=32), retry=retry)
        assert _next_attempt(config, attempt, outcome) == expected


class TestRunSelfieboost:
    def test_zero_iterations(self, small_data):
        dataset, _ = small_data
        cfg = BoostConfig(T=0, seed=1, hidden=(8,))
        result = run_selfieboost(dataset, cfg)
        assert result.records == ()
        assert result.accepted_count == 0
        assert result.stop_reason == STOP_COMPLETED
        # the returned net is the zero function
        assert np.all(forward_batch(result.final_net, dataset.features) == 0.0)

    def test_reaches_zero_training_error(self, small_run):
        assert small_run.stop_reason == STOP_ZERO_ERROR
        assert small_run.records[-1].mistakes == 0

    def test_potential_drop_per_accepted_iteration(self, small_run, small_config):
        for rec in small_run.records:
            assert rec.potential_after <= rec.potential_before - small_config.rho + 1e-9

    def test_chained_edge_inequality(self, small_run):
        for rec in small_run.records:
            assert rec.potential_after - rec.potential_before <= rec.edge + 1e-9

    def test_error_bound_from_accepted_count(self, small_data, small_run):
        dataset, _ = small_data
        k = small_run.accepted_count
        assert err(small_run.final_net, dataset) <= math.exp(-0.1 * k) + 1e-12

    def test_potential_bounds_error_every_iteration(self, small_data, small_run):
        m = small_data[0].m
        for rec in small_run.records:
            assert rec.train_err <= math.exp(rec.potential_after) / m + 1e-12

    def test_deterministic_reruns(self, small_data, small_config, small_run):
        again = run_selfieboost(small_data[0], small_config)
        assert again.records == small_run.records
        assert again.stop_reason == small_run.stop_reason
        for a, b in zip(again.final_net.weights, small_run.final_net.weights):
            np.testing.assert_array_equal(a, b)

    def test_threads_do_not_change_records(self, small_data, small_config, small_run):
        threaded = run_selfieboost(small_data[0], small_config, threads=4)
        assert threaded.records == small_run.records

    def test_edge_always_below_threshold_on_accepted(self, small_run, small_config):
        for rec in small_run.records:
            assert rec.edge < -small_config.rho

    def test_wall_ms_zero_by_default(self, small_run):
        assert all(rec.wall_ms == 0.0 for rec in small_run.records)

    def test_recorded_run_passes_bound_check(self, small_data, small_run):
        from selfieboost.verify import bound_suite

        assert bound_suite(small_run.records, small_data[0].m, 0.1).passed

    def test_widening_escalation_grows_adopted_nets(self, small_data, small_config):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(300, 0.05, 16),
            retry=RetryPolicy(max_retries=5, sgd_growth=2.0, widen_units=4, lr_shrink=0.5),
            seed=3, init_scale=0.0, hidden=(16,),
        )
        result = run_selfieboost(small_data[0], cfg)
        assert result.accepted_count >= 2
        # at least one retried iteration adopted a widened candidate
        assert any(r.retries_used > 0 and r.widened_to > 16 for r in result.records)
        # the widened width persists into later iterations
        widths = [r.widened_to for r in result.records]
        assert widths == sorted(widths)
        assert result.final_net.architecture.hidden_layers[-1] == widths[-1]

    def test_retry_counters_follow_the_escalation(self, small_data):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(100, 0.05, 16),
            retry=RetryPolicy(max_retries=5, sgd_growth=1.5, widen_units=4, lr_shrink=0.5),
            seed=3, init_scale=0.0, hidden=(16,),
        )
        result = run_selfieboost(small_data[0], cfg)
        assert result.accepted_count == 6
        assert any(r.retries_used > 0 for r in result.records)
        width = 16
        for r in result.records:
            steps = 100
            for _ in range(r.retries_used):
                steps = int(math.ceil(steps * 1.5))
            assert r.sgd_steps_used == steps
            assert r.widened_to == width + 4 * r.retries_used
            width = r.widened_to

    def test_numeric_abort_leaves_the_stream_after_the_failing_step(self, monkeypatch):
        """An attempt that blows up at step k has drawn exactly (k+1) minibatches."""
        dataset, _ = gen_realizable(300, 5, NetworkArchitecture(5, (8,)), 0.1, 3)
        cfg = BoostConfig(
            T=4, n=64, hidden=(8,), sgd=SgdParams(50, 3e5, 16),
            retry=RetryPolicy(5, 1.5, 0, 1e-3), seed=1,
        )
        inner, aborts = boost.sgd_inner, []

        def checked_inner(data, working_set, snapshot, candidate, params, rng):
            start, fresh = candidate.copy(), copy.copy(rng)
            try:
                return inner(data, working_set, snapshot, candidate, params, rng)
            except NumericError:
                # the reference loop replays the attempt and finds the failing step k
                feats, loss = surrogate_reference(data, working_set, snapshot, params.batch)
                k = reference_sgd(start, feats, params.steps, params.lr, params.batch, copy.copy(fresh), loss)
                assert k is not None
                fresh.uniform_block((k + 1) * params.batch)
                assert copy.copy(rng).next_u64() == fresh.next_u64()
                aborts.append((k, params.steps))
                raise

        monkeypatch.setattr(boost, "sgd_inner", checked_inner)
        result = run_selfieboost(dataset, cfg)
        assert [r.retries_used for r in result.records] == [4, 2, 2, 2]
        assert len(aborts) == 4 and all(k + 1 < steps for k, steps in aborts)

    def test_shallow_rejection_continues_on_its_working_set(self, small_data, small_config, monkeypatch):
        attempts = record_attempts(monkeypatch)
        result = run_selfieboost(small_data[0], small_config)
        shallow = [k for k, a in enumerate(attempts[:-1]) if is_shallow(a)]
        assert len(shallow) >= 8
        total = 0  # the candidate's steps so far on its working set
        for k, attempt in enumerate(attempts):
            total = total + attempt["steps"] if k - 1 in shallow else attempt["steps"]
            if k in shallow:
                after = attempts[k + 1]
                assert after["working_set"] is attempt["working_set"]
                assert after["candidate"] is attempt["candidate"]
                assert after["steps"] == math.ceil(total * 2.0) - total
                assert after["lr"] == attempt["lr"]
            if attempt["report"].accepted:
                # retries and sgd_steps keep their meaning: rejected attempts
                # before this one, and this candidate's total budget
                record = result.records[sum(a["report"].accepted for a in attempts[:k])]
                assert record.sgd_steps_used == total

    def test_retries_restart_when_the_budget_does_not_grow(self, small_data, monkeypatch):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(300, 0.05, 16),
            retry=RetryPolicy(sgd_growth=1.0), seed=3, init_scale=0.0, hidden=(16,),
        )
        attempts = record_attempts(monkeypatch)
        run_selfieboost(small_data[0], cfg)
        assert sum(map(is_shallow, attempts)) >= 5
        assert [a["steps"] for a in attempts] == [300] * len(attempts)
        assert len({id(a["working_set"]) for a in attempts}) == len(attempts)

    def test_widening_retries_restart_on_a_fresh_working_set(self, small_data, monkeypatch):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(100, 0.05, 16),
            retry=RetryPolicy(max_retries=5, sgd_growth=1.5, widen_units=4, lr_shrink=0.5),
            seed=3, init_scale=0.0, hidden=(16,),
        )
        attempts = record_attempts(monkeypatch)
        result = run_selfieboost(small_data[0], cfg)
        assert sum(map(is_shallow, attempts)) >= 6
        assert len({id(a["working_set"]) for a in attempts}) == len(attempts)
        assert len({id(a["candidate"]) for a in attempts}) == len(attempts)
        k, width = 0, 16
        for r in result.records:
            for retry in range(r.retries_used + 1):
                assert attempts[k]["steps"] == [100, 150, 225, 338][retry]
                assert attempts[k]["width"] == width + 4 * retry
                k += 1
            width = r.widened_to
        assert k == len(attempts)

    def test_clip_and_numeric_rejections_restart_with_the_shrunk_lr(self, monkeypatch):
        dataset, _ = gen_realizable(300, 5, NetworkArchitecture(5, (8,)), 0.1, 3)
        cfg = BoostConfig(
            T=4, n=64, hidden=(8,), sgd=SgdParams(50, 3e5, 16),
            retry=RetryPolicy(5, 1.5, 0, 1e-3), seed=1,
        )
        attempts = record_attempts(monkeypatch)
        run_selfieboost(dataset, cfg)
        numeric = [k for k, a in enumerate(attempts) if a["report"] is None]
        clip = [k for k, a in enumerate(attempts) if a["report"] and a["report"].violation_count > 0]
        assert len(numeric) == 4 and len(clip) == 4
        for k in numeric + clip:
            before, after = attempts[k], attempts[k + 1]
            assert after["working_set"] is not before["working_set"]
            assert after["candidate"] is not before["candidate"]
            assert after["lr"] == before["lr"] * 1e-3
            assert after["steps"] == math.ceil(before["steps"] * 1.5)

    def test_underflowed_lr_ends_the_run_before_an_attempt_at_lr_0(self, monkeypatch):
        dataset, _ = gen_realizable(300, 5, NetworkArchitecture(5, (4,)), 0.1, 3)
        cfg = BoostConfig(
            T=5, n=64, hidden=(8,), sgd=SgdParams(lr=0.4), retry=RetryPolicy(lr_shrink=5e-324),
        )
        inner, attempts = boost.sgd_inner, []

        def recording_inner(data, working_set, snapshot, candidate, params, rng):
            attempts.append((params.steps, params.lr))
            return inner(data, working_set, snapshot, candidate, params, rng)

        monkeypatch.setattr(boost, "sgd_inner", recording_inner)
        result = run_selfieboost(dataset, cfg)
        assert result.stop_reason == STOP_NO_CANDIDATE
        assert result.records == ()
        assert attempts == [(500, 0.4)]  # one attempt: it violates the clip, and 0.4 * 5e-324 is 0

    def test_acceptance_soundness_replay(self, small_data, small_config, small_run):
        """Manually replay one iteration and recheck adoption with the oracle."""
        dataset, _ = small_data
        from selfieboost.sampling import build_alias, derive_seed, sample_indices

        net = small_config.initial_net(5)
        scores = forward_batch(net, dataset.features)
        cache = cache_from_scores(scores, dataset.labels)
        table = build_alias(cache.probs)
        rng_sets = SplitMix64(derive_seed(small_config.seed, 1))
        rng_sgd = SplitMix64(derive_seed(small_config.seed, 2))
        steps, done, lr = small_config.sgd.steps, 0, small_config.sgd.lr
        for _ in range(small_config.retry.max_retries + 1):
            if not done:  # a shallow rejection keeps its working set and candidate
                working = sample_indices(table, 128, rng_sets)
                candidate = net.copy()
            sgd_inner(dataset, working, scores, candidate, SgdParams(steps - done, lr, 16), rng_sgd)
            cand_scores = forward_batch(candidate, dataset.features)
            report = edge(cache, cand_scores, small_config.rho)
            if report.accepted:
                oracle_edge, oracle_mmd = brute_force_edge(
                    dataset.labels * scores, scores, dataset.labels, cand_scores
                )
                assert oracle_edge < -small_config.rho + 1e-12
                assert oracle_mmd <= 1.0 + 1e-12
                assert report.edge == small_run.records[0].edge
                break
            done = 0 if report.violation_count > 0 else steps
            steps = int(np.ceil(steps * small_config.retry.sgd_growth))
            if report.violation_count > 0:
                lr *= small_config.retry.lr_shrink
        else:
            pytest.fail("no accepted candidate in the replayed iteration")
