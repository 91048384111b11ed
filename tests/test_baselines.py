import math

import numpy as np
import pytest

from selfieboost import baselines
from selfieboost.baselines import (
    EnsembleModel,
    _hinge_steps,
    cost,
    ensemble_err,
    ensemble_predict_batch,
    load_ensemble,
    run_adaboost,
    run_plain_sgd,
    save_ensemble,
)
from selfieboost.boost import BoostConfig, SgdParams, _initial_net
from selfieboost.data import Dataset, gen_realizable
from selfieboost.errors import ModelVersionError, NoWeakLearnerError
from selfieboost.nnet import (
    FeedForwardNet,
    NetworkArchitecture,
    forward_batch,
    init_network,
)
from selfieboost.sampling import SplitMix64, derive_seed


def linear_net(weights, bias=0.0):
    w = np.asarray([weights], dtype=np.float64)
    return FeedForwardNet(
        NetworkArchitecture(w.shape[1], ()), [w], [np.array([float(bias)])]
    )


@pytest.fixture(scope="module")
def easy_data():
    dataset, _ = gen_realizable(200, 4, NetworkArchitecture(4, (3,)), 0.1, 13)
    return dataset


@pytest.fixture(scope="module")
def curved_data():
    """Teacher wide enough that a linear weak learner cannot be perfect."""
    dataset, _ = gen_realizable(300, 6, NetworkArchitecture(6, (8,)), 0.1, 21)
    return dataset


def weak_linear(T, seed):
    return BoostConfig(hidden=(), sgd=SgdParams(200, 0.05, 8), n=64, T=T, seed=seed)


class TestRunAdaBoost:
    def test_perfect_weak_learner_one_round(self, easy_data):
        config = BoostConfig(hidden=(16,), sgd=SgdParams(400, 0.05, 16), n=128, T=1, seed=5)
        result = run_adaboost(easy_data, config)
        assert len(result.model.members) == 1
        assert ensemble_err(result.model, easy_data) == 0.0

    def test_product_bound_on_recorded_run(self, curved_data):
        # linear weak learners cannot be perfect on this teacher's data
        result = run_adaboost(curved_data, weak_linear(T=12, seed=2))
        bound = 1.0
        for rnd in result.rounds:
            bound *= 2.0 * math.sqrt(rnd.eps * (1.0 - rnd.eps))
        assert ensemble_err(result.model, curved_data) <= bound + 1e-9
        assert len(result.rounds) >= 2  # genuinely multi-round
        assert all(0.0 <= rnd.eps < 0.5 for rnd in result.rounds)

    def test_recorded_ensemble_err_matches_model(self, curved_data):
        # train prints rounds[-1].ensemble_err as the ensemble's final error,
        # both for a run that ends at T and for one stopped by a chance learner
        result = run_adaboost(curved_data, weak_linear(T=6, seed=2))
        assert len(result.rounds) == 6
        assert result.rounds[-1].ensemble_err == ensemble_err(result.model, curved_data)
        readme, _ = gen_realizable(2000, 10, NetworkArchitecture(10, (4,)), 0.1, 42)
        config = BoostConfig(hidden=(2,), sgd=SgdParams(steps=5), T=50, seed=42)
        result = run_adaboost(readme, config)
        assert len(result.rounds) == 2 and result.rounds[-1].eps > 0.0
        assert result.rounds[-1].ensemble_err == ensemble_err(result.model, readme)

    def test_chance_learner_discarded_and_run_errors(self, monkeypatch):
        # the injected learner is right on one example, wrong on the other
        dataset = Dataset(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        fixed = linear_net([1.0])
        monkeypatch.setattr(baselines, "_hinge_sgd", lambda *args: fixed)
        with pytest.raises(NoWeakLearnerError):
            run_adaboost(dataset, BoostConfig(hidden=(), T=1, seed=0))

    def test_deterministic(self, curved_data):
        a = run_adaboost(curved_data, weak_linear(T=5, seed=9))
        b = run_adaboost(curved_data, weak_linear(T=5, seed=9))
        assert a.rounds == b.rounds


class TestEnsemblePredict:
    def test_single_member_is_its_sign(self):
        model = EnsembleModel(members=(linear_net([1.0]),), alphas=(0.7,))
        assert ensemble_predict_batch(model, np.array([[2.0]]))[0] == 1
        assert ensemble_predict_batch(model, np.array([[-2.0]]))[0] == -1

    def test_tie_resolves_to_plus_one(self):
        model = EnsembleModel(
            members=(linear_net([1.0]), linear_net([-1.0])), alphas=(1.0, 1.0)
        )
        assert ensemble_predict_batch(model, np.array([[3.0]]))[0] == 1

    def test_weighted_majority(self):
        model = EnsembleModel(
            members=(linear_net([1.0]), linear_net([-1.0])), alphas=(1.0, 2.0)
        )
        assert ensemble_predict_batch(model, np.array([[1.0]]))[0] == -1

    def test_cost_counts_members(self):
        members = tuple(linear_net([1.0, 0.0]) for _ in range(10))
        model = EnsembleModel(members=members, alphas=(1.0,) * 10)
        report = cost(model)
        assert report.network_evals_per_prediction == 10
        assert report.total_params_evaluated == 10 * 3


class TestPlainSgd:
    def test_zero_steps_returns_initial_net(self, easy_data):
        config = BoostConfig(hidden=(3,), sgd=SgdParams(0, 0.1), seed=4, init_scale=1.0)
        result = run_plain_sgd(easy_data, config)
        reference = init_network(NetworkArchitecture(4, (3,)), derive_seed(4, 0), 1.0)
        for a, b in zip(result.net.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        assert result.trajectory[0][0] == 0

    def test_zero_init_scale_starts_where_selfieboost_starts(self, easy_data):
        start = run_plain_sgd(easy_data, BoostConfig(hidden=(3,), sgd=SgdParams(0, 0.1), seed=4)).net
        reference = _initial_net(NetworkArchitecture(4, (3,)), derive_seed(4, 0), 0.0)
        for a, b in zip(start.weights + start.biases, reference.weights + reference.biases):
            assert a.tobytes() == b.tobytes()
        config = BoostConfig(hidden=(3,), sgd=SgdParams(50, 0.1, 1), seed=4)
        trained = run_plain_sgd(easy_data, config).net
        assert trained.weights[0].tobytes() != start.weights[0].tobytes()

    def test_zero_lr_changes_nothing(self, easy_data):
        arch = NetworkArchitecture(4, (3,))
        moved = init_network(arch, derive_seed(4, 0), 1.0)
        _hinge_steps(moved, easy_data, 25, 0.0, 1, SplitMix64(derive_seed(4, 1)))
        frozen = init_network(arch, derive_seed(4, 0), 1.0)
        for a, b in zip(moved.weights + moved.biases, frozen.weights + frozen.biases):
            np.testing.assert_array_equal(a, b)

    def test_separable_linear_problem_reaches_zero_error(self):
        rng = SplitMix64(3)
        X = rng.normal_block(80 * 2).reshape(80, 2)
        w_true = np.array([1.0, -2.0])
        y = np.where(X @ w_true > 0, 1.0, -1.0)
        X = X + 0.3 * y[:, None] * w_true / np.linalg.norm(w_true)  # widen the gap
        dataset = Dataset(X, y)
        config = BoostConfig(hidden=(), sgd=SgdParams(10_000, 0.05, 1), seed=1)
        result = run_plain_sgd(dataset, config)
        assert result.trajectory[-1][1] == 0.0

    def test_trajectory_is_recorded(self, easy_data):
        config = BoostConfig(hidden=(3,), sgd=SgdParams(50, 0.05, 1), seed=4, init_scale=1.0)
        result = run_plain_sgd(easy_data, config)
        steps = [s for s, _ in result.trajectory]
        assert steps[0] == 0 and steps[-1] == 50
        assert all(0.0 <= e <= 1.0 for _, e in result.trajectory)


class TestEnsembleIO:
    def test_round_trip(self, tmp_path, curved_data):
        model = run_adaboost(curved_data, weak_linear(T=3, seed=9)).model
        path = tmp_path / "ensemble.json"
        save_ensemble(model, path)
        loaded = load_ensemble(path)
        assert loaded.alphas == model.alphas
        np.testing.assert_array_equal(
            forward_batch(loaded.members[0], curved_data.features),
            forward_batch(model.members[0], curved_data.features),
        )

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"format_version": 99, "alphas": [], "members": []}')
        with pytest.raises(ModelVersionError):
            load_ensemble(path)
