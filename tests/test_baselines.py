import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfieboost import baselines
from selfieboost.baselines import (
    EnsembleModel,
    cost,
    ensemble_err,
    ensemble_predict_batch,
    load_ensemble,
    run_adaboost,
    run_plain_sgd,
    save_ensemble,
)
from selfieboost.boost import BoostConfig, SgdParams
from selfieboost.cli import main
from selfieboost.data import Dataset, gen_realizable, load_csv
from selfieboost.errors import ModelFormatError, ModelVersionError, NoWeakLearnerError, ShapeError
from selfieboost.nnet import (
    _ROWS,
    ACTIVATIONS,
    FeedForwardNet,
    NetworkArchitecture,
    forward_batch,
    forward_stacked,
    init_network,
    stack_nets,
)
from selfieboost.sampling import SplitMix64, derive_seed

import sgd_oracle


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


def overflowing_relu_net(width):
    """On the row (1, 1) each hidden unit is 2e300; the output weights of 1e10 overflow the score."""
    return FeedForwardNet(NetworkArchitecture(2, (width,), "relu"),
                          [np.full((width, 2), 1e300), np.full((1, width), 1e10)],
                          [np.zeros(width), np.zeros(1)])


class TestScoringNeverWarns:
    # the scoring kernel sets its own floating-point mode, so the output layer
    # after one or two units (a multiply-add) overflows as silently as after
    # three (an einsum), in the caller's thread and in each pool worker
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_an_overflowing_score_is_inf_without_a_warning(self, width, threads):
        net = overflowing_relu_net(width)
        x = np.ones((2 * _ROWS if threads > 1 else 1, 2))
        model = EnsembleModel(members=(net, net), alphas=(1.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = forward_batch(net, x, threads)
            votes = ensemble_predict_batch(model, x)
        assert np.all(scores == math.inf) and np.all(votes == 1.0)

    def test_a_vote_total_beyond_the_float_range_is_silent(self):
        # 1e308 + 1e308 overflows in the sum down the member axis, which runs
        # in the kernel's mode too; the votes keep the per-member loop's bits
        model = EnsembleModel(members=(linear_net([1.0]),) * 4, alphas=(1e308, 1e308, -1e308, -1e308))
        x = np.array([[1.0], [-1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            votes = ensemble_predict_batch(model, x)
        with np.errstate(all="ignore"):
            assert votes.tobytes() == oracle_predict(model, x).tobytes()
        assert votes.tolist() == [1.0, -1.0]

    def test_adaboost_on_a_row_with_a_1e308_feature(self):
        # check_digests.py's ovfdata.csv: a member's score on the first row
        # overflows in the round's sweep
        data = Dataset(np.array([[1e308, 1.0], [-1.5, 1.0], [0.5, -2.0]]), np.array([1.0, -1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_adaboost(data, BoostConfig(T=2, seed=1, hidden=(2,), activation="relu"))
            assert len(result.rounds) == 2 and ensemble_err(result.model, data) == 0.0


def oracle_predict(model, features):
    """The per-member loop that stacked scoring replaced: one forward_batch
    per member, votes added in member order."""
    total = np.zeros(features.shape[0])
    for member, alpha in zip(model.members, model.alphas):
        total = total + alpha * np.where(forward_batch(member, features) > 0.0, 1.0, -1.0)
    return np.where(total >= 0.0, 1.0, -1.0)


def random_member(d, hidden, activation, seed):
    arch = NetworkArchitecture(d, hidden, activation)
    net = init_network(arch, seed, 1.0)
    rng = SplitMix64(seed + 1)
    return FeedForwardNet(arch, net.weights, [rng.normal_block(b.shape[0]) for b in net.biases])


MEMBERS = st.lists(
    st.tuples(
        st.lists(st.one_of(st.integers(1, 5).map(lambda n: 8 * n), st.integers(1, 40)), max_size=2),
        st.sampled_from(ACTIVATIONS),
        st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0]),  # repeats make exact ties
    ),
    min_size=1, max_size=12,
)
# more rows than any ensemble's block holds: a block's terms and widest buffer
# take at least 2 + 1 floats a row, so it has at most 2**16 // 3 rows
CROSSING = baselines._STACK_FLOATS // 3 + 5


class TestStackedEnsemble:
    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 12), members=MEMBERS, rows=st.sampled_from([1, 7, CROSSING]),
           seed=st.integers(0, 2**32))
    def test_votes_equal_the_per_member_loop(self, d, members, rows, seed):
        nets = [random_member(d, tuple(h), act, seed + j) for j, (h, act, _) in enumerate(members)]
        model = EnsembleModel(members=tuple(nets), alphas=tuple(a for _, _, a in members))
        x = SplitMix64(seed ^ 0xE75).normal_block(rows * d).reshape(rows, d)
        for stack, positions in stack_nets(nets):
            scores = forward_stacked(stack, x, stack.workspace(len(x)))
            for i, j in enumerate(positions):
                assert scores[:, i].tobytes() == forward_batch(nets[j], x).tobytes()
        assert ensemble_predict_batch(model, x).tobytes() == oracle_predict(model, x).tobytes()

    def test_the_ensemble_workloads_model_votes_as_the_per_member_loop(self, tmp_path, monkeypatch):
        # the check_digests commands behind the benchmark's ensemble workload;
        # their eval log prints only err=0.0.  Every row's vote total is at
        # least 6.07 from 0 and no alpha exceeds 2.995, so no single flipped
        # vote moves a prediction: the members' scores are checked bit for bit
        script = Path(__file__).resolve().parents[1] / "scripts" / "check_digests.py"
        spec = importlib.util.spec_from_file_location("check_digests", script)
        check_digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_digests)
        commands = dict(check_digests.COMMANDS)
        monkeypatch.chdir(tmp_path)
        for name in ("gen8", "ada8"):
            assert main(commands[name].split()) == 0
        model, x = load_ensemble("ens8.json"), load_csv("data8.csv").features
        assert len(model.members) == 50 and x.shape == (2000, 10)
        assert {net.architecture.hidden_layers for net in model.members} == {(2,)}
        (stack, positions), = model.groups
        scores = forward_stacked(stack, x, stack.workspace(len(x)))
        for i, j in enumerate(positions):
            assert scores[:, i].tobytes() == sgd_oracle.scores(model.members[j], x).tobytes()
        assert ensemble_predict_batch(model, x).tobytes() == oracle_predict(model, x).tobytes()

    def test_votes_are_summed_one_by_one_in_member_order(self):
        # 1e16 + 1 rounds back to 1e16, so a sequential sum loses every 1.0 and
        # ends at -2, while numpy's pairwise sum of the 9 terms would end at +4.
        # A block of one row, alone or the last of several, is the case where
        # a reduce down the member axis would be pairwise
        up, down = linear_net([1.0]), linear_net([-1.0])
        arch = NetworkArchitecture(1, (3,), "relu")
        deep_up = FeedForwardNet(arch, [np.zeros((3, 1)), np.zeros((1, 3))], [np.ones(3), np.ones(1)])
        members = (up, up, up, deep_up, up, deep_up, up, down)
        model = EnsembleModel(members=members, alphas=(1e16, *[1.0] * 6, 1e16 + 2))
        block = baselines._STACK_FLOATS // (len(members) + 1 + max(s.row_floats for s, _ in model.groups))
        for rows in (3, 1, block + 1):
            x = np.ones((rows, 1))
            np.testing.assert_array_equal(ensemble_predict_batch(model, x), [-1.0] * rows)
            np.testing.assert_array_equal(oracle_predict(model, x), [-1.0] * rows)

    def test_a_reduce_down_the_member_axis_adds_one_row_at_a_time(self):
        # the premise of ensemble_predict_batch's vote totals: on a block at
        # least 2 columns wide, contiguous or a column slice of a wider buffer,
        # add.reduce down axis 0 adds row after row to +0.0, so behind the
        # terms' leading row of +0.0 it ends where add.accumulate does.
        # Entries span 2**-60 to 2**60 with planted +0 and -0, so the order of
        # a sum shows in its bits
        rng = SplitMix64(34)
        scale = np.exp2(np.clip(np.rint(20 * rng.normal_block(65 * 440)), -60, 60))
        u = rng.uniform_block(65 * 440)
        wide = np.where(u < 0.1, 0.0, np.where(u > 0.9, -0.0, rng.normal_block(65 * 440) * scale))
        wide = wide.reshape(65, 440)
        wide[0] = 0.0
        for rows in range(2, 66):
            for cols in (*range(2, 71), 433, 434):
                for a in (wide[:rows, :cols], np.ascontiguousarray(wide[:rows, :cols])):
                    assert np.add.reduce(a, axis=0).tobytes() == np.add.accumulate(a, axis=0)[-1].tobytes(), (
                        f"add.reduce down axis 0 of {rows} rows by {cols} columns does not add one row "
                        "at a time, so ensemble_predict_batch's vote totals are not member-order sums")
        # the leading +0.0 row matters only to a column of -0.0 ...
        negative_zeros = np.full((3, 2), -0.0)
        assert np.signbit(np.add.reduce(negative_zeros, axis=0)).tolist() == [False] * 2
        assert np.signbit(np.add.accumulate(negative_zeros, axis=0)[-1]).tolist() == [True] * 2
        # ... and one column alone is summed pairwise: +4 where the sequential
        # sum is -2, so a block is never narrower than 2 columns
        column = np.array([[0.0], [1e16], *[[1.0]] * 6, [-1e16 - 2]])
        assert np.add.reduce(column, axis=0)[0] == 4.0 and np.add.accumulate(column, axis=0)[-1, 0] == -2.0, (
            "add.reduce down axis 0 of 1 column is no longer pairwise; "
            "ensemble_predict_batch's 2-column floor may be needless")

    def test_wrong_width_and_empty_inputs(self):
        model = EnsembleModel(members=(linear_net([1.0, 2.0]),), alphas=(1.0,))
        with pytest.raises(ShapeError):
            ensemble_predict_batch(model, np.zeros((0, 3)))
        assert ensemble_predict_batch(model, np.zeros((0, 2))).shape == (0,)
        with pytest.raises(ModelFormatError, match="^ensemble has no members$"):
            EnsembleModel(members=(), alphas=())
        with pytest.raises(ValueError, match="equal length"):
            EnsembleModel(members=model.members, alphas=(1.0, 1.0))

    def test_stacks_are_built_once_and_members_are_read_only(self, monkeypatch):
        calls = []

        def counting_stack_nets(nets):
            calls.append(len(nets))
            return stack_nets(nets)

        monkeypatch.setattr(baselines, "stack_nets", counting_stack_nets)
        nets = tuple(random_member(3, (5,), "tanh", j) for j in range(4))
        model = EnsembleModel(members=nets, alphas=(1.0, 0.5, 0.25, 0.7))
        x = SplitMix64(8).normal_block(40 * 3).reshape(40, 3)
        first = ensemble_predict_batch(model, x)
        assert ensemble_predict_batch(model, x).tobytes() == first.tobytes()
        assert ensemble_err(model, Dataset(x, first)) == 0.0
        assert calls == [4]
        with pytest.raises(ValueError):
            nets[0].weights[0][0, 0] += 1.0
        with pytest.raises(ValueError):
            nets[3].biases[1][...] = 0.0
        assert ensemble_predict_batch(model, x).tobytes() == oracle_predict(model, x).tobytes()
        assert calls == [4]

    def test_memory_is_the_output_plus_the_block_budget(self):
        m, d = 4096, 10
        nets = tuple(random_member(d, (32,), "tanh", j) for j in range(64))
        model = EnsembleModel(members=nets, alphas=(1.0,) * 64)
        stacked = sum(w.nbytes + b.nbytes for stack, _ in stack_nets(nets)
                      for w, b in zip(stack.weights, stack.biases))
        x = SplitMix64(3).normal_block(m * d).reshape(m, d)
        tracemalloc.start()
        try:
            ensemble_predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # output, stacked weights, and a few temporaries of at most the budget each
        bound = 8 * m + stacked + 4 * 8 * baselines._STACK_FLOATS
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"

    def test_memory_at_the_ensemble_workloads_shape(self):
        # 50 members of hidden width 2 on 2000 rows of 10 features, scored in
        # blocks of 434 rows
        m, d, width = 2000, 10, 51
        nets = tuple(random_member(d, (2,), "tanh", j) for j in range(width - 1))
        model = EnsembleModel(members=nets, alphas=(1.0,) * (width - 1))
        (stack, _), = model.groups
        rows = baselines._STACK_FLOATS // (width + stack.row_floats)
        assert rows == 434
        work = stack.workspace(rows)
        workspace = sum({id(a): a.nbytes for a in (*work.inputs, *work.z)}.values())
        x = SplitMix64(3).normal_block(m * d).reshape(m, d)
        ensemble_predict_batch(model, x)
        tracemalloc.start()
        try:
            ensemble_predict_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, the terms, one workspace, and a block's np.where result
        # with its mask; np.where takes one ufunc buffer for each of the
        # broadcast ±alpha; 32 KiB for the interpreter's own objects.  One
        # more (width, rows) buffer of floats is 173 KiB
        where = 9 * rows * (width - 1) + 2 * 8 * np.getbufsize()
        bound = 8 * m + 8 * width * rows + workspace + where + 2**15
        assert peak <= bound, f"peak {peak / 2**10:.0f} KiB over {bound / 2**10:.0f} KiB"


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
        reference = init_network(NetworkArchitecture(4, (3,)), derive_seed(4, 0), 0.0)
        for a, b in zip(start.weights + start.biases, reference.weights + reference.biases):
            assert a.tobytes() == b.tobytes()
        config = BoostConfig(hidden=(3,), sgd=SgdParams(50, 0.1, 1), seed=4)
        trained = run_plain_sgd(easy_data, config).net
        assert trained.weights[0].tobytes() != start.weights[0].tobytes()

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
        path.write_text("[]")
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_ensemble(path)

    def test_member_error_names_the_member_and_keeps_its_class(self, tmp_path):
        path = tmp_path / "ens.json"
        path.write_text('{"format_version": 1, "alphas": [1.0], "members": [{"format_version": 2}]}')
        with pytest.raises(ModelVersionError, match="^member 0: unsupported format_version 2"):
            load_ensemble(path)


# finite alphas, the signed zeros and the float range's ends among them
ALPHAS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.0]))


class TestEnsembleChecksItself:
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32),
           members=st.lists(st.tuples(st.lists(st.integers(1, 10), max_size=2), st.sampled_from(["tanh", "relu"]),
                                      ALPHAS), min_size=1, max_size=6))
    def test_a_saved_ensemble_loads_back_as_itself(self, tmp_path_factory, d, seed, members):
        nets = [random_member(d, tuple(h), act, seed + j) for j, (h, act, _) in enumerate(members)]
        model = EnsembleModel(members=tuple(nets), alphas=tuple(a for _, _, a in members))
        path = tmp_path_factory.mktemp("ens") / "ensemble.json"
        save_ensemble(model, path)
        loaded = load_ensemble(path)
        assert np.array(loaded.alphas).tobytes() == np.array(model.alphas).tobytes()
        for net, back in zip(model.members, loaded.members, strict=True):
            assert back.architecture == net.architecture
            for p, q in zip(net.weights + net.biases, back.weights + back.biases, strict=True):
                assert q.tobytes() == p.tobytes()
        x = SplitMix64(seed ^ 0x5A5).normal_block(37 * d).reshape(37, d)
        assert ensemble_predict_batch(loaded, x).tobytes() == ensemble_predict_batch(model, x).tobytes()

    @pytest.mark.parametrize("members, alphas, error, message", [
        ((), (), ModelFormatError, "ensemble has no members"),
        ((linear_net([1.0]),), (math.nan,), ModelFormatError, "alpha 0 must be a finite number, got nan"),
        ((linear_net([1.0]), linear_net([1.0])), (1.0, True), ModelFormatError,
         "alpha 1 must be a finite number, got True"),
        ((linear_net([1.0] * 3), linear_net([1.0] * 4)), (1.0, 1.0), ShapeError,
         "ensemble members disagree on input dimension"),
    ], ids=["empty", "nan-alpha", "bool-alpha", "widths-3-and-4"])
    def test_an_invalid_ensemble_raises_when_it_is_built(self, members, alphas, error, message):
        # such a model could once be saved to a file that loading refuses
        with pytest.raises(error) as info:
            EnsembleModel(members=members, alphas=alphas)
        assert str(info.value) == message

    def test_integer_alphas_are_kept_as_floats(self):
        model = EnsembleModel(members=(linear_net([1.0]),), alphas=(2,))
        assert model.alphas == (2.0,) and type(model.alphas[0]) is float
