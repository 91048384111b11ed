"""The baselines' shared paths: one hinge-SGD loop and the ensemble file check."""

import numpy as np
import pytest

from selfieboost.baselines import (
    _hinge_sgd,
    _hinge_steps,
    ensemble_from_dict,
    run_plain_sgd,
)
from selfieboost.boost import BoostConfig, SgdParams
from selfieboost.data import gen_realizable
from selfieboost.errors import ModelFormatError
from selfieboost.nnet import NetworkArchitecture, init_network
from selfieboost.sampling import SplitMix64, uniform_picks

import sgd_oracle


@pytest.fixture(scope="module")
def data():
    dataset, _ = gen_realizable(120, 4, NetworkArchitecture(4, (3,)), 0.1, 5)
    return dataset


def test_plain_sgd_net_equals_hinge_sgd_bitwise(data):
    steps = 237  # checkpoints every 2 steps: the last segment is 1 step long
    config = BoostConfig(hidden=(6,), sgd=SgdParams(steps, 0.05, 4), seed=8, init_scale=1.0)
    plain = run_plain_sgd(data, config)
    single = _hinge_sgd(data, NetworkArchitecture(4, (6,)), steps, 0.05, 4, 8)
    assert [s for s, _ in plain.trajectory] == [*range(0, steps, 2), steps]
    for a, b in zip(plain.net.weights + plain.net.biases, single.weights + single.biases):
        assert a.tobytes() == b.tobytes()


def hinge_steps_two_pass(net, data, steps, lr, batch, rng):
    """Hinge SGD in the plain numpy of ``sgd_oracle`` that scores each
    minibatch with one forward pass and runs another for the step."""
    for pick in uniform_picks(rng, steps * batch, data.m).reshape(steps, batch):
        xb = data.features[pick]
        yb = data.labels[pick]
        scores = sgd_oracle.scores(net, xb)
        upstream = np.where(yb * scores < 1.0, -yb, 0.0) / batch
        sgd_oracle.step(net, sgd_oracle.forward_cached(net, xb), upstream, lr)


@pytest.mark.parametrize("lr", [0.05])
@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_single_forward_hinge_steps_equal_two_pass_bitwise(data, activation, batch, lr):
    arch = NetworkArchitecture(4, (6, 3), activation)
    one = init_network(arch, 3, 1.0)
    two = one.copy()
    _hinge_steps(one, data, 40, lr, batch, SplitMix64(9))
    hinge_steps_two_pass(two, data, 40, lr, batch, SplitMix64(9))
    for a, b in zip(one.weights + one.biases, two.weights + two.biases):
        assert a.tobytes() == b.tobytes()
    assert one.weights[0].tobytes() != init_network(arch, 3, 1.0).weights[0].tobytes()


def test_empty_ensemble_is_format_error():
    with pytest.raises(ModelFormatError):
        ensemble_from_dict({"format_version": 1, "alphas": [], "members": []})
