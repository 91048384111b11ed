import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfieboost import nnet
from selfieboost.baselines import EnsembleModel
from selfieboost.errors import (
    ModelFormatError,
    ModelVersionError,
    ShapeError,
    UnsupportedArchitectureError,
)
from selfieboost.nnet import (
    _ROWS,
    FeedForwardNet,
    _forward_cached,
    _padded,
    _train_workspace,
    NetworkArchitecture,
    backprop_batch,
    forward,
    forward_batch,
    forward_stacked,
    grad_check,
    init_network,
    load_model,
    net_to_dict,
    save_model,
    sgd_step,
    stack_nets,
    widen,
    write_json,
)
from selfieboost.sampling import SplitMix64

import sgd_oracle


def make_linear(weights, bias):
    """Hand-built linear net (no hidden layer)."""
    w = np.asarray([weights], dtype=np.float64)
    arch = NetworkArchitecture(w.shape[1], ())
    return FeedForwardNet(arch, [w], [np.array([float(bias)])])


def oracle_forward(net, x):
    """Straightforward affine+activation chain with plain Python loops."""
    values = [float(v) for v in x]
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for r in range(w.shape[0]):
            acc = float(b[r])
            for c in range(w.shape[1]):
                acc += float(w[r, c]) * values[c]
            out.append(acc)
        if i < n_layers - 1:
            if net.architecture.activation == "tanh":
                out = [math.tanh(v) for v in out]
            else:
                out = [max(v, 0.0) for v in out]
        values = out
    return values[0]


class TestArchitecture:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            NetworkArchitecture(0, (4,))
        with pytest.raises(ValueError):
            NetworkArchitecture(3, (0,))
        with pytest.raises(ValueError):
            NetworkArchitecture(3, (4,), "sigmoid")

    def test_param_count(self):
        arch = NetworkArchitecture(10, (32,))
        assert arch.param_count == (10 + 1) * 32 + (32 + 1) * 1
        assert NetworkArchitecture(3, ()).param_count == 4


class TestInit:
    def test_zero_scale_is_zero_net(self):
        net = init_network(NetworkArchitecture(3, ()), seed=1, scale=0.0)
        assert all(np.all(w == 0.0) for w in net.weights)
        assert forward(net, np.array([5.0, -2.0, 0.3])) == 0.0

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("hidden", [(), (3,), (4, 1, 3)], ids=["0", "3", "4-1-3"])
    def test_zero_scale_is_the_unit_draw_with_zero_output_weights(self, hidden, activation):
        # the zero function on the layers drawn at scale 1, so backprop can
        # move them; -0.0 takes the same path, and any other sign is refused
        arch = NetworkArchitecture(5, hidden, activation)
        zero, unit = init_network(arch, 11, 0.0), init_network(arch, 11, 1.0)
        for a, b in zip(zero.weights[:-1] + zero.biases, unit.weights[:-1] + unit.biases):
            assert a.tobytes() == b.tobytes()
        assert zero.weights[-1].tobytes() == np.zeros(unit.weights[-1].shape).tobytes()
        assert np.all(unit.weights[-1] != 0.0)
        minus = init_network(arch, 11, -0.0)
        for a, b in zip(minus.weights + minus.biases, zero.weights + zero.biases):
            assert a.tobytes() == b.tobytes()
        x = SplitMix64(4).normal_block(20 * 5).reshape(20, 5)
        assert forward_batch(zero, x).tobytes() == np.zeros(20).tobytes()
        for scale in (-1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="scale"):
                init_network(arch, 11, scale)

    def test_deterministic(self):
        arch = NetworkArchitecture(10, (32,))
        a = init_network(arch, 7, 1.0)
        b = init_network(arch, 7, 1.0)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_weight_range_respects_fan_in(self):
        net = init_network(NetworkArchitecture(10, (32,)), 7, 1.0)
        assert np.max(np.abs(net.weights[0])) <= 1.0 / math.sqrt(10)
        assert np.max(np.abs(net.weights[1])) <= 1.0 / math.sqrt(32)
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_different_seeds_differ(self):
        arch = NetworkArchitecture(4, (5,))
        a, b = init_network(arch, 1, 1.0), init_network(arch, 2, 1.0)
        assert not np.array_equal(a.weights[0], b.weights[0])


class TestForward:
    def test_linear_affine_value(self):
        net = make_linear([1.0, 2.0], 0.5)
        assert forward(net, np.array([1.0, 1.0])) == 3.5

    def test_matches_independent_oracle(self):
        rng = SplitMix64(21)
        for arch in (
            NetworkArchitecture(7, (11,)),
            NetworkArchitecture(4, (5, 3), "relu"),
            NetworkArchitecture(9, ()),
        ):
            net = init_network(arch, rng.next_u64(), 1.0)
            for _ in range(34):
                x = rng.normal_block(arch.input_dim)
                assert forward(net, x) == pytest.approx(oracle_forward(net, x), abs=1e-12)

    def test_pure_and_deterministic(self):
        net = init_network(NetworkArchitecture(5, (6,)), 3, 1.0)
        x = np.arange(5.0)
        before = [w.copy() for w in net.weights]
        assert forward(net, x) == forward(net, x)
        for w, orig in zip(net.weights, before):
            np.testing.assert_array_equal(w, orig)

    def test_shape_errors(self):
        net = init_network(NetworkArchitecture(3, ()), 0, 1.0)
        with pytest.raises(ShapeError):
            forward(net, np.zeros(4))
        with pytest.raises(ShapeError):
            forward_batch(net, np.zeros((2, 5)))
        with pytest.raises(ShapeError, match="upstream"):
            backprop_batch(net, np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match="layer count"):
            FeedForwardNet(net.architecture, net.weights * 2, net.biases * 2)


class TestForwardBatch:
    def test_empty_batch(self):
        net = init_network(NetworkArchitecture(3, (2,)), 0, 1.0)
        assert forward_batch(net, np.zeros((0, 3))).shape == (0,)

    @pytest.mark.parametrize("d", [6, 64, 130])
    def test_rows_equal_scalar_forward_bitwise(self, d):
        net = init_network(NetworkArchitecture(d, (9,)), 5, 1.0)
        X = SplitMix64(8).normal_block(50 * d).reshape(50, d)
        batch = forward_batch(net, X)
        looped = np.array([forward(net, X[i]) for i in range(50)])
        np.testing.assert_array_equal(batch, looped)

    @pytest.mark.parametrize("rows, threads", [(997, 4), (2 * _ROWS + 3, 2), (2 * _ROWS + 3, 4)])
    def test_threaded_equals_single_threaded_bitwise(self, rows, threads):
        net = init_network(NetworkArchitecture(5, (13,)), 2, 1.0)
        X = SplitMix64(4).normal_block(rows * 5).reshape(rows, 5)
        np.testing.assert_array_equal(
            forward_batch(net, X, threads=threads), forward_batch(net, X, threads=1)
        )

    def test_sweep_memory_is_bounded_by_one_block(self):
        net = init_network(NetworkArchitecture(10, (32,)), 3, 1.0)
        X = SplitMix64(6).normal_block(20_000 * 10).reshape(20_000, 10)
        tracemalloc.start()
        try:
            forward_batch(net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"forward_batch peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_is_the_output_plus_one_workspace_per_thread(self, threads):
        m = 4096
        net = init_network(NetworkArchitecture(10, (32, 9)), 3, 1.0)
        x = normals(6, m, 10)
        ((stack, _),) = stack_nets([net])
        weights = sum(a.nbytes for a in stack.weights + stack.biases)
        # the input, each layer's pre-activations and each hidden layer's
        # activations, counted once where a layer activates in place: as no
        # layer input (10, 32, 9) is padded, one row of floats per layer width
        work = stack.workspace(_ROWS)
        workspace = sum({id(a): a.nbytes for a in (*work.inputs, *work.z)}.values())
        assert workspace == 8 * _ROWS * sum(net.architecture.dims)
        forward_batch(net, x, threads)  # the thread pool's first import is not the sweep's
        tracemalloc.start()
        try:
            forward_batch(net, x, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per thread, also numpy's ufunc buffer, which adding a bias broadcast
        # over the rows takes; 32 KiB for the interpreter's own objects:
        # frames, the pool, its futures
        bound = 8 * (m + threads * np.getbufsize()) + weights + threads * workspace + 2**15
        assert peak <= bound, f"peak {peak / 2**10:.0f} KiB over {bound / 2**10:.0f} KiB"

    @pytest.mark.parametrize("hidden", [(), (1,), (8,), (9, 17)])
    def test_scores_the_stack_that_stack_nets_builds(self, hidden, monkeypatch):
        net = init_network(NetworkArchitecture(10, hidden), 3, 1.0)
        for k, b in enumerate(net.biases):
            b[...] = normals(k, *b.shape)
        stacks = []

        def recording(stack, x, work):
            stacks.append(stack)
            return forward_stacked(stack, x, work)

        monkeypatch.setattr(nnet, "forward_stacked", recording)
        forward_batch(net, normals(9, 5, 10))
        [(expected, positions)] = stack_nets([net])
        [got] = stacks
        assert positions.tolist() == [0]
        assert (got.input_dim, got.activation) == (expected.input_dim, expected.activation)
        assert len(got.weights) == len(expected.weights) and len(got.biases) == len(expected.biases)
        for a, b in zip(got.weights + got.biases, expected.weights + expected.biases):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def normals(seed, *shape):
    return SplitMix64(seed).normal_block(math.prod(shape)).reshape(shape)


def assert_same_bits(a, b):
    bits = lambda v: np.ascontiguousarray(v).view(np.uint64)
    np.testing.assert_array_equal(bits(a), bits(b))


# widths 8n to 8n + 2 need no padding copy, so only the contiguity step reorders them
WIDTHS = st.one_of(st.tuples(st.integers(1, 26), st.integers(0, 2)).map(lambda t: 8 * t[0] + t[1]),
                   st.integers(1, 210))


def test_importing_the_cli_loads_no_thread_pool():
    # only forward_batch(threads > 1) needs concurrent.futures
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, selfieboost.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def random_net(seed, k, hidden):
    """A tanh net with normal weights and biases."""
    arch = NetworkArchitecture(k, hidden)
    dims = arch.dims
    weights = [normals(seed + 2 * i, o, n) for i, (n, o) in enumerate(zip(dims, dims[1:]))]
    biases = [normals(seed + 2 * i + 1, o) for i, o in enumerate(dims[1:])]
    return FeedForwardNet(arch, weights, biases)


def train_forward(net, x):
    """The training kernel's forward pass on the rows ``x``: each hidden
    layer's activations, then the scores."""
    work, scores = _train_workspace(net, len(x)), np.empty((len(x), 1))
    _forward_cached(work, x, scores)
    return [a.copy() for a in work.acts[1:]] + [scores[:, 0]]


def assert_same_layers(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert_same_bits(a, b)


def signed_zeros(a, seed):
    """``a`` with about a fifth of its entries +0 and a fifth -0."""
    u = SplitMix64(seed).uniform_block(a.size).reshape(a.shape)
    return np.where(u < 0.2, 0.0, np.where(u > 0.8, -0.0, a))


class TestKernelContract:
    """The invariances the ``nnet`` docstring guarantees, compared bit for bit
    in the scoring kernel and in the training kernel's forward pass."""

    def test_einsum_sums_a_tail_of_one_or_two_columns_as_a_padded_group(self):
        # the premise of nnet._padded, which pads only widths 8n + 3 to 8n + 7:
        # einsum's contiguous reduction adds 1 or 2 columns after whole groups
        # of 8 where a group padded with zeros would add them.  Entries reach
        # 2**-60 and 2**60, so the order of a sum shows in its bits
        for k in (k for k in range(1, 41) if k % 8 <= 2):
            x = signed_zeros(normals(k, 32, k) * np.exp2(np.rint(20 * normals(k + 50, 32, k))), k + 100)
            w = signed_zeros(normals(k + 150, 2, 4, k), k + 200)
            pad = lambda a: np.concatenate([a, np.zeros((*a.shape[:-1], -k % 8))], axis=-1)
            for spec, a, b in (("bk,ok->bo", x, w[0]), ("bk,jok->bjo", x, w),
                               ("bjk,jok->bjo", x.reshape(16, 2, k), w)):
                assert np.einsum(spec, a, b).tobytes() == np.einsum(spec, pad(a), pad(b)).tobytes(), (
                    f"einsum {spec!r} sums {k} columns in another order than {k} zero-padded to a "
                    "multiple of 8, so nnet._padded must pad this width too")

    @settings(max_examples=30, deadline=None)
    @given(rows=st.integers(1, 12), k=WIDTHS, out=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_row_subsets_at_every_offset_and_stride(self, rows, k, out, seed):
        x, net = normals(seed, rows, k), random_net(seed + 1, k, (out,))
        full = train_forward(net, x)
        scores = forward_batch(net, x)
        assert_same_bits(full[-1], scores)
        for off in range(rows):
            assert forward(net, x[off]) == scores[off]
            for stride in range(1, rows + 1):
                assert_same_layers(train_forward(net, x[off::stride]), [a[off::stride] for a in full])
                assert_same_bits(forward_batch(net, x[off::stride]), scores[off::stride])

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 40), k=WIDTHS, out=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_memory_order_is_irrelevant(self, rows, k, out, seed):
        # the inputs, and the first layer's weights, contiguous, strided and
        # in Fortran order
        x, net = normals(seed, rows, 2 * k), random_net(seed + 1, 2 * k, (out,))
        strided, w_strided = x[:, ::2], net.weights[0][:, ::2]
        nets = [FeedForwardNet(NetworkArchitecture(k, (out,)), [w, net.weights[1]], net.biases)
                for w in (w_strided.copy(), w_strided, np.asfortranarray(w_strided))]
        expected = train_forward(nets[0], strided.copy())
        scores = forward_batch(nets[0], strided.copy())
        for layout in (strided, np.asfortranarray(strided)):
            for strided_net in nets:
                assert_same_layers(train_forward(strided_net, layout), expected)
                assert_same_bits(forward_batch(strided_net, layout), scores)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 40), k=WIDTHS, extra=st.integers(1, 80), out=st.integers(1, 20),
        seed=st.integers(0, 2**32),
    )
    def test_zero_weight_columns_change_nothing(self, rows, k, extra, out, seed):
        x, net = normals(seed, rows, k + extra), random_net(seed + 1, k, (out,))
        ext = FeedForwardNet(
            NetworkArchitecture(k + extra, (out,)),
            [np.hstack([net.weights[0], np.zeros((out, extra))]), net.weights[1]], net.biases,
        )
        assert_same_layers(train_forward(ext, x), train_forward(net, x[:, :k].copy()))
        assert_same_bits(forward_batch(ext, x), forward_batch(net, x[:, :k].copy()))

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 40), k=WIDTHS, out=st.integers(1, 20), extra=st.integers(1, 40),
        seed=st.integers(0, 2**32),
    )
    def test_extra_output_rows_change_nothing(self, rows, k, out, extra, seed):
        # the extra hidden units have zero outgoing weights, so the scores
        # stay as well as the other units
        x, big = normals(seed, rows, k), random_net(seed + 1, k, (out + extra,))
        big.weights[1][:, out:] = 0.0
        small = FeedForwardNet(
            NetworkArchitecture(k, (out,)),
            [big.weights[0][:out].copy(), big.weights[1][:, :out].copy()],
            [big.biases[0][:out].copy(), big.biases[1]],
        )
        (hidden_big, scores_big), (hidden_small, scores_small) = train_forward(big, x), train_forward(small, x)
        assert_same_bits(hidden_big[:, :out], hidden_small)
        assert_same_bits(scores_big, scores_small)
        assert_same_bits(forward_batch(big, x), scores_small)


class TestStackedForward:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 20),
        depth=st.integers(0, 2),
        # widths 3 to 7 activate into a padded buffer, the others in place;
        # 10 and 18 leave two columns after whole groups of 8, which no pad follows
        widths=st.lists(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 17, 18]), min_size=2, max_size=2),
                        min_size=1, max_size=3),
        activation=st.sampled_from(["tanh", "relu"]),
        rows=st.sampled_from([0, 1, 5, _ROWS + 3]),
        layout=st.sampled_from(["C", "F", "strided"]),
        threads=st.integers(1, 3),
        seed=st.integers(0, 2**32),
        dead=st.booleans(),
    )
    # a dead unit feeding a negative output weight: the product is -0, and
    # with a -0 output bias only einsum's +0 start gives the oracle's +0
    @example(d=3, depth=1, widths=[[1, 1]], activation="relu", rows=5, layout="C", threads=1, seed=1, dead=True)
    # 11 input columns, which take pad columns, then hidden 10 and 18 in one
    # stack, which take none
    @example(d=11, depth=1, widths=[[10, 10], [18, 18]], activation="tanh", rows=5, layout="C", threads=1, seed=1,
             dead=False)
    def test_every_path_equals_the_plain_numpy_oracle(self, d, depth, widths, activation, rows, layout, threads,
                                                       seed, dead):
        # the nets of a stack share their depth; widths differ from net to net.
        # Hidden layers 1 or 2 wide feed the next layer by multiply-add, wider
        # ones by the einsum; ``dead`` sets every bias to -0 and zeroes the
        # incoming weights of the first two units of each hidden layer, so
        # those units put out +0 and the next layer sums ±0 products
        nets = []
        for j, hidden in enumerate(widths):
            arch = NetworkArchitecture(d, tuple(hidden[:depth]), activation)
            net = init_network(arch, seed + j, 1.0)
            biases = [normals(seed + 7 * j + i, *b.shape) for i, b in enumerate(net.biases)]
            if dead:
                biases = [np.full(b.shape, -0.0) for b in biases]
                for w in net.weights[:-1]:
                    w[:2] = 0.0
            nets.append(FeedForwardNet(arch, net.weights, biases))
        x = normals(seed ^ 0x5EED, rows, 2 * d)
        x = {"C": np.ascontiguousarray(x[:, :d]), "F": np.asfortranarray(x[:, :d]), "strided": x[:, ::2]}[layout]
        (stack, positions), = stack_nets(nets)
        stacked = forward_stacked(stack, x, stack.workspace(len(x)))
        assert stacked.shape == (rows, len(nets))
        for i, net in enumerate(nets):
            expected = sgd_oracle.scores(net, x)
            assert_same_bits(stacked[:, positions[i]], expected)
            assert_same_bits(forward_batch(net, x, threads), expected)
            for r in sorted({0, rows // 2, rows - 1}) if rows else ():
                assert_same_bits(np.array([forward(net, x[r])]), expected[r : r + 1])

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("widths", [[(2, 3), (1, 2)], [(3, 5), (2, 9)], [(6, 16), (4, 1)]])
    def test_a_shorter_block_on_a_used_workspace_leaves_the_pad_columns_zero(self, widths, activation):
        # the next layer's einsum reads the pad columns as exact zeros; the
        # widths take the row-by-row and the in-place write
        nets = [random_net(3 * j, 6, hidden) for j, hidden in enumerate(widths)]
        nets = [FeedForwardNet(NetworkArchitecture(6, net.architecture.hidden_layers, activation),
                               net.weights, net.biases) for net in nets]
        (stack, positions), = stack_nets(nets)
        work = stack.workspace(40)
        for rows, seed in ((40, 1), (7, 2)):
            x = normals(seed, rows, 6)
            stacked = forward_stacked(stack, x, work)
            for j, net in enumerate(nets):
                assert_same_bits(stacked[:, positions[j]], sgd_oracle.scores(net, x))
        for w, buf in zip(stack.weights, work.inputs[1:]):
            pad = buf[:, :, w.shape[1] :]
            assert pad.tobytes() == bytes(pad.nbytes)

    def test_groups_share_input_width_depth_and_activation(self):
        archs = [(4, (3,), "tanh"), (5, (3,), "tanh"), (4, (3, 3), "tanh"), (4, (3,), "relu"),
                 (4, (12,), "tanh")]
        nets = [init_network(NetworkArchitecture(*arch), seed, 1.0) for seed, arch in enumerate(archs)]
        groups = stack_nets(nets)
        assert [positions.tolist() for _, positions in groups] == [[0, 4], [1], [2], [3]]
        stack = groups[0][0]
        assert [w.shape for w in stack.weights] == [(2, 12, 8), (2, 1, 16)]
        assert stack.row_floats == 2 * 16
        assert stack_nets([init_network(NetworkArchitecture(130), 0, 1.0)])[0][0].row_floats == 130
        with pytest.raises(ShapeError):
            forward_stacked(stack, np.zeros((2, 5)), stack.workspace(2))


class TestWorkspaceLayout:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 20), hidden=st.lists(WIDTHS, max_size=3))
    def test_both_kernels_pad_the_same_columns(self, d, hidden):
        net = init_network(NetworkArchitecture(d, hidden), 0, 1.0)
        ((stack, _),) = stack_nets([net])
        train, score = _train_workspace(net, 3), stack.workspace(3)
        dims = net.architecture.dims
        for i, k in enumerate(dims[:-1]):
            assert train.inputs[i].shape[1] == score.inputs[i].shape[-1] == _padded(k)
        for i, h in enumerate(hidden):
            in_place = np.shares_memory(train.z[i], train.inputs[i + 1])
            assert in_place == np.shares_memory(score.z[i], score.inputs[i + 1]) == (_padded(h) == h)

    def test_the_training_workspace_holds_each_layer_input_once(self):
        # per batch row, the floats of the padded layer inputs and nothing
        # more: every hidden layer here activates in place
        batch = 32
        work = _train_workspace(init_network(NetworkArchitecture(10, (32, 9)), 0, 1.0), batch)
        rows = {id(a): a for a in owners(tuple(work)) if a.ndim == 2 and a.shape[0] == batch}
        assert sum(a.nbytes for a in rows.values()) == 8 * batch * (10 + 32 + 9)
        # 20 units take 4 pad columns, so their pre-activations keep a buffer
        work = _train_workspace(init_network(NetworkArchitecture(10, (20,)), 0, 1.0), batch)
        separate = [z for z, a in zip(work.z, work.inputs[1:]) if not np.shares_memory(z, a)]
        assert [z.shape for z in separate] == [(batch, 20)] and work.inputs[1].shape == (batch, 24)


def owners(value):
    """The arrays that own the memory of the arrays in ``value``'s nested
    tuples and lists."""
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in owners(v)]
    return [value if value.base is None else value.base] if isinstance(value, np.ndarray) else []


class TestBackprop:
    def test_zero_upstream_leaves_buffer(self):
        net = init_network(NetworkArchitecture(4, (3,)), 1, 1.0)
        weight_grads, bias_grads = backprop_batch(net, np.ones((1, 4)), np.array([0.0]))
        assert all(np.all(g == 0.0) for g in weight_grads + bias_grads)

    def test_linear_gradients_are_input_and_one(self):
        net = make_linear([0.3, -0.7, 2.0], 0.1)
        x = np.array([1.5, -2.0, 0.25])
        weight_grads, bias_grads = backprop_batch(net, x[None, :], np.array([1.0]))
        np.testing.assert_array_equal(weight_grads[0][0], x)
        assert bias_grads[0][0] == 1.0

    def test_accumulates_across_calls(self):
        # the gradient of a batch is the sum over its rows
        net = make_linear([1.0, 1.0], 0.0)
        x = np.array([2.0, 3.0])
        weight_grads, _ = backprop_batch(net, np.stack([x, x]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(weight_grads[0][0], 2 * x)

    def test_upstream_scales_gradient(self):
        net = make_linear([1.0], 0.0)
        weight_grads, _ = backprop_batch(net, np.array([[4.0]]), np.array([-0.5]))
        assert weight_grads[0][0, 0] == -2.0

    def test_relu_subgradient_at_zero_is_zero(self):
        # x = 0 makes every hidden pre-activation exactly 0
        net = init_network(NetworkArchitecture(2, (4,), "relu"), 3, 1.0)
        weight_grads, bias_grads = backprop_batch(net, np.zeros((1, 2)), np.array([1.0]))
        assert np.all(weight_grads[0] == 0.0)
        assert np.all(bias_grads[0] == 0.0)
        assert bias_grads[1][0] == 1.0  # output bias gradient unaffected


class TestGradCheck:
    def test_zero_tanh_net(self):
        net = init_network(NetworkArchitecture(3, (4,)), 0, 0.0)
        assert grad_check(net, np.array([0.5, -1.0, 2.0]), 1e-4) <= 1e-6

    def test_linear_net_is_exact(self):
        net = make_linear([1.25, -0.5], 0.75)
        assert grad_check(net, np.array([0.5, 2.0]), 1e-4) <= 1e-10

    # two hidden layers make backprop read a derivative below the first one;
    # layers wider than their input take the transposed weight gradient, and
    # the layer after a one-unit layer reads an unpadded one-column buffer
    @pytest.mark.parametrize("hidden", [(8,), (7, 4), (1,), (4, 1, 3)], ids=["8", "7-4", "1", "4-1-3"])
    def test_random_tanh_net(self, hidden):
        net = init_network(NetworkArchitecture(5, hidden), 123, 1.0)
        x = SplitMix64(77).normal_block(5)
        assert grad_check(net, x, 1e-4) <= 1e-6

    @pytest.mark.parametrize("hidden", [(10,), (7, 4), (1,), (4, 1, 3)], ids=["10", "7-4", "1", "4-1-3"])
    def test_random_relu_net(self, hidden):
        net = init_network(NetworkArchitecture(6, hidden, "relu"), 9, 1.0)
        x = SplitMix64(13).normal_block(6)
        assert grad_check(net, x, 1e-4) <= 1e-6

    # one feature: the input is an unpadded one-column buffer in the backward pass
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_one_feature_net(self, activation):
        net = init_network(NetworkArchitecture(1, (4, 1), activation), 5, 1.0)
        assert grad_check(net, np.array([0.75]), 1e-4) <= 1e-6

    def test_a_kink_within_eps_is_skipped(self):
        # the hidden bias's -eps perturbation turns the one relu unit off, so
        # its finite difference is no derivative
        arch = NetworkArchitecture(1, (1,), "relu")
        net = FeedForwardNet(arch, [np.array([[1.0]]), np.array([[2.0]])], [np.array([5e-5]), np.array([0.0])])
        assert grad_check(net, np.array([0.0]), 1e-4) <= 1e-6

    def test_eps_must_be_positive(self):
        net = make_linear([1.0], 0.0)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                grad_check(net, np.array([1.0]), eps)

    def test_read_only_member_of_an_ensemble(self):
        # the perturbations go to the kernel's copy of the parameters
        net = init_network(NetworkArchitecture(4, (5,)), 2, 1.0)
        x = SplitMix64(3).normal_block(4)
        member = EnsembleModel((net.copy(),), (1.0,)).members[0]
        before = [p.tobytes() for p in member.weights + member.biases]
        assert grad_check(member, x, 1e-4) == grad_check(net, x, 1e-4)
        assert [p.tobytes() for p in member.weights + member.biases] == before


def zero_grads(net):
    return [np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases]


class TestSgdStep:
    def test_zero_gradient_is_noop(self):
        net = init_network(NetworkArchitecture(3, (2,)), 4, 1.0)
        before = [w.copy() for w in net.weights]
        sgd_step(net, zero_grads(net), 0.1)
        for w, orig in zip(net.weights, before):
            np.testing.assert_array_equal(w, orig)

    def test_single_parameter_update(self):
        net = make_linear([2.0], 0.0)
        grads = zero_grads(net)
        grads[0][0][0, 0] = 0.5
        sgd_step(net, grads, 1.0)
        assert net.weights[0][0, 0] == 1.5
        assert grads[0][0][0, 0] == 0.5  # gradients left as they were

    def test_two_half_steps_equal_one_summed_step(self):
        # dyadic values keep the arithmetic exact
        a = make_linear([2.0], 1.0)
        b = make_linear([2.0], 1.0)
        g1, g2 = (0.5, 0.125), (0.25, 0.0625)  # (weight grad, bias grad)

        def grads(weight_grad, bias_grad):
            return [np.array([[weight_grad]])], [np.array([bias_grad])]

        sgd_step(a, grads(*g1), 0.5)
        sgd_step(a, grads(*g2), 0.5)
        sgd_step(b, grads((g1[0] + g2[0]) / 2, (g1[1] + g2[1]) / 2), 1.0)

        assert a.weights[0][0, 0] == b.weights[0][0, 0]
        assert a.biases[0][0] == b.biases[0][0]

    def test_rejects_nonpositive_lr(self):
        net = make_linear([1.0], 0.0)
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sgd_step(net, zero_grads(net), lr)
        assert net.weights[0][0, 0] == 1.0 and net.biases[0][0] == 0.0


class TestWiden:
    def test_function_preserved_bitwise(self):
        net = init_network(NetworkArchitecture(10, (32,)), 7, 1.0)
        wide = widen(net, 8, seed=99)
        X = SplitMix64(5).normal_block(1000 * 10).reshape(1000, 10)
        np.testing.assert_array_equal(forward_batch(net, X), forward_batch(wide, X))

    def test_param_count_growth(self):
        net = init_network(NetworkArchitecture(10, (32,)), 7, 1.0)
        wide = widen(net, 8, seed=99)
        fan_in = 10
        assert wide.param_count - net.param_count == 8 * (fan_in + 1) + 8
        assert wide.architecture.hidden_layers == (40,)

    def test_widen_twice_different_seeds(self):
        net = init_network(NetworkArchitecture(4, (6,)), 1, 1.0)
        wide = widen(widen(net, 3, seed=10), 5, seed=20)
        X = SplitMix64(2).normal_block(200 * 4).reshape(200, 4)
        np.testing.assert_array_equal(forward_batch(net, X), forward_batch(wide, X))
        assert wide.architecture.hidden_layers == (14,)

    def test_deep_net_widens_last_hidden(self):
        net = init_network(NetworkArchitecture(3, (5, 7)), 2, 1.0)
        wide = widen(net, 4, seed=3)
        assert wide.architecture.hidden_layers == (5, 11)
        X = SplitMix64(6).normal_block(100 * 3).reshape(100, 3)
        np.testing.assert_array_equal(forward_batch(net, X), forward_batch(wide, X))

    def test_requires_hidden_layer(self):
        net = make_linear([1.0, 2.0], 0.0)
        with pytest.raises(UnsupportedArchitectureError):
            widen(net, 2, seed=0)
        with pytest.raises(ValueError, match="extra_units"):
            widen(init_network(NetworkArchitecture(2, (3,)), 0, 1.0), 0, seed=0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("width", [1, 2, 9, 10])
    def test_widening_across_the_multiply_add_boundary_keeps_the_bits(self, width, activation):
        # an output layer reading 1 or 2 hidden units is scored by multiply-add,
        # one reading 3 by the einsum; 9 to 10 keeps the einsum's input
        # unpadded and 10 to 11 pads it to 16 columns.  The first unit is dead
        # (zero incoming weights, -0 biases) and every output weight negative,
        # so the output sums a -0 product
        net = init_network(NetworkArchitecture(3, (width,), activation), 5, 1.0)
        net.weights[0][0] = 0.0
        net.weights[1][...] = -np.abs(net.weights[1])
        for b in net.biases:
            b[...] = -0.0
        wide = widen(net, 1, seed=6)
        assert wide.architecture.hidden_layers == (width + 1,)
        X = normals(7, 100, 3)
        expected = sgd_oracle.scores(net, X)
        assert_same_bits(forward_batch(net, X), expected)
        assert_same_bits(forward_batch(wide, X), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(1, 70),
        extra=st.integers(1, 70),
        seed=st.integers(0, 2**32),
    )
    def test_function_preserved_for_arbitrary_widths(self, width, extra, seed):
        net = init_network(NetworkArchitecture(3, (width,)), seed, 1.0)
        wide = widen(net, extra, seed=seed + 1)
        X = SplitMix64(seed ^ 0xABCDEF).normal_block(60 * 3).reshape(60, 3)
        np.testing.assert_array_equal(forward_batch(net, X), forward_batch(wide, X))


class TestModelIO:
    def test_write_json_bytes_equal_json_dump(self, tmp_path):
        net = init_network(NetworkArchitecture(4, (3,)), 2, 1.0)
        # a subnormal, a negative zero, a large and an integer-valued float
        net.weights[0][0, :] = [5e-324, -0.0, 1e308, 3.0]
        net.biases[-1][0] = -2.0
        obj = {"format_version": 1, "alphas": [1.0, 0.25], "members": [net_to_dict(net)] * 2}
        path = tmp_path / "model.json"
        write_json(obj, path)
        with open(tmp_path / "dumped.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(obj, fh)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
        assert b"5e-324, -0.0, 1e+308, 3.0" in path.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network(NetworkArchitecture(6, (5, 4), "relu"), 11, 1.0)
        path = tmp_path / "model.json"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.architecture == net.architecture
        for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_truncated_file_is_parse_error(self, tmp_path):
        net = init_network(NetworkArchitecture(3, (2,)), 0, 1.0)
        path = tmp_path / "model.json"
        save_model(net, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_version_is_version_error(self, tmp_path):
        net = init_network(NetworkArchitecture(3, (2,)), 0, 1.0)
        path = tmp_path / "model.json"
        save_model(net, path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_missing_field_names_it(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1, "activation": "tanh", "dims": [2, 1]}')
        with pytest.raises(ModelFormatError, match="layers"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            '{"format_version": 1, "activation": "tanh", "dims": [2, 1],'
            ' "layers": [{"w": [[1.0, 2.0, 3.0]], "b": [0.0]}]}'
        )
        with pytest.raises(ModelFormatError, match="layer 0"):
            load_model(path)
