"""Minimal feed-forward scalar-output networks with exact manual backprop.

Weights are per-layer ``(fan_out, fan_in)`` float64 matrices.  Every affine
layer is one einsum over C-contiguous operands, zero-padded to a multiple of
8 columns unless whole groups of 8 leave at most 2 over (:func:`_padded`), or
a multiply-add with its bits (below), which makes three invariances hold bit
for bit (``tests/test_nnet.py`` checks each): a row scores the same alone as
in any batch, at any offset, stride or memory order, so :func:`forward_batch`
equals looped :func:`forward` at any thread count; zero-weight inputs
appended by :func:`widen` change no output; appended output units leave the
others as they were.  By the last two, :func:`forward_stacked`, the one
scoring kernel (:func:`forward_batch` runs it on a stack of one), scores nets
with one einsum per layer and gives each the bits it has alone.  A layer
after the first that reads one or two inputs is a multiply-add there
instead: at most two products round once in any order, and the einsum's
other products are exact zeros.  Only a zero's sign could differ, since
einsum's sum starts at +0 and never gives -0, so :func:`stack_nets` stores
each bias as ``b + 0.0`` (a -0 bias as +0), which changes no einsum sum.
The SGD loop, :func:`backprop_batch` and :func:`grad_check` run the one
training kernel, :func:`_forward_cached` and :func:`_backprop_core`.  Both
kernels' workspaces hold per layer a zero-padded input buffer, ``inputs``,
and a pre-activation buffer, ``z``: the next input buffer where that has no
pad columns, so the layer activates in place.  Bit equality across CPU
architectures or numpy builds is not claimed.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ModelFormatError,
    ModelVersionError,
    NumericError,
    ShapeError,
    UnsupportedArchitectureError,
)
from .sampling import SplitMix64

# name -> (activation, its derivative written in terms of the activation);
# the relu subgradient at exactly 0 is fixed to 0
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z, **kw: np.maximum(z, 0.0, **kw), lambda a: np.where(a > 0.0, 1.0, 0.0)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)
MODEL_FORMAT_VERSION = 1

# On a contiguous ``k`` run, einsum's reduction loop sums fixed groups of 8,
# each pair by pair into two lanes and last pair first, then the tail pair by
# pair, first pair first.  A tail of 1 or 2 columns puts at most one term in
# each lane, where a zero-padded group would add it; a tail of 3 to 7 is
# padded to a whole group (_padded), so appended zero columns only add groups
# of exact zeros.  Strided or Fortran-ordered operands take another loop,
# hence the copy to C order.  Sweeps score ``_ROWS``-row blocks over one
# workspace per thread.
_ROWS = 1024


def _padded(k: int) -> int:
    """Columns of a layer input ``k`` wide: ``k`` padded to a multiple of 8,
    unless whole groups of 8 leave at most 2 over."""
    return k if k % 8 <= 2 else k + -k % 8


Workspace = namedtuple("Workspace", "inputs z")


def _workspace(rows: int, inputs, z) -> Workspace:
    """A ``Workspace`` of ``rows`` rows by row shapes, the hidden layers' inputs first."""
    hidden = [np.zeros((rows, *shape)) for shape in inputs[1:]]
    z = [a if a is not None and a.shape[1:] == shape else np.empty((rows, *shape))
         for a, shape in zip([*hidden, None], z)]
    return Workspace([np.zeros((rows, *inputs[0])), *hidden], z)


@dataclass(frozen=True)
class NetworkArchitecture:
    """Shape of a scalar-output net: input width, hidden widths, activation."""

    input_dim: int
    hidden_layers: tuple[int, ...] = ()
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError(f"hidden widths must be >= 1, got {self.hidden_layers}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def dims(self) -> tuple[int, ...]:
        """Layer widths from input to the single linear output unit."""
        return (self.input_dim, *self.hidden_layers, 1)

    @property
    def param_count(self) -> int:
        d = self.dims
        return sum((d[i] + 1) * d[i + 1] for i in range(len(d) - 1))


@dataclass
class FeedForwardNet:
    """Parameters of a network; shapes always match ``architecture.dims``."""

    architecture: NetworkArchitecture
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        dims = self.architecture.dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ShapeError("layer count does not match architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]) or b.shape != (dims[i + 1],):
                raise ShapeError(
                    f"layer {i}: expected {(dims[i + 1], dims[i])} / {(dims[i + 1],)}, "
                    f"got {w.shape} / {b.shape}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise NumericError(f"layer {i} has non-finite parameters")

    def copy(self) -> "FeedForwardNet":
        return FeedForwardNet(
            architecture=self.architecture,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def init_network(arch: NetworkArchitecture, seed: int, scale: float) -> FeedForwardNet:
    """Seeded init: weights uniform in ``±scale/sqrt(fan_in)``, biases zero.

    ``scale=0`` gives the zero function: the net drawn at scale 1 with its
    output weights +0.0, not the all-zero net, a saddle at which no gradient
    reaches a weight.  Identical arguments give bit-identical parameters.
    """
    if not 0 <= scale < math.inf:  # also rejects nan
        raise ValueError(f"scale must be a finite number >= 0, got {scale}")
    dims = arch.dims
    rng = SplitMix64(seed)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        u = rng.uniform_block(fan_out * fan_in).reshape(fan_out, fan_in)
        w = (2.0 * u - 1.0) * ((scale or 1.0) / math.sqrt(fan_in))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    if scale == 0.0:
        weights[-1][...] = 0.0
    return FeedForwardNet(architecture=arch, weights=weights, biases=biases)


def _check_batch(input_dim: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ShapeError(f"expected inputs of shape (m, {input_dim}), got {x.shape}")
    return x


def forward_batch(net: FeedForwardNet, x: np.ndarray, threads: int = 1) -> np.ndarray:
    """Scores for every row of ``x``; row ``i`` equals ``forward(net, x[i])`` exactly.

    :func:`forward_stacked` scores the net as a one-member stack in
    ``_ROWS``-row blocks; thread ``t`` of ``threads`` scores blocks ``t, t +
    threads, ...`` over a workspace of its own, so no output depends on it.
    If a thread cannot start, the calling thread scores every block.
    """
    x = _check_batch(net.architecture.input_dim, x)
    ((stack, _),) = stack_nets([net])
    scores = np.empty(x.shape[0])
    starts = range(0, x.shape[0], _ROWS)
    workers = max(1, min(threads, len(starts)))

    def score(t: int) -> None:
        work = stack.workspace(min(_ROWS, x.shape[0]))
        for k in starts[t::workers]:
            scores[k : k + _ROWS] = forward_stacked(stack, x[k : k + _ROWS], work)[:, 0]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here: no other path needs threads

        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(score, range(workers)))
            return scores
        except RuntimeError:  # "can't start new thread"; the threads that did start have finished
            workers = 1
    score(0)
    return scores


def forward(net: FeedForwardNet, x: np.ndarray) -> float:
    """Scalar score for one input vector: a one-row :func:`forward_batch`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != net.architecture.input_dim:
        raise ShapeError(f"expected input of shape ({net.architecture.input_dim},), got {x.shape}")
    return float(forward_batch(net, x[None, :])[0])


@dataclass(frozen=True)
class NetStack:
    """Nets of one input width, depth and activation, layer by layer: weights
    ``(members, out, in)`` and biases ``(members, out)``, zero-padded to the
    widest member and ``in`` further as :func:`_padded` pads it."""

    input_dim: int
    activation: str
    weights: tuple[np.ndarray, ...] = field(repr=False)
    biases: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def row_floats(self) -> int:
        """Floats per row of the widest buffer of a :meth:`workspace`."""
        members, _, input_floats = self.weights[0].shape
        return max(input_floats, members * max((w.shape[2] for w in self.weights[1:]), default=1))

    def workspace(self, rows: int) -> Workspace:
        """:func:`forward_stacked`'s :func:`_workspace` for up to ``rows`` rows."""
        w = self.weights
        return _workspace(rows, [w[0].shape[2:], *(v.shape[::2] for v in w[1:])], [v.shape[:2] for v in w])


def stack_nets(nets) -> list[tuple[NetStack, np.ndarray]]:
    """``nets`` as :class:`NetStack` groups of one input width, depth and
    activation, in order of first appearance, each with its nets' positions."""
    groups: dict[tuple, list[int]] = {}
    for j, net in enumerate(nets):
        arch = net.architecture
        groups.setdefault((arch.input_dim, len(net.weights), arch.activation), []).append(j)
    stacks = []
    for (input_dim, layers, activation), positions in groups.items():
        members = [nets[j] for j in positions]
        weights, biases = [], []
        for i in range(layers):
            out = max(net.weights[i].shape[0] for net in members)
            fan_in = max(net.weights[i].shape[1] for net in members)
            w, b = np.zeros((len(members), out, _padded(fan_in))), np.zeros((len(members), out))
            for j, net in enumerate(members):
                o, k = net.weights[i].shape
                w[j, :o, :k], b[j, :o] = net.weights[i], net.biases[i] + 0.0  # -0 as +0
            weights.append(w)
            biases.append(b)
        stacks.append((NetStack(input_dim, activation, tuple(weights), tuple(biases)), np.array(positions)))
    return stacks


def forward_stacked(stack: NetStack, x: np.ndarray, work: Workspace) -> np.ndarray:
    """Scores of every stacked net for every row of ``x``, shape ``(rows, members)``.

    The one scoring kernel.  ``x`` is copied into ``work.inputs[0]``, ``work``
    a :meth:`NetStack.workspace` of at least ``len(x)`` rows; each layer is
    one einsum into its ``z``, the bias added in place, and the activation
    written into the next input's real columns.  Each member's contraction is
    its own contiguous run, padded as :func:`_padded` pads it alone, then
    exact zeros, so column ``j`` has the bits of net ``j`` alone.  A layer
    after the first whose stacked input is 1 or 2 columns wide is instead one
    ``np.multiply`` of input column 0 by weight column 0, plus column 1's
    product for width 2, then the bias: the einsum's only nonzero products,
    summed with one rounding, and a -0 sum plus a bias that is not -0
    (:func:`stack_nets` stores none) is not -0.  The layers run under
    ``np.errstate(all="ignore")``, set here since numpy's mode is per thread,
    so an overflow is as silent at every width and in every thread as the
    einsum's.  Returns a view into ``work``.
    """
    x, rows = _check_batch(stack.input_dim, x), len(x)
    inputs, z = work.inputs, work.z
    inputs[0][:rows, : stack.input_dim] = x
    activate = _ACTIVATIONS[stack.activation][0]
    act, spec, last = inputs[0][:rows], "bk,jok->bjo", len(inputs) - 1
    with np.errstate(all="ignore"):
        for i, (w, b) in enumerate(zip(stack.weights, stack.biases)):
            out = z[i][:rows]
            if i and h <= 2:  # h: the previous layer's width
                np.multiply(act[:, :, 0, None], w[:, :, 0], out=out)
                if h == 2:
                    out += act[:, :, 1, None] * w[:, :, 1]
            else:
                np.einsum(spec, act, w, out=out)
            out += b
            if i < last:
                h = w.shape[1]
                activate(out, out=inputs[i + 1][:rows, :, :h])
                act, spec = inputs[i + 1][:rows], "bjk,jok->bjo"
    return out[:, :, 0]


Gradients = tuple[list[np.ndarray], list[np.ndarray]]  # (weight grads, bias grads) per layer


def _flat_params(dims: tuple[int, ...]):
    """A zeroed flat vector for the parameters of a net of layer widths ``dims``,
    weights ``(out, in)`` with ``in`` zero-padded by :func:`_padded`, then biases;
    and its views: the padded weights, and the real columns and the biases."""
    shapes = [(o, _padded(k)) for k, o in zip(dims, dims[1:])] + [(o,) for o in dims[1:]]
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes))
    views = [v.reshape(shape) for v, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    weights = views[: len(dims) - 1]
    return flat, weights, [w[:, :k] for w, k in zip(weights, dims)] + views[len(weights) :]


# The training kernel's state: ``theta`` and ``grad`` laid out by _flat_params,
# their views ``params`` and ``grads`` shaped like ``net.weights + net.biases``,
# the padded ``weights``, a _workspace's ``inputs`` and ``z``, the inputs' real
# columns ``acts``, _backprop_core's ``wide``, the activation and derivative.
TrainWorkspace = namedtuple("TrainWorkspace",
                            "theta grad params grads weights inputs acts z wide activate derivative")


def _train_workspace(net: FeedForwardNet, batch: int) -> TrainWorkspace:
    """A ``TrainWorkspace`` for ``batch``-row batches, ``theta`` set to ``net``'s
    parameters; pad columns stay zero in ``inputs``, ``theta`` and ``grad``."""
    dims = net.architecture.dims
    theta, weights, params = _flat_params(dims)
    grad, _, grads = _flat_params(dims)
    for p, q in zip(params, net.weights + net.biases):
        p[...] = q
    wide = [np.empty((k, o)) if o > k else None for k, o in zip(dims, dims[1:])]
    inputs, z = _workspace(batch, [(_padded(k),) for k in dims[:-1]], [(o,) for o in dims[1:-1]])
    # an unpadded input is its own ``acts``, so that activating in place
    # passes numpy one array, not a view whose overlap it checks per call
    acts = [buf if buf.shape[1] == k else buf[:, :k] for buf, k in zip(inputs, dims)]
    return TrainWorkspace(theta, grad, params, grads, weights, inputs, acts, z, wide,
                          *_ACTIVATIONS[net.architecture.activation])


def _forward_cached(work: TrainWorkspace, x: np.ndarray, out: np.ndarray) -> None:
    """Scores of the rows ``x`` into ``out``, shape ``(rows, 1)``; the layer inputs stay in ``work``."""
    inputs, acts, z, activate = work.inputs, work.acts, work.z, work.activate
    acts[0][...] = x
    last = len(z)
    for i, (w, b) in enumerate(zip(work.weights, work.params[last + 1 :])):
        o = out if i == last else z[i]
        np.einsum("bk,ok->bo", inputs[i], w, out=o)
        o += b
        if i < last:
            activate(o, out=acts[i + 1])


def _backprop_core(work: TrainWorkspace, delta: np.ndarray) -> None:
    """``work.grad`` of ``sum_i delta[i, 0] * score(x_i)`` after
    :func:`_forward_cached` on the rows ``x``, read as the real columns of
    each layer's padded input.  Two departures from one plain einsum per
    gradient and per ``delta`` keep their bits:

    - A layer with more outputs than inputs sums its weight gradient as
      ``"mo,mh->ho"`` into an ``(in, out)`` buffer, copied transposed, so
      einsum's inner loop runs along the wider axis.  The batch index stays
      the outer loop: each element is still summed row by row.
    - The one-unit output layer sends ``delta`` back as ``delta * w``, where
      einsum's one-term sum turns a -0 into +0.  That sign could reach
      ``theta`` only as ``t - lr * (±0)`` at ``t = -0``, and no ``t`` is -0:
      init and widening make none, and ``t - lr * g`` makes one only from -0.
    """
    acts, params, grads, wide, derivative = work.acts, work.params, work.grads, work.wide, work.derivative
    layers = len(wide)
    for i in range(layers - 1, -1, -1):
        a = acts[i]
        if wide[i] is None:
            np.einsum("mo,mh->oh", delta, a, out=grads[i])
        else:
            grads[i][...] = np.einsum("mo,mh->ho", delta, a, out=wide[i]).T
        np.add.reduce(delta, axis=0, out=grads[layers + i])
        if i:
            back = np.einsum("mo,oh->mh", delta, params[i]) if i < layers - 1 else delta * params[i]
            delta = back * derivative(a)


def backprop_batch(net: FeedForwardNet, x: np.ndarray, upstream: np.ndarray) -> Gradients:
    """Gradients of ``sum_i upstream[i] * score(x_i)`` wrt every parameter,
    from one step of the training kernel; views into its ``grad``."""
    x = _check_batch(net.architecture.input_dim, x)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (x.shape[0],):
        raise ShapeError(f"upstream must have shape ({x.shape[0]},), got {upstream.shape}")
    work = _train_workspace(net, len(x))
    _forward_cached(work, x, np.empty((len(x), 1)))
    _backprop_core(work, upstream[:, None])
    layers = len(net.weights)
    return work.grads[:layers], work.grads[layers:]


def sgd_step(net: FeedForwardNet, grads: Gradients, lr: float) -> None:
    """``theta -= lr * grad`` for every parameter; ``grads`` is left as it is."""
    if not 0 < lr < math.inf:  # also rejects nan
        raise ValueError(f"lr must be a finite number > 0, got {lr}")
    weight_grads, bias_grads = grads
    for p, g in zip(net.weights + net.biases, weight_grads + bias_grads):
        p -= lr * g


def widen(net: FeedForwardNet, extra_units: int, seed: int) -> FeedForwardNet:
    """Append ``extra_units`` units to the last hidden layer, preserving the function.

    Incoming weights of the new units are seeded uniform with the unit init
    rule (``±1/sqrt(fan_in)``); their outgoing weights are exactly zero, so
    every output is unchanged bit for bit.
    """
    if extra_units < 1:
        raise ValueError("extra_units must be >= 1")
    arch = net.architecture
    if not arch.hidden_layers:
        raise UnsupportedArchitectureError("cannot widen a network with no hidden layer")
    hidden = list(arch.hidden_layers)
    last = len(hidden) - 1
    fan_in = arch.dims[last]  # input width of the last hidden layer
    new_arch = NetworkArchitecture(arch.input_dim, (*hidden[:-1], hidden[-1] + extra_units), arch.activation)

    rng = SplitMix64(seed)
    u = rng.uniform_block(extra_units * fan_in).reshape(extra_units, fan_in)
    new_rows = (2.0 * u - 1.0) / math.sqrt(fan_in)

    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    weights[last] = np.vstack([weights[last], new_rows])
    biases[last] = np.concatenate([biases[last], np.zeros(extra_units)])
    out = last + 1
    weights[out] = np.hstack([weights[out], np.zeros((weights[out].shape[0], extra_units))])
    return FeedForwardNet(architecture=new_arch, weights=weights, biases=biases)


def grad_check(net: FeedForwardNet, x: np.ndarray, eps: float) -> float:
    """Max relative error between the training kernel's backward pass and
    central finite differences of its forward pass, at one input.

    Relative error is ``|a - n| / max(1e-8, |a| + |n|)``.  The perturbations
    go to the kernel's own copy of the parameters, never to ``net``.  For
    relu nets, parameters whose perturbation switches any hidden unit on or
    off are skipped: the kink makes the finite difference meaningless there.
    """
    if not 0 < eps < math.inf:  # also rejects nan
        raise ValueError(f"eps must be a finite number > 0, got {eps}")
    xb = _check_batch(net.architecture.input_dim, np.asarray(x, dtype=np.float64)[None])  # or ShapeError
    work, score = _train_workspace(net, 1), np.empty((1, 1))
    _forward_cached(work, xb, score)
    _backprop_core(work, np.ones((1, 1)))
    hidden = work.acts[1:] if net.architecture.activation == "relu" else []
    worst = 0.0
    for p, grads in zip(work.params, work.grads):
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + eps
            _forward_cached(work, xb, score)
            plus, on = score[0, 0], [h > 0.0 for h in hidden]
            p[idx] = orig - eps
            _forward_cached(work, xb, score)
            p[idx] = orig
            if any(np.any(o != (h > 0.0)) for o, h in zip(on, hidden)):
                continue
            numeric = (plus - score[0, 0]) / (2.0 * eps)
            a = float(grads[idx])
            worst = max(worst, abs(a - numeric) / max(1e-8, abs(a) + abs(numeric)))
    return worst


def net_to_dict(net: FeedForwardNet) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "activation": net.architecture.activation,
        "dims": list(net.architecture.dims),
        "layers": [
            {"w": w.tolist(), "b": b.tolist()} for w, b in zip(net.weights, net.biases)
        ],
    }


def _json_numbers(value) -> bool:
    """Whether ``value`` is a JSON number or nested lists of them; a string
    or a bool is never a number, although numpy would convert both.
    Iterative, so no nesting depth that the JSON parser accepts overflows it."""
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack.extend(v)
        elif type(v) is not float and type(v) is not int:
            return False
    return True


def net_from_dict(obj: dict) -> FeedForwardNet:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"model must be a JSON object, got {type(obj).__name__}")
    version = obj.get("format_version")
    if isinstance(version, bool) or version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(f"unsupported format_version {version!r}, expected {MODEL_FORMAT_VERSION}")
    for key in ("activation", "dims", "layers"):
        if key not in obj:
            raise ModelFormatError(f"missing field {key!r}")
    dims = obj["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) < 2
        or dims[-1] != 1
        or any(type(d) is not int or d < 1 for d in dims)
    ):
        raise ModelFormatError(f"bad field 'dims': {dims!r}")
    try:
        arch = NetworkArchitecture(dims[0], tuple(dims[1:-1]), obj["activation"])
    except ValueError as exc:
        raise ModelFormatError(f"bad architecture: {exc}") from exc
    layers = obj["layers"]
    if not isinstance(layers, list) or len(layers) != len(dims) - 1:
        raise ModelFormatError(f"field 'layers' must hold {len(dims) - 1} entries")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict) or "w" not in layer or "b" not in layer:
            raise ModelFormatError(f"layer {i} must be an object with fields 'w' and 'b'")
        if not (_json_numbers(layer["w"]) and _json_numbers(layer["b"])):
            raise ModelFormatError(f"layer {i}: entries must be JSON numbers")
        try:
            w = np.asarray(layer["w"], dtype=np.float64)
            b = np.asarray(layer["b"], dtype=np.float64)
        except (ValueError, OverflowError) as exc:  # ragged lists, integers beyond float64
            raise ModelFormatError(f"layer {i}: non-numeric entries ({exc})") from exc
        weights.append(w)
        biases.append(b)
    try:
        return FeedForwardNet(architecture=arch, weights=weights, biases=biases)
    except (ShapeError, NumericError) as exc:
        raise ModelFormatError(str(exc)) from exc


def save_model(net: FeedForwardNet, path) -> None:
    """Write the model JSON."""
    write_json(net_to_dict(net), path)


def write_json(obj, path) -> None:
    """Write a model or ensemble file; floats keep full round-trip precision.
    One ``json.dumps`` call, which runs the C encoder (``json.dump`` streams
    through the pure-Python one), gives the same bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj) + "\n")


def read_json(path, error=ModelFormatError):
    """Parse a model, ensemble or config file; bad UTF-8 or JSON raises ``error`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise error(f"{path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise error(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise error(f"{path}: JSON nested too deeply to parse") from exc


def load_model(path) -> FeedForwardNet:
    return net_from_dict(read_json(path))
