"""One forward pass and SGD step in plain numpy, sharing no code with
``selfieboost``: the arithmetic that the training kernel
(``nnet._forward_cached`` and ``nnet._backprop_core`` over a flat, padded
workspace) must match bit for bit, and whose scores the scoring kernel must
match too.

Per layer the forward pass is one ``"bk,ok->bo"`` einsum of the input and the
weights, each in C order and zero-padded to a multiple of 8 columns, plus the
bias.  The backward pass takes ``"mo,mh->oh"`` for the weight gradients and
``"mo,oh->mh"`` to send ``delta`` back, on the unpadded activations, and the
step is ``p -= lr * g`` per parameter array."""

import numpy as np

# activation, and its derivative written in terms of the activation
ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: np.where(a > 0.0, 1.0, 0.0)),
}


def pad8(a):
    """A C-ordered copy of ``a`` with its last axis zero-padded to a multiple of 8."""
    a = np.asarray(a, dtype=np.float64)
    out = np.zeros((*a.shape[:-1], a.shape[-1] + -a.shape[-1] % 8))
    out[..., : a.shape[-1]] = a
    return out


def forward_cached(net, x):
    """Every layer's activations on the rows ``x``: the input first, the
    ``(rows, 1)`` scores last."""
    activate = ACTIVATIONS[net.architecture.activation][0]
    acts = [np.asarray(x, dtype=np.float64)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = np.einsum("bk,ok->bo", pad8(acts[-1]), pad8(w)) + b
        acts.append(z if i == len(net.weights) - 1 else activate(z))
    return acts


def scores(net, x):
    return forward_cached(net, x)[-1][:, 0]


def step(net, acts, upstream, lr):
    """One update of ``net`` in place down the gradient of ``sum_i upstream[i]
    * score(x_i)``, from the activations :func:`forward_cached` gave."""
    derivative = ACTIVATIONS[net.architecture.activation][1]
    grads = []
    delta = np.asarray(upstream, dtype=np.float64)[:, None]
    for i in range(len(net.weights) - 1, -1, -1):
        grads.append((net.weights[i], np.einsum("mo,mh->oh", delta, acts[i])))
        grads.append((net.biases[i], delta.sum(axis=0)))
        if i:
            delta = np.einsum("mo,oh->mh", delta, net.weights[i]) * derivative(acts[i])
    for p, g in grads:
        p -= lr * g
