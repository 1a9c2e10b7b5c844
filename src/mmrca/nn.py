"""Small numpy building blocks shared by the trained models, and check_type and
get_field, which the config check and the readers of JSON files call.

Everything here is functional: forward passes return caches and the matching
backward functions consume them so gradients stay hand-derived and checkable
against finite differences.

Precision: every function computes in the dtype of the arrays it is given.
The trained models run in float32 and the finite-difference checks call the
same functions in float64. The constants are Python floats, because a numpy
float64 scalar would silently upcast a whole float32 array, and Adam's
moments and work arrays take the dtype of the parameters they update.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
LAYER_NORM_EPS = 1e-5
ADAM_BETA1 = 0.9  # decay of Adam's first moment estimate
ADAM_BETA2 = 0.999  # decay of its second moment estimate
ADAM_EPS = 1e-8


_KINDS = {
    int: (numbers.Integral, "an int"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "a JSON object"),
}


def check_type(name: str, value, kind: type) -> None:
    """Raise ValueError naming name unless value is of kind (int, float, str, list or dict).

    An int takes an integer and a float any real number, an int included. A
    bool is neither, though Python counts it as an int.
    """
    abstract, wanted = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, abstract):
        raise ValueError(
            f"{name} must be {wanted}; {type(value).__name__} {value!r} is not supported"
        )


def get_field(payload: dict, key: str, source):
    """payload[key]; ValueError naming source and key when payload has no such key."""
    if key not in payload:
        raise ValueError(f"{source} is missing field {key!r}")
    return payload[key]


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU (smooth, so finite-difference checks stay clean).

    Returns the activation and its cache: the tanh term, which gelu_grad needs
    and would otherwise compute a second time.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given the tanh cache that gelu(x) returned."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid 1 / (1 + exp(-x)), in the dtype of x.

    exp only sees -|x|, so it never overflows: a large negative x gives
    exp(x) / (1 + exp(x)), which underflows to 0.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Normalise over the last axis, then scale and shift; returns the output and its cache.

    The centred input is computed once and serves both the variance and xhat:
    np.var would take the mean and subtract it a second time. The result is
    the same to the bit.
    """
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def layer_norm_backward(dy: np.ndarray, cache):
    xhat, inv_std, gamma = cache
    lead_axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead_axes)
    dbeta = dy.sum(axis=lead_axes)
    dxhat = dy * gamma
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


class Adam:
    """Adaptive-moment gradient descent over a dict of parameter arrays (in place).

    step(grads) updates every key of grads with bias-corrected first and second
    moment estimates (decays ADAM_BETA1 and ADAM_BETA2, denominator offset
    ADAM_EPS); there is no weight decay. The moments, the parameters and
    two per-key work arrays are updated in place, in the order of operations of
    the textbook expressions, so the result is the same to the bit.
    """

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._work = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for key, g in grads.items():
            m, v = self.m[key], self.v[key]
            update, denom = self._work[key]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            m += np.multiply(1 - b1, g, out=update)
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(1 - b2, g, out=update)
            update *= g
            v += update
            # params -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)
            np.divide(m, 1 - b1**self.t, out=update)
            np.divide(v, 1 - b2**self.t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update /= denom
            update *= self.lr
            self.params[key] -= update
