"""Small numpy building blocks shared by the trained models.

Everything here is functional: forward passes return caches and the matching
backward functions consume them so gradients stay hand-derived and checkable
against finite differences.
"""

from __future__ import annotations

import numpy as np

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation GELU (smooth, so finite-difference checks stay clean).

    Returns the activation and its cache: the tanh term, which gelu_grad needs
    and would otherwise compute a second time.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * x**3))
    return 0.5 * x * (1.0 + t), t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given the tanh cache that gelu(x) returned."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
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

    weight_decay is decoupled (AdamW style) and applied only to keys accepted
    by decay_filter; it gives saturated sigmoid heads a restoring force that
    plain gradients cannot provide once their derivative underflows.
    """

    def __init__(
        self,
        params: dict,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        decay_filter=None,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.decay_filter = decay_filter or (lambda key: True)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, g in grads.items():
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            m_hat = self.m[key] / (1 - b1**self.t)
            v_hat = self.v[key] / (1 - b2**self.t)
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay and self.decay_filter(key):
                update = update + self.weight_decay * self.params[key]
            self.params[key] -= self.lr * update
