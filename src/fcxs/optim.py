"""Adam with bias correction.

Defaults follow the training protocol used throughout: fixed learning
rate 1e-5, beta1 = 0.9, beta2 = 0.999, eps = 1e-8.  A non-finite
gradient aborts the whole step before any parameter is touched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericError
from .tensor import Tensor


class Adam:
    def __init__(
        self,
        params: Sequence[tuple[str, Tensor]],
        lr: float = 1e-5,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def step(self) -> None:
        grads = []
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for {name!r}; optimizer step aborted")
            grads.append(g)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, (_, p) in enumerate(self.params):
            g = grads[i]
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)
