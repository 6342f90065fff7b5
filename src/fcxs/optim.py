"""Adam with bias correction.

A fixed learning rate (1e-5 by default) with the constants beta1 = 0.9,
beta2 = 0.999 and eps = 1e-8.  A non-finite gradient aborts the whole
step before any parameter is touched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericError
from .tensor import Tensor


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: Sequence[tuple[str, Tensor]], lr: float = 1e-5):
        self.params = list(params)
        self.lr = lr
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
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for i, (_, p) in enumerate(self.params):
            g = grads[i]
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - (self.lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(p.dtype)
