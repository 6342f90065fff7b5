"""Seeded, splittable random number source.

Every stochastic component of the library (weight init, dropout noise,
dataset shuffles, the synthetic generator) draws from an ``Rng``.  The
generator is numpy's counter-based Philox keyed through a
``SeedSequence``.  Child streams are derived from an integer path so
that e.g. epoch 3 / batch 5 always gets the same noise no matter what
was drawn before it.

Float32 normals come from the Box-Muller transform (Box & Muller 1958)
computed in float32 on float32 uniforms of the same stream, about 3x
cheaper than numpy's float64 ziggurat plus a cast.  It goes through
numpy's SIMD ``log``/``sin``/``cos``, which may differ in the last bit
between CPU feature levels, so float32 draws are bit-identical on one
numpy build on one machine.  Every other dtype is drawn by the float64
ziggurat, identical across platforms for a given numpy build.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Deterministic random stream: same (seed, path) => bit-identical draws."""

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = _path
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, *path: int) -> "Rng":
        """Independent stream addressed by an integer path, e.g. rng.child(epoch, batch)."""
        return Rng(self.seed, self.path + tuple(int(p) for p in path))

    def normal(self, shape, dtype=np.float32) -> np.ndarray:
        if np.dtype(dtype) != np.float32:
            return self._gen.standard_normal(size=shape, dtype=np.float64).astype(dtype)
        n = int(np.prod(shape))
        half = (n + 1) // 2
        u = self._gen.random(2 * half, dtype=np.float32)
        r, theta = u[:half], u[half:]
        np.subtract(1, r, out=r)  # (0, 1], so the log is finite
        np.log(r, out=r)
        r *= -2
        np.sqrt(r, out=r)
        theta *= np.float32(2 * np.pi)
        cos = np.cos(theta)
        np.sin(theta, out=theta)
        theta *= r
        r *= cos
        return u[:n].reshape(shape)

    def uniform(self, low: float, high: float, shape, dtype=np.float32) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(dtype)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
