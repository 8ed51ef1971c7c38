"""Optimizers operating in place on :class:`~repro.nn.network.Parameter`s."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["SGD", "Adam"]


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(
        self,
        params: Sequence,
        lr: float = 1e-2,
        momentum: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction.

    State tensors are updated in place; no per-step allocations beyond the
    bias-corrected scalars.
    """

    def __init__(
        self,
        params: Sequence,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        max_grad_norm: float | None = None,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0,1), got {betas}")
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.max_grad_norm = max_grad_norm
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0
        # Two scratch tensors per distinct parameter shape, reused every
        # step so the update allocates nothing.  Writing the same ops
        # through ``out=`` keeps the result bit-identical to the
        # allocating form.
        self._scratch: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self) -> dict:
        # The scratch is written before it is read, so pickles and deep
        # copies carry it empty.
        return {**self.__dict__, "_scratch": {}}

    def _workspaces(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        ws = self._scratch.get(shape)
        if ws is None:
            ws = self._scratch[shape] = (np.empty(shape), np.empty(shape))
        return ws

    def _clip_grads(self) -> None:
        if self.max_grad_norm is None:
            return
        sq_sum = 0.0
        for p in self.params:
            a, _ = self._workspaces(p.data.shape)
            np.multiply(p.grad, p.grad, out=a)
            # np.sum's kernel minus the dispatch wrapper (bit-identical).
            sq_sum += float(np.add.reduce(a, axis=None))
        total = float(np.sqrt(sq_sum))
        if total > self.max_grad_norm and total > 0.0:
            scale = self.max_grad_norm / total
            for p in self.params:
                p.grad *= scale

    def step(self) -> None:
        self._clip_grads()
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            a, b = self._workspaces(p.data.shape)
            m *= self.b1
            np.multiply(p.grad, 1.0 - self.b1, out=a)
            m += a
            v *= self.b2
            np.multiply(p.grad, p.grad, out=a)
            a *= 1.0 - self.b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
