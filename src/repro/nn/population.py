"""Stacked forward passes over N same-architecture networks.

:class:`StackedSequential` adopts the parameters of N
:class:`~repro.nn.network.Sequential` instances into one contiguous
``(N, in, out)`` tensor per Linear layer and rebinds each network's
:class:`~repro.nn.network.Parameter.data` as a row view into it.  A
single 3-D ``np.matmul`` then runs all N networks' forwards at once.

Two facts make this safe and bit-identical:

* every in-repo parameter mutation is **in-place** (`Adam`'s
  ``p.data -= a``, Polyak's ``tp.data *= ..; tp.data += ..``,
  ``load_state_dict``/``copy_from``'s ``p.data[...] =``) — only
  ``Parameter.__init__`` rebinds ``data`` — so scalar per-session
  updates write straight through the views into the stacked storage
  with no refresh step;
* numpy evaluates a stacked ``(N, R, in) @ (N, in, out)`` matmul
  slice-by-slice with the same kernel as the 2-D case, and the
  elementwise activations (`maximum`, `tanh`, the shared `sigmoid`)
  are value-wise functions — so row ``i`` of the stacked forward is
  bit-identical to network ``i``'s own ``forward(x_i, cache=False)``.

Outputs use pooled per-row-count workspaces, mirroring the scalar
layers' allocation policy; the same ownership rule applies (a returned
array is valid until the next forward with the same row count).

Pickling a view-backed parameter materializes a copy, so adoption does
not survive checkpoint round-trips — re-adopt after a restore (building
a fresh :class:`StackedSequential` is exactly that and is idempotent).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Linear, ReLU, Sigmoid, Tanh, sigmoid
from repro.nn.network import Sequential

__all__ = ["StackedSequential"]


def _workspace3(
    pool: dict[int, np.ndarray], n: int, rows: int, cols: int
) -> np.ndarray:
    """Fetch (or create) the pooled ``(n, rows, cols)`` buffer."""
    buf = pool.get(rows)
    if buf is None:
        buf = pool[rows] = np.empty((n, rows, cols), dtype=np.float64)
    return buf


class _StackedLinear:
    """N affine layers as one ``(N, in, out)`` weight tensor.

    Adopts the scalar layers' parameters: after construction each
    ``layers[i].weight.data`` is the contiguous view ``w[i]`` and
    ``layers[i].bias.data`` is ``b[i, 0]``, so in-place scalar updates
    and the stacked forward always see the same storage.
    """

    def __init__(self, layers: Sequence[Linear]):
        shape = layers[0].weight.data.shape
        for lay in layers:
            if lay.weight.data.shape != shape:
                raise ValueError(
                    f"layer shape mismatch: {lay.weight.data.shape} "
                    f"!= {shape}"
                )
        n = len(layers)
        self.w = np.empty((n, *shape), dtype=np.float64)
        self.b = np.empty((n, 1, shape[1]), dtype=np.float64)
        for i, lay in enumerate(layers):
            self.w[i] = lay.weight.data
            self.b[i, 0] = lay.bias.data
            lay.weight.data = self.w[i]
            lay.bias.data = self.b[i, 0]
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], self.w.shape[2])
        np.matmul(x, self.w, out=out)
        out += self.b
        return out


class _StackedReLU:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], x.shape[2])
        np.maximum(x, 0.0, out=out)
        return out


class _StackedTanh:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], x.shape[2])
        np.tanh(x, out=out)
        return out


class _StackedSigmoid:
    def __init__(self):
        self._fwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = _workspace3(self._fwd, x.shape[0], x.shape[1], x.shape[2])
        return sigmoid(x, out)


_STACKED_ACTIVATIONS = {
    ReLU: _StackedReLU,
    Tanh: _StackedTanh,
    Sigmoid: _StackedSigmoid,
}


class StackedSequential:
    """Lockstep inference over N same-architecture Sequentials.

    ``forward`` takes ``(N, rows, in_dim)`` and returns
    ``(N, rows, out_dim)``, where slice ``i`` equals
    ``nets[i].forward(x[i], cache=False)`` bit-for-bit.
    """

    def __init__(self, nets: Sequence[Sequential]):
        nets = list(nets)
        if not nets:
            raise ValueError("need at least one network")
        if len({id(net) for net in nets}) != len(nets):
            raise ValueError("stacked networks must be distinct objects")
        n_layers = len(nets[0].layers)
        for net in nets:
            if len(net.layers) != n_layers:
                raise ValueError("networks must share an architecture")
        self.n = len(nets)
        self._ops = []
        for layers in zip(*(net.layers for net in nets)):
            kind = type(layers[0])
            if any(type(lay) is not kind for lay in layers):
                raise ValueError("networks must share an architecture")
            if kind is Linear:
                self._ops.append(_StackedLinear(layers))
            elif kind in _STACKED_ACTIVATIONS:
                self._ops.append(_STACKED_ACTIVATIONS[kind]())
            else:
                raise TypeError(f"cannot stack layer type {kind.__name__}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim != 3 or out.shape[0] != self.n:
            raise ValueError(
                f"expected shape ({self.n}, rows, in_dim), got {out.shape}"
            )
        for op in self._ops:
            out = op.forward(out)
        return out

    def members_finite(self) -> np.ndarray:
        """Boolean mask over members: ``True`` where every parameter of
        member ``i``'s net is finite.  Pure observation (no RNG, no
        writes), used to quarantine diverged members before their NaNs
        can reach the shared lockstep tensors."""
        ok = np.ones(self.n, dtype=bool)
        for op in self._ops:
            if isinstance(op, _StackedLinear):
                ok &= np.isfinite(op.w).all(axis=(1, 2))
                ok &= np.isfinite(op.b).all(axis=(1, 2))
        return ok
