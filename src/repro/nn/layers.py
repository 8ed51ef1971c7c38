"""Layers with explicit forward/backward passes.

Every layer implements:

* ``forward(x, cache=True)`` — compute output; stash what backward needs.
* ``backward(grad_out)`` — given dLoss/dOutput, accumulate parameter
  gradients and return dLoss/dInput.  :class:`Linear` can skip either:
  ``params=False`` leaves the parameter gradients alone and
  ``input_grad=False`` returns ``None``.
* ``parameters()`` — trainable :class:`~repro.nn.network.Parameter` list.

Shapes are always ``(batch, features)``; all math is vectorized over the
batch dimension (no Python loops per sample).

Hot-loop allocation policy: each layer owns reusable output/gradient
workspaces keyed by batch size, written through ``out=`` ufunc/matmul
arguments, so steady-state training allocates nothing per step.  The
results are bit-identical to the allocating expressions (same kernels,
different destination).  Ownership rule: an array returned by
``forward``/``backward`` is valid until the *next* ``forward``/
``backward`` of the same layer with the same batch size — consume or
copy it before then (every in-repo caller does).
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import he_uniform, uniform_init, xavier_uniform

__all__ = [
    "Layer", "Linear", "ReLU", "Tanh", "Sigmoid", "make_activation", "sigmoid",
]


def _workspace(
    pool: dict[int, np.ndarray],
    n_rows: int,
    n_cols: int,
    dtype=np.float64,
) -> np.ndarray:
    """Fetch (or create) the pooled ``(n_rows, n_cols)`` buffer."""
    buf = pool.get(n_rows)
    if buf is None:
        buf = pool[n_rows] = np.empty((n_rows, n_cols), dtype=dtype)
    return buf


def sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function of ``x``, written to ``out``.

    With ``e = exp(-|x|)``: ``1 / (1 + e)`` where ``x >= 0`` and
    ``e / (1 + e)`` where ``x < 0`` — the same per-element operations as
    a split on sign, without boolean fancy indexing.  NaN stays NaN.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.where(x < 0, e, 1.0)  # before ``out`` may alias ``x``
    np.add(1.0, e, out=out)
    return np.divide(numerator, out, out=out)


class Layer:
    """Base class; stateless layers only override forward/backward.

    ``_POOLS`` names a layer's workspace pools and ``_CACHES`` its other
    scratch arrays: what a cached forward leaves for backward, and
    :class:`Linear`'s gradient buffers.  All are written before they are
    read, so pickles and deep copies carry them empty: a copied layer
    starts like a fresh one and computes the same bits.
    """

    _POOLS: tuple[str, ...] = ()
    _CACHES: tuple[str, ...] = ()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.update({name: {} for name in self._POOLS})
        state.update({name: None for name in self._CACHES})
        return state

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list:
        return []


class Linear(Layer):
    """Affine layer ``y = x @ W + b``."""

    _POOLS = ("_fwd", "_fwd_nc", "_bwd")
    _CACHES = ("_x", "_grad_w", "_grad_b")

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        init: str = "he",
        final_init_limit: float | None = None,
        name: str = "",
    ):
        from repro.nn.network import Parameter  # local import avoids cycle

        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"invalid layer dims ({in_dim}, {out_dim})")
        if final_init_limit is not None:
            w = uniform_init(rng, in_dim, out_dim, final_init_limit)
        elif init == "he":
            w = he_uniform(rng, in_dim, out_dim)
        elif init == "xavier":
            w = xavier_uniform(rng, in_dim, out_dim)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Parameter(w, name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.bias")
        self._x: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}
        self._grad_w: np.ndarray | None = None
        self._grad_b: np.ndarray | None = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        if cache:
            self._x = x
        # Uncached (inference) forwards use a separate pool so they never
        # clobber activations a pending backward still needs.
        pool = self._fwd if cache else self._fwd_nc
        out = _workspace(pool, x.shape[0], self.weight.data.shape[1])
        if out is x:  # a Linear fed its own output; don't alias matmul
            out = np.empty_like(out)
        np.matmul(x, self.weight.data, out=out)
        out += self.bias.data
        return out

    def backward(
        self,
        grad_out: np.ndarray,
        params: bool = True,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        if self._x is None:
            raise RuntimeError("backward called before a cached forward")
        if params:
            if self._grad_w is None:
                self._grad_w = np.empty_like(self.weight.data)
                self._grad_b = np.empty_like(self.bias.data)
            np.matmul(self._x.T, grad_out, out=self._grad_w)
            self.weight.grad += self._grad_w
            # np.add.reduce is np.sum's kernel without the dispatch
            # wrapper — same pairwise summation, so bit-identical,
            # measurably cheaper at this call frequency.
            np.add.reduce(grad_out, axis=0, out=self._grad_b)
            self.bias.grad += self._grad_b
        if not input_grad:
            return None
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], self.weight.data.shape[0]
        )
        np.matmul(grad_out, self.weight.data.T, out=grad_in)
        return grad_in

    def parameters(self) -> list:
        return [self.weight, self.bias]


class ReLU(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_masks", "_bwd")
    _CACHES = ("_mask",)

    def __init__(self):
        self._mask: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._masks: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = _workspace(self._fwd if cache else self._fwd_nc,
                         x.shape[0], x.shape[1])
        np.maximum(x, 0.0, out=out)
        if cache:
            mask = _workspace(self._masks, x.shape[0], x.shape[1], dtype=bool)
            np.greater(x, 0.0, out=mask)
            self._mask = mask
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        np.multiply(grad_out, self._mask, out=grad_in)
        return grad_in


class Tanh(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_bwd")
    _CACHES = ("_out",)

    def __init__(self):
        self._out: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = _workspace(self._fwd if cache else self._fwd_nc,
                         x.shape[0], x.shape[1])
        np.tanh(x, out=out)
        if cache:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        # grad_out * (1 - out^2), evaluated in the scalar path's op order
        np.multiply(self._out, self._out, out=grad_in)
        np.subtract(1.0, grad_in, out=grad_in)
        np.multiply(grad_out, grad_in, out=grad_in)
        return grad_in


class Sigmoid(Layer):
    _POOLS = ("_fwd", "_fwd_nc", "_bwd", "_bwd2")
    _CACHES = ("_out",)

    def __init__(self):
        self._out: np.ndarray | None = None
        self._fwd: dict[int, np.ndarray] = {}
        self._fwd_nc: dict[int, np.ndarray] = {}
        self._bwd: dict[int, np.ndarray] = {}
        self._bwd2: dict[int, np.ndarray] = {}

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        out = sigmoid(x, _workspace(self._fwd if cache else self._fwd_nc,
                                    x.shape[0], x.shape[1]))
        if cache:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a cached forward")
        grad_in = _workspace(
            self._bwd, grad_out.shape[0], grad_out.shape[1]
        )
        scratch = _workspace(
            self._bwd2, grad_out.shape[0], grad_out.shape[1]
        )
        # (grad_out * out) * (1 - out), the scalar path's op order
        np.multiply(grad_out, self._out, out=grad_in)
        np.subtract(1.0, self._out, out=scratch)
        np.multiply(grad_in, scratch, out=grad_in)
        return grad_in


_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}


def make_activation(name: str) -> Layer:
    """Instantiate an activation layer by name."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from None
