"""Stacked storage and tensor math over N same-architecture networks.

:class:`StackedSequential` adopts the parameters of N
:class:`~repro.nn.network.Sequential` instances into one ``(N, P)``
data array and one ``(N, P)`` grad array: row ``i`` holds network
``i``'s parameters flattened in ``parameters()`` order, and each
network's :class:`~repro.nn.network.Parameter` ``data``/``grad`` become
views of their slice of that row.  :class:`StackedAdam` does the same
for N optimizers' ``m``/``v`` moments over an adopted network.  Every
stacked operation reads and writes that one storage, so there is
nothing to refresh between the paths:

* the inference forward runs all N networks with one 3-D ``np.matmul``
  per layer (the population's act, min-Q and Twin-Q queries);
* over a block of consecutive rows ``lo:hi``, a cached forward,
  backward, Adam step and soft target update run the population's
  fine-tune updates (:meth:`repro.agents.population.PopulationTD3View.update_block`);
* a member's own scalar layers and optimizers keep working on its
  views, because every in-repo parameter mutation is **in place**
  (`Adam`'s ``p.data -= a``, Polyak's ``tp.data *= ..; tp.data += ..``,
  ``zero_grad``, ``load_state_dict``/``copy_from``'s ``p.data[...] =``);
  only ``Parameter.__init__`` rebinds ``data``.

Row ``i`` of every stacked operation is bit-identical to network ``i``'s
scalar one:

* numpy evaluates a stacked ``(B, R, in) @ (B, in, out)`` matmul slice by
  slice with the 2-D kernel, whatever the batch stride, so forwards,
  weight gradients ``x^T g`` and input gradients match the scalar
  layers; a bias gradient is ``np.add.reduce(g, axis=1)``, the scalar
  ``axis=0`` sum per slice;
* activations, their derivatives, the Adam moment arithmetic and the
  Polyak average are elementwise, written in the scalar op order;
* the gradient-clipping norm adds per-parameter ``np.add.reduce`` sums
  of each row in parameter order, as ``Adam._clip_grads`` does, and
  bias corrections are computed per row in Python, as ``Adam.step``
  does;
* a scalar backward adds its gradients into zeroed grads, which turns a
  ``-0.0`` into ``+0.0``; the stacked backward writes them and adds
  ``0.0`` once over the block's rows to the same effect.

Every temporary a stacked op writes lives in a :class:`Workspace`,
pooled by op, role and shape like the scalar layers' workspaces (a
returned array is valid until the next call that produces one of the
same key).  Stacks and ops hold only views of their storage, so threads
that pass their own workspace may run the training math over disjoint
rows at once; the inference :meth:`StackedSequential.forward` uses the
stack's own.

Pickling or deep-copying a member materializes its views as ordinary
arrays, so adoption does not survive checkpoint round-trips — re-adopt
after a restore (building a fresh :class:`StackedSequential` is exactly
that).  Adopting a network again leaves the earlier stack stale.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from repro.nn.layers import Linear, ReLU, Sigmoid, Tanh, sigmoid
from repro.nn.network import Sequential
from repro.nn.optim import Adam

__all__ = ["StackedSequential", "StackedAdam", "Workspace"]

#: every row of a stacked op: the population-wide inference path
_ALL = slice(None)


class Workspace:
    """The temporaries of stacked math run by one thread at a time.

    ``buffer`` pools arrays by ``(owner, role, shape)``; ``saved`` holds
    what a cached forward keeps for its backward, per op; ``blocks``
    holds callers' per-shape workspaces.
    """

    def __init__(self):
        self._pools: dict[tuple, np.ndarray] = {}
        self.saved: dict[object, np.ndarray] = {}
        self.blocks: dict[tuple, object] = {}

    def buffer(
        self, owner, role: str, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Fetch (or create) ``owner``'s pooled ``role`` buffer of
        ``shape``."""
        key = (owner, role, shape)
        buf = self._pools.get(key)
        if buf is None:
            buf = self._pools[key] = np.empty(shape, dtype=dtype)
        return buf


def _adopt(
    rows: Sequence[Sequence[np.ndarray]], shapes: Sequence[tuple[int, ...]]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy N members' arrays into one ``(N, P)`` array.

    ``rows[i][k]`` is member ``i``'s ``k``-th array.  Returns the stacked
    array and, per ``k``, its ``(N, *shapes[k])`` view; iterating one
    yields the members' row views.  Arrays whose every bit is zero (a
    target network's grads) become untouched zero pages, not a copy.
    """
    flat = [a.ravel() for arrays in rows for a in arrays]
    if any(a.view(np.uint64).any() for a in flat):
        stacked = np.concatenate(flat).reshape(len(rows), -1)
    else:
        stacked = np.zeros((len(rows), sum(map(prod, shapes))))
    views, off = [], 0
    for shape in shapes:
        size = prod(shape)
        views.append(stacked[:, off:off + size].reshape(len(rows), *shape))
        off += size
    return stacked, views


class _StackedLinear:
    """One affine layer's slice of the stacked storage.

    ``w`` ``(N, in, out)`` and ``b`` ``(N, 1, out)`` view the data
    array; ``gw`` and ``gb`` ``(N, out)`` view the grad array.
    """

    def __init__(self, data, grad, offset: int, in_dim: int, out_dim: int):
        n, k = data.shape[0], offset + in_dim * out_dim
        self.w = data[:, offset:k].reshape(n, in_dim, out_dim)
        self.b = data[:, k:k + out_dim].reshape(n, 1, out_dim)
        self.gw = grad[:, offset:k].reshape(n, in_dim, out_dim)
        self.gb = grad[:, k:k + out_dim]

    def forward(
        self, x: np.ndarray, rows: slice, cache: bool, ws: Workspace
    ) -> np.ndarray:
        if cache:
            ws.saved[self] = x
        out = ws.buffer(self, "fwd" if cache else "fwd_nc",
                        (*x.shape[:2], self.w.shape[2]))
        np.matmul(x, self.w[rows], out=out)
        out += self.b[rows]
        return out

    def backward(
        self, grad_out: np.ndarray, rows: slice, params: bool,
        input_grad: bool, ws: Workspace,
    ) -> np.ndarray | None:
        if params:
            np.matmul(ws.saved[self].transpose(0, 2, 1), grad_out,
                      out=self.gw[rows])
            np.add.reduce(grad_out, axis=1, out=self.gb[rows])
        if not input_grad:
            return None
        grad_in = ws.buffer(self, "bwd",
                            (*grad_out.shape[:2], self.w.shape[1]))
        np.matmul(grad_out, self.w[rows].transpose(0, 2, 1), out=grad_in)
        return grad_in


class _StackedReLU:
    def forward(
        self, x: np.ndarray, rows: slice, cache: bool, ws: Workspace
    ) -> np.ndarray:
        out = ws.buffer(self, "fwd" if cache else "fwd_nc", x.shape)
        np.maximum(x, 0.0, out=out)
        if cache:
            mask = ws.saved[self] = ws.buffer(self, "mask", x.shape,
                                              dtype=bool)
            np.greater(x, 0.0, out=mask)
        return out

    def backward(self, grad_out: np.ndarray, ws: Workspace) -> np.ndarray:
        grad_in = ws.buffer(self, "bwd", grad_out.shape)
        np.multiply(grad_out, ws.saved[self], out=grad_in)
        return grad_in


class _StackedTanh:
    """Inference only: no stacked update trains a tanh network."""

    def forward(
        self, x: np.ndarray, rows: slice, cache: bool, ws: Workspace
    ) -> np.ndarray:
        out = ws.buffer(self, "fwd", x.shape)
        np.tanh(x, out=out)
        return out


class _StackedSigmoid:
    def forward(
        self, x: np.ndarray, rows: slice, cache: bool, ws: Workspace
    ) -> np.ndarray:
        out = sigmoid(x, ws.buffer(self, "fwd" if cache else "fwd_nc",
                                   x.shape))
        if cache:
            ws.saved[self] = out
        return out

    def backward(self, grad_out: np.ndarray, ws: Workspace) -> np.ndarray:
        out = ws.saved[self]
        grad_in = ws.buffer(self, "bwd", grad_out.shape)
        scratch = ws.buffer(self, "bwd2", grad_out.shape)
        np.multiply(grad_out, out, out=grad_in)
        np.subtract(1.0, out, out=scratch)
        np.multiply(grad_in, scratch, out=grad_in)
        return grad_in


_STACKED_ACTIVATIONS = {
    ReLU: _StackedReLU,
    Tanh: _StackedTanh,
    Sigmoid: _StackedSigmoid,
}


class StackedSequential:
    """N same-architecture Sequentials as rows of one storage.

    ``forward`` takes ``(N, rows, in_dim)`` and returns
    ``(N, rows, out_dim)``, where slice ``i`` equals
    ``nets[i].forward(x[i], cache=False)`` bit-for-bit.  The ``*_rows``
    methods run the training math over a block of consecutive rows, with
    their temporaries in the workspace ``ws``.
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
        params = [net.parameters() for net in nets]
        shapes = [p.data.shape for p in params[0]]
        for ps in params:
            if [p.data.shape for p in ps] != shapes:
                raise ValueError("networks must share an architecture")
        self.n = len(nets)
        self.data, data_views = _adopt(
            [[p.data for p in ps] for ps in params], shapes
        )
        self.grad, grad_views = _adopt(
            [[p.grad for p in ps] for ps in params], shapes
        )
        for k, (dv, gv) in enumerate(zip(data_views, grad_views)):
            for ps, d, g in zip(params, dv, gv):
                ps[k].data = d
                ps[k].grad = g
        #: ``(offset, size)`` of each parameter within a row
        self.spans: list[tuple[int, int]] = []
        off = 0
        for shape in shapes:
            self.spans.append((off, prod(shape)))
            off += prod(shape)
        #: each member's adopted parameters, in order
        self._params = params
        self._ops = []
        off = 0
        for layers in zip(*(net.layers for net in nets)):
            kind = type(layers[0])
            if any(type(lay) is not kind for lay in layers):
                raise ValueError("networks must share an architecture")
            if kind is Linear:
                in_dim, out_dim = layers[0].weight.data.shape
                self._ops.append(
                    _StackedLinear(self.data, self.grad, off, in_dim, out_dim)
                )
                off += in_dim * out_dim + out_dim
            elif kind in _STACKED_ACTIVATIONS:
                self._ops.append(_STACKED_ACTIVATIONS[kind]())
            else:
                raise TypeError(f"cannot stack layer type {kind.__name__}")
        #: the temporaries of :meth:`forward`
        self.workspace = Workspace()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=np.float64)
        if out.ndim != 3 or out.shape[0] != self.n:
            raise ValueError(
                f"expected shape ({self.n}, rows, in_dim), got {out.shape}"
            )
        return self.forward_rows(out, _ALL, self.workspace, cache=False)

    def forward_rows(
        self, x: np.ndarray, rows: slice, ws: Workspace, cache: bool = True
    ) -> np.ndarray:
        """Forward of the members in ``rows`` over ``x`` ``(B, R, in)``;
        ``cache`` keeps what :meth:`backward_rows` needs in ``ws``."""
        out = x
        for op in self._ops:
            out = op.forward(out, rows, cache, ws)
        return out

    def backward_rows(
        self,
        grad_out: np.ndarray,
        rows: slice,
        ws: Workspace,
        params: bool = True,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """:meth:`Sequential.backward` for the members in ``rows``, after
        a cached :meth:`forward_rows` over the same rows and workspace.
        With ``params`` their grads are *overwritten*: the scalar path's
        ``zero_grad`` plus accumulation."""
        grad = grad_out
        for i in range(len(self._ops) - 1, -1, -1):
            op, to_input = self._ops[i], input_grad or i > 0
            if isinstance(op, _StackedLinear):
                grad = op.backward(grad, rows, params, to_input, ws)
            elif to_input:
                grad = op.backward(grad, ws)
        if params:
            g = self.grad[rows]
            np.add(g, 0.0, out=g)
        return grad if input_grad else None

    def zero_grad_rows(self, rows: slice) -> None:
        self.grad[rows] = 0.0

    def soft_update_rows(
        self, source: "StackedSequential", rows: slice, tau: float,
        ws: Workspace,
    ) -> None:
        """Polyak averaging ``θ' ← τ θ + (1 − τ) θ'`` of ``rows``, with
        ``source``'s rows as ``θ`` (:func:`repro.nn.target.soft_update`'s
        op order)."""
        target = self.data[rows]
        buf = ws.buffer(self, "soft", target.shape)
        target *= 1.0 - tau
        np.multiply(source.data[rows], tau, out=buf)
        target += buf

    def members_finite(self) -> np.ndarray:
        """Boolean mask over members: ``True`` where every parameter of
        member ``i``'s net is finite.  Pure observation (no RNG, no
        writes), used to quarantine diverged members before their NaNs
        can reach the shared lockstep tensors."""
        return np.isfinite(self.data).all(axis=1)


class StackedAdam:
    """N :class:`~repro.nn.optim.Adam` optimizers over one stacked net.

    Optimizer ``i`` must own exactly ``net``'s member-``i`` parameters in
    order.  Its ``_m``/``_v`` moments become row views of ``(N, P)``
    ``m``/``v`` arrays; its step count stays its own ``_t``.
    """

    def __init__(self, opts: Sequence[Adam], net: StackedSequential):
        opts = list(opts)
        if len(opts) != net.n:
            raise ValueError("need one optimizer per stacked member")
        for opt, mine in zip(opts, net._params):
            if len(opt.params) != len(mine) or any(
                p is not q for p, q in zip(opt.params, mine)
            ):
                raise ValueError(
                    "optimizer parameters must be the stacked member's"
                )
        shapes = [p.data.shape for p in net._params[0]]
        self.net = net
        self.opts = opts
        self.m, m_views = _adopt([opt._m for opt in opts], shapes)
        self.v, v_views = _adopt([opt._v for opt in opts], shapes)
        for k, (mv, vv) in enumerate(zip(m_views, v_views)):
            for opt, m, v in zip(opts, mv, vv):
                opt._m[k] = m
                opt._v[k] = v

    def step_rows(self, rows: slice, ws: Workspace) -> None:
        """:meth:`Adam.step` of every optimizer in ``rows``, which must
        share ``lr``, ``betas``, ``eps`` and ``max_grad_norm``; the
        scratch lives in ``ws``."""
        opts = self.opts[rows]
        lead = opts[0]
        data, grad = self.net.data[rows], self.net.grad[rows]
        m, v = self.m[rows], self.v[rows]
        a = ws.buffer(self, "a", grad.shape)
        b = ws.buffer(self, "b", grad.shape)
        if lead.max_grad_norm is not None:
            max_norm = lead.max_grad_norm
            np.multiply(grad, grad, out=a)
            total = np.zeros(len(opts))
            for off, size in self.net.spans:
                total += np.add.reduce(a[:, off:off + size], axis=1)
            np.sqrt(total, out=total)
            for j in np.flatnonzero((total > max_norm) & (total > 0.0)):
                grad[j] *= max_norm / total[j]
        b1, b2 = lead.b1, lead.b2
        for opt in opts:
            opt._t += 1
        bc1 = np.array([[1.0 - b1**opt._t] for opt in opts])
        bc2 = np.array([[1.0 - b2**opt._t] for opt in opts])
        m *= b1
        np.multiply(grad, 1.0 - b1, out=a)
        m += a
        v *= b2
        np.multiply(grad, grad, out=a)
        a *= 1.0 - b2
        v += a
        np.divide(m, bc1, out=a)
        a *= lead.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += lead.eps
        a /= b
        data -= a
