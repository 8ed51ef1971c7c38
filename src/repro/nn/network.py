"""Parameter container and sequential network with manual backprop."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers import Layer, Linear, make_activation

__all__ = ["Parameter", "Sequential", "MLP"]


class Parameter:
    """A trainable tensor with an accumulated gradient.

    ``data`` and ``grad`` are plain numpy arrays; optimizers update
    ``data`` in place (views, not copies — see the hpc guides) and layers
    accumulate into ``grad`` during :meth:`Sequential.backward`.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Sequential:
    """A stack of layers with forward/backward passes.

    Supports three gradient flows needed by actor-critic methods:

    * parameter gradients (for optimizer steps),
    * gradients w.r.t. the network *input* (returned by :meth:`backward`),
      which implement the deterministic policy gradient's dQ/da term,
    * pure inference via :meth:`forward` with ``cache=False``.
    """

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Run the network; ``cache=True`` stores activations for backward."""
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, cache=cache)
        return out

    __call__ = forward

    def backward(
        self,
        grad_out: np.ndarray,
        params: bool = True,
        input_grad: bool = True,
    ) -> np.ndarray | None:
        """Backpropagate ``grad_out`` (dLoss/dOutput); return dLoss/dInput.

        Parameter gradients are *accumulated*; call :meth:`zero_grad`
        before each optimizer step.  ``params=False`` skips them (a pass
        that only routes dLoss/dInput, e.g. the actor step through a
        critic); ``input_grad=False`` skips the first layer's input
        gradient and returns ``None``.  What is still computed is
        bit-identical to the full pass.
        """
        grad = np.asarray(grad_out, dtype=np.float64)
        if grad.ndim == 1:
            grad = grad[None, :]
        for i in range(len(self.layers) - 1, -1, -1):
            layer, to_input = self.layers[i], input_grad or i > 0
            if isinstance(layer, Linear):
                grad = layer.backward(grad, params=params, input_grad=to_input)
            elif to_input:  # a parameter-free layer's only output
                grad = layer.backward(grad)
        return grad if input_grad else None

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by ``<index>.<name>``."""
        return {
            f"{i}.{p.name or 'param'}": p.data.copy()
            for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} tensors, network has {len(params)}"
            )
        for (key, value), p in zip(state.items(), params):
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {value.shape} vs {p.data.shape}"
                )
            p.data[...] = value

    def copy_from(self, other: "Sequential") -> None:
        """Hard-copy parameters from a same-architecture network."""
        mine, theirs = self.parameters(), other.parameters()
        if len(mine) != len(theirs):
            raise ValueError("architectures differ")
        for p, q in zip(mine, theirs):
            p.data[...] = q.data


class MLP(Sequential):
    """Fully-connected network builder.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.
    hidden:
        Hidden layer widths, e.g. ``(64, 64)``.
    activation:
        Hidden activation name: ``"relu"`` or ``"tanh"``.
    out_activation:
        Optional output activation (``"tanh"``, ``"sigmoid"``, or ``None``
        for a linear head — critics use linear, actors use sigmoid to land
        in the normalized [0,1] configuration cube).
    rng:
        Generator for weight init.
    final_init_limit:
        If set, the last Linear layer uses small-uniform init (DDPG §7).
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: Sequence[int] = (64, 64),
        activation: str = "relu",
        out_activation: str | None = None,
        rng: np.random.Generator | None = None,
        final_init_limit: float | None = 3e-3,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        dims = [in_dim, *hidden, out_dim]
        layers: list[Layer] = []
        for i in range(len(dims) - 1):
            is_last = i == len(dims) - 2
            layers.append(
                Linear(
                    dims[i],
                    dims[i + 1],
                    rng=rng,
                    init="he" if activation == "relu" else "xavier",
                    final_init_limit=final_init_limit if is_last else None,
                    name=f"fc{i}",
                )
            )
            if not is_last:
                layers.append(make_activation(activation))
            elif out_activation is not None:
                layers.append(make_activation(out_activation))
        super().__init__(layers)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = tuple(hidden)
