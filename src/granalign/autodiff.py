"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoders, fusion, training) runs on this engine.
Tensors wrap contiguous float64 numpy arrays. The engine has no generic
operations: each fused step of the model (an input MLP, a feature
projection, a stack's input rows, an encoder layer, the fusion head, the
loss) computes its forward in numpy and, inside a ``Tape`` context, records
itself as one node with a hand-written backward, like PyTorch's
``autograd.Function``. Tensors carry no flag: one reverse sweep yields the
gradient of every tensor that a node read and no node made, and the caller
takes those it names, like JAX's ``grad(f, argnums)``. Every backward is
validated against central finite differences in the test suite.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "Tape", "Parameters", "record"]


class Tensor:
    """A dense float64 array.

    ``data`` is always a C-contiguous float64 ndarray, so ``data.ravel()``
    is the flat row-major view of the values.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        # asarray with order="C", not ascontiguousarray: the latter would
        # promote 0-d (scalar) values to shape (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


# One active tape per thread; independent model instances on separate
# threads therefore never share recording state.
_LOCAL = threading.local()


def active_tape() -> "Tape | None":
    return getattr(_LOCAL, "tape", None)


class Tape:
    """Execution-ordered record of operations for one forward pass.

    Nodes are appended in the order ops run, which is a topological order
    by construction. The backward sweep walks the list once in reverse,
    so gradient accumulation order is fixed and runs are reproducible.
    """

    def __init__(self):
        # each node: (out, inputs, backward_fn). ``out`` is a Tensor or a tuple
        # of them; backward_fn takes the output gradient, or the tuple of them,
        # and returns one gradient array per input.
        self.nodes: list[tuple[Tensor | tuple[Tensor, ...], tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _LOCAL.tape = None
        return False

    def add_node(self, out: Tensor | tuple[Tensor, ...], inputs: tuple[Tensor, ...],
                 backward: Callable) -> None:
        self.nodes.append((out, inputs, backward))

    def backward(self, loss: Tensor, grad: np.ndarray | None = None) -> dict[int, np.ndarray]:
        """Gradients of a scalar ``loss``, or of ``sum(loss * grad)`` given the
        output gradient ``grad``, keyed by ``id``: one for every tensor that a
        node read and no node made."""
        if grad is None and loss.data.shape != ():
            raise ValueError(f"loss of shape {loss.data.shape} needs an output gradient")
        grad = np.ones(()) if grad is None else np.asarray(grad, dtype=np.float64)
        if grad.shape != loss.data.shape:
            raise ValueError(f"output gradient of shape {grad.shape} does not match "
                             f"the loss shape {loss.data.shape}")
        accum: dict[int, np.ndarray] = {id(loss): grad}
        for out, inputs, backward in reversed(self.nodes):
            # every consumer of `out` ran later and is already swept, so its
            # gradient is complete; drop it once passed on to the inputs
            outs = out if isinstance(out, tuple) else (out,)
            gs = [accum.pop(id(o), None) for o in outs]
            if all(g is None for g in gs):
                continue
            gs = tuple(np.zeros(o.data.shape) if g is None else g for o, g in zip(outs, gs))
            input_grads = backward(gs if isinstance(out, tuple) else gs[0])
            for t, gi in zip(inputs, input_grads):
                prev = accum.get(id(t))
                accum[id(t)] = gi if prev is None else prev + gi
        return accum

    def gradients(self, loss: Tensor, wrt: Iterable[Tensor],
                  grad: np.ndarray | None = None) -> list[np.ndarray]:
        """Like backward(), but aligned with ``wrt``; a tensor the loss does not
        reach, or that a node made, gets zeros."""
        grads = self.backward(loss, grad)
        return [grads[id(t)] if id(t) in grads else np.zeros(t.data.shape) for t in wrt]


def record(out, inputs: tuple[Tensor, ...], backward: Callable):
    """Attach ``out``, a Tensor or a tuple of them, to the active tape if any; return it."""
    tape = active_tape()
    if tape is not None:
        tape.add_node(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# backward math shared by the nodes
# ---------------------------------------------------------------------------


# Layer-norm math of the encoder layers and the fusion head. A mean is
# sum / d, which is bitwise what np.mean computes, without its Python-level
# overhead.


def _ln_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalize the last axis; returns (output, xhat, inv_std) for the backward."""
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    sq = np.multiply(xhat, xhat)
    inv_std = 1.0 / np.sqrt(sq.sum(axis=-1, keepdims=True) / d + eps)
    xhat *= inv_std
    out = np.multiply(xhat, gain, out=sq)
    out += bias
    return out, xhat, inv_std


def _ln_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                 inv_std: np.ndarray) -> np.ndarray:
    """Gradient of the normalized input from the output gradient ``g``."""
    d = g.shape[-1]
    gh = g * gain
    mean = gh.sum(axis=-1, keepdims=True) / d
    tmp = np.multiply(gh, xhat)
    proj = tmp.sum(axis=-1, keepdims=True) / d
    gh -= mean
    gh -= np.multiply(xhat, proj, out=tmp)
    gh *= inv_std
    return gh


def _scatter_rows(n_rows: int, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the row gather ``table[idx]`` of an ``n_rows``-row table:
    row i of ``g`` added into row ``idx[i]``, repeats accumulating in order."""
    out = np.zeros((n_rows,) + g.shape[1:])
    np.add.at(out, idx, g)
    return out


# ---------------------------------------------------------------------------
# trainable parameters
# ---------------------------------------------------------------------------


class Parameters:
    """Named trainable tensors in declaration order, drawn into one vector.

    Block names are the unit of checkpointing and gradient checking, so
    every trainable array in a model is declared here as a ``(name, shape,
    init)`` triple. ``flat`` is allocated once and each block is drawn from
    ``rng`` in order into its view of it, so each block's ``data`` is a
    view of ``flat``.
    """

    def __init__(self, blocks: Sequence[tuple[str, Sequence[int], str]],
                 rng: np.random.Generator):
        for name, shape, _ in blocks:
            if any(s < 0 for s in shape):
                raise ValueError(f"parameter block {name!r} has a negative size {shape}")
        self._bounds = np.cumsum([0] + [math.prod(shape) for _, shape, _ in blocks]).tolist()
        self.flat = np.empty(self._bounds[-1])
        self._blocks: dict[str, Tensor] = {}
        for (name, shape, init), a, b in zip(blocks, self._bounds, self._bounds[1:]):
            if name in self._blocks:
                raise ValueError(f"parameter block {name!r} already exists")
            if init not in ("linear", "embed", "zeros", "ones"):
                raise ValueError(f"unknown init {init!r}")
            self._blocks[name] = Tensor(self.flat[a:b].reshape(shape))
        for (_, _, init), t in zip(blocks, self._blocks.values()):
            if init == "linear":
                # fan_in is the first axis: weights are stored [in, out]
                bound = 1.0 / np.sqrt(max(t.data.shape[0], 1))
                t.data[...] = rng.uniform(-bound, bound, size=t.data.shape)
            elif init == "embed":
                t.data[...] = rng.normal(0.0, 0.02, size=t.data.shape)
            else:
                t.data[...] = 1.0 if init == "ones" else 0.0

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """One shaped view per block of ``vector``, which has the layout of ``flat``."""
        if vector.shape != self.flat.shape:
            raise ValueError(f"shape {vector.shape} is not the layout of {self.flat.size} values")
        return {name: vector[a:b].reshape(t.data.shape) for (name, t), a, b
                in zip(self._blocks.items(), self._bounds, self._bounds[1:])}

    def block_at(self, index: int) -> str:
        """Name of the block that holds element ``index`` of ``flat``."""
        if not 0 <= index < self.flat.size:
            raise IndexError(f"element {index} is outside the {self.flat.size} values")
        return self.names()[int(np.searchsorted(self._bounds, index, side="right")) - 1]

    def __getitem__(self, name: str) -> Tensor:
        return self._blocks[name]

    def __len__(self) -> int:
        return len(self._blocks)

    def names(self) -> list[str]:
        return list(self._blocks)

    def tensors(self) -> list[Tensor]:
        return list(self._blocks.values())

    def items(self) -> list[tuple[str, Tensor]]:
        return list(self._blocks.items())
