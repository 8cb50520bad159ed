"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (encoders, fusion, training) runs on this engine.
Tensors wrap contiguous float64 numpy arrays; operations executed inside a
``Tape`` context record one node per call, in execution order, so a single
reverse sweep over the tape yields gradients for every trainable leaf.

The engine is deliberately small: only the operations the model needs, all
with hand-derived backward rules that are validated against central finite
differences in the test suite.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Parameters",
    "record",
    "matmul",
    "add",
    "scale",
    "relu",
    "layer_norm_rows",
    "cross_entropy_logits",
    "concat_rows",
    "embedding_lookup",
    "reshape",
    "sum_all",
]


class Tensor:
    """A dense float64 array plus the flags the tape needs.

    ``data`` is always a C-contiguous float64 ndarray, so ``data.ravel()``
    is the flat row-major view of the values.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order="C", not ascontiguousarray: the latter would
        # promote 0-d (scalar) values to shape (1,)
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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
        # each node: (out, inputs, backward_fn); backward_fn(grad_out)
        # returns one gradient array per input (entries for constant
        # inputs are ignored).
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._tracked: set[int] = set()

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _LOCAL.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _LOCAL.tape = None
        return False

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def add_node(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self.nodes.append((out, inputs, backward))
        self._tracked.add(id(out))

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Gradients of a scalar loss for every requires_grad leaf on the tape."""
        if loss.data.shape != ():
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        accum: dict[int, np.ndarray] = {id(loss): np.ones(())}
        leaves: dict[Tensor, np.ndarray] = {}
        for out, inputs, backward in reversed(self.nodes):
            # every consumer of `out` ran later and is already swept, so its
            # gradient is complete; drop it once passed on to the inputs
            g = accum.pop(id(out), None)
            if g is None:
                continue
            input_grads = backward(g)
            for t, gi in zip(inputs, input_grads):
                if not self.tracks(t):
                    continue
                prev = accum.get(id(t))
                accum[id(t)] = gi if prev is None else prev + gi
                if t.requires_grad:
                    leaves[t] = accum[id(t)]
        return leaves

    def gradients(self, loss: Tensor, wrt: Iterable[Tensor]) -> list[np.ndarray]:
        """Like backward(), but aligned with ``wrt``; leaves off the path get zeros."""
        leaf_map = self.backward(loss)
        return [leaf_map[t] if t in leaf_map else np.zeros(t.data.shape) for t in wrt]


def record(out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    """Attach ``out`` to the active tape if any input is tracked."""
    tape = active_tape()
    if tape is not None and any(tape.tracks(t) for t in inputs):
        tape.add_node(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of 2-D matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: operands must be 2-D, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return record(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias broadcast over the rows of a."""
    if a.data.shape == b.data.shape:
        out = Tensor(a.data + b.data)

        def backward(g):
            return g, g

        return record(out, (a, b), backward)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        out = Tensor(a.data + b.data)

        def backward(g):
            return g, g.sum(axis=0)

        return record(out, (a, b), backward)
    raise ValueError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def backward(g):
        return (g * c,)

    return record(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    pos = a.data > 0.0

    def backward(g):
        return (g * pos,)

    return record(out, (a,), backward)


# Layer-norm math shared by layer_norm_rows and the fused encoder layer. A
# mean is sum / d, which is bitwise what np.mean computes, without its
# Python-level overhead.


def _ln_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Normalize the last axis; returns (output, xhat, inv_std) for the backward."""
    d = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) / d
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return gain * xhat + bias, xhat, inv_std


def _ln_backward(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                 inv_std: np.ndarray) -> np.ndarray:
    """Gradient of the normalized input from the output gradient ``g``."""
    d = g.shape[-1]
    gh = g * gain
    return (gh - gh.sum(axis=-1, keepdims=True) / d
            - xhat * ((gh * xhat).sum(axis=-1, keepdims=True) / d)) * inv_std


def layer_norm_rows(a: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Per-row layer normalization of a 2-D [m, d] tensor with biased variance;
    ``gain`` and ``bias`` are 1-D [d]."""
    if a.data.ndim != 2:
        raise ValueError(f"layer_norm_rows: expected 2-D input, got {a.data.shape}")
    d = a.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ValueError("layer_norm_rows: gain/bias shape must match the feature dim")
    y, xhat, inv_std = _ln_forward(a.data, gain.data, bias.data, eps)
    out = Tensor(y)

    def backward(g):
        return (_ln_backward(g, gain.data, xhat, inv_std),
                (g * xhat).sum(axis=0), g.sum(axis=0))

    return record(out, (a, gain, bias), backward)


def cross_entropy_logits(logits: Tensor, answer) -> Tensor:
    """Negative log softmax probability of the answer class.

    A 1-D logit vector and an int give a scalar; [B, c] logits and B answers
    give the B per-row losses.
    """
    z = logits.data
    if z.ndim not in (1, 2):
        raise ValueError(f"cross_entropy_logits: expected 1-D or 2-D logits, got {z.shape}")
    n = z.shape[-1]
    rows = z.reshape(-1, n)
    idx = np.asarray(answer, dtype=np.intp).reshape(-1)
    if idx.shape != (rows.shape[0],) or (z.ndim == 1) != (np.ndim(answer) == 0):
        raise ValueError(f"cross_entropy_logits: {np.shape(answer)} answers for logits {z.shape}")
    bad = (idx < 0) | (idx >= n)
    if bad.any():
        raise ValueError(f"cross_entropy_logits: answer {idx[bad][0]} out of range [0, {n})")
    r = np.arange(rows.shape[0])
    m = rows.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(rows - m).sum(axis=1, keepdims=True))
    losses = lse[:, 0] - rows[r, idx]
    out = Tensor(losses.reshape(z.shape[:-1]))
    p = np.exp(rows - lse)

    def backward(g):
        g = np.reshape(g, (-1, 1))
        dz = p * g
        dz[r, idx] -= g[:, 0]
        return (dz.reshape(z.shape),)

    return record(out, (logits,), backward)


def concat_rows(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate 2-D tensors along the rows (equal column counts), or with
    ``axis=1`` along the columns (equal row counts)."""
    if not tensors:
        raise ValueError("concat_rows: need at least one tensor")
    if axis not in (0, 1) or any(t.data.ndim != 2 for t in tensors):
        raise ValueError(f"concat_rows: cannot join along axis {axis}; tensors must be 2-D")
    other = {t.data.shape[1 - axis] for t in tensors}
    if len(other) != 1:
        what = "column" if axis == 0 else "row"
        raise ValueError(f"concat_rows: {what} counts disagree: {sorted(other)}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    ends = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, ends, axis=axis))

    return record(out, tuple(tensors), backward)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of ``table`` by integer id; gradients scatter-add back."""
    if table.data.ndim != 2:
        raise ValueError(f"embedding_lookup: table must be 2-D, got {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("embedding_lookup: ids must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError("embedding_lookup: id out of range")
    out = Tensor(table.data[idx])

    def backward(g):
        dt = np.zeros(table.data.shape)
        np.add.at(dt, idx, g)
        return (dt,)

    return record(out, (table,), backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = Tensor(a.data.reshape(shape))

    def backward(g):
        return (g.reshape(a.data.shape),)

    return record(out, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.asarray(a.data.sum()))

    def backward(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return record(out, (a,), backward)


# ---------------------------------------------------------------------------
# trainable parameters
# ---------------------------------------------------------------------------


class Parameters:
    """Insertion-ordered registry of named trainable tensors.

    Block names are the unit of checkpointing and gradient checking, so
    every trainable array in a model must be created through ``new``. The
    first use of ``flat`` packs them into one vector; then each block's
    ``data`` is a view into it and no block can be added. ``new`` checks each
    block against ``layout``, a ``(name, shape)`` list, before drawing it.
    """

    def __init__(self, layout: Sequence[tuple[str, list[int]]] | None = None):
        self._blocks: dict[str, Tensor] = {}
        self._layout = layout
        self._flat: np.ndarray | None = None

    def new(self, name: str, shape: Sequence[int], init: str, rng: np.random.Generator) -> Tensor:
        if self._flat is not None:
            raise ValueError(f"cannot add parameter block {name!r}: the blocks are packed")
        if name in self._blocks:
            raise ValueError(f"parameter block {name!r} already exists")
        shape = tuple(int(s) for s in shape)
        if self._layout is not None:
            i = len(self._blocks)
            listed = self._layout[i] if i < len(self._layout) else "no block"
            if listed != (name, list(shape)):
                raise ValueError(f"parameter blocks do not match this build: block {i} is "
                                 f"{(name, list(shape))}, listed as {listed}")
        if init == "linear":
            # fan_in is the first axis: weights are stored [in, out]
            bound = 1.0 / np.sqrt(max(shape[0], 1))
            data = rng.uniform(-bound, bound, size=shape)
        elif init == "embed":
            data = rng.normal(0.0, 0.02, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(data, requires_grad=True)
        self._blocks[name] = t
        return t

    @property
    def flat(self) -> np.ndarray:
        """Every block's values in registration order, in one float64 vector."""
        if self._flat is None:
            if self._layout is not None and len(self._layout) != len(self._blocks):
                raise ValueError(f"parameter blocks do not match this build: "
                                 f"{len(self._layout)} listed, {len(self._blocks)} built")
            blocks = self.tensors()
            self._bounds = np.cumsum([0] + [t.data.size for t in blocks]).tolist()
            self._flat = np.concatenate([np.empty(0)] + [t.data for t in blocks], axis=None)
            for t, view in zip(blocks, self.views(self._flat).values()):
                t.data = view
        return self._flat

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
