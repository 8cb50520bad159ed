"""Binary lead graphs: levels to masks, per-layer mask assembly, SEP handling.

A lead graph is a square 0/1 matrix over token positions that multiplies
into the attention matrix, restricting which connections an encoder layer
may use. Single-modality graphs come from a level's pairs or ``full`` flag;
the combined image+question masks differ per encoder layer:

  layer 1: question self-attention only
  layer 2: cross-modal attention only
  layer 3: within-modality structure plus full cross-modal attention

``mask_plan`` builds a stream's per-layer masks once per sample, in ``prepare``,
as bool arrays, without going through ``LeadGraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import LevelData

Pair = tuple[int, int]


@dataclass
class LeadGraph:
    """Square binary mask over token positions."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"lead graph must be square, got shape {m.shape}")
        if not ((m == 0.0) | (m == 1.0)).all():
            raise ValueError("lead graph entries must be 0 or 1")
        self.matrix = m

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def pairs_to_matrix(pairs: Sequence[Pair], n: int) -> LeadGraph:
    """Set cell (src, dst) to 1 for every pair; duplicates are harmless."""
    m = np.zeros((n, n))
    for src, dst in pairs:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"pair ({src}, {dst}) out of range for {n} tokens")
        m[src, dst] = 1.0
    return LeadGraph(m)


def full_graph(n: int) -> LeadGraph:
    return LeadGraph(np.ones((n, n)))


def layer_masks(g_img: LeadGraph, g_q: LeadGraph) -> tuple[LeadGraph, LeadGraph, LeadGraph]:
    """The three combined masks, image block first, question block second."""
    ni, nq = g_img.size, g_q.size
    n = ni + nq

    m1 = np.zeros((n, n))
    m1[ni:, ni:] = 1.0

    m2 = np.zeros((n, n))
    m2[:ni, ni:] = 1.0
    m2[ni:, :ni] = 1.0

    m3 = np.ones((n, n))
    m3[:ni, :ni] = g_img.matrix
    m3[ni:, ni:] = g_q.matrix

    return LeadGraph(m1), LeadGraph(m2), LeadGraph(m3)


def _level_mask(level: LevelData) -> np.ndarray:
    """A level's graph: all ones if it is ``full``, else its pairs."""
    n = level.n_tokens
    if level.full:
        return np.ones((n, n), dtype=bool)
    m = np.zeros((n, n), dtype=bool)
    if level.pairs:
        src, dst = zip(*level.pairs)
        m[list(src), list(dst)] = True
    return m


def mask_plan(img: LevelData, q: LevelData, num_layers: int, use_lead_graphs: bool = True,
              sep_connect_all: bool = True) -> np.ndarray:
    """Bool [num_layers, n, n] masks over [image; SEP; question]; all ones without lead graphs.

    Layer i holds ``layer_masks(g_img, g_q)[min(i, 2)]``, where ``g_q`` is the
    question level's graph and ``g_img`` the image level's graph grown by a
    trailing SEP position (SEP row and column all ones with
    ``sep_connect_all``, else SEP attends only to itself).
    """
    ni = img.n_tokens + 1  # image block, SEP included
    n = ni + q.n_tokens
    plan = np.ones((num_layers, n, n), dtype=bool)
    if not use_lead_graphs:
        return plan
    plan[0, :ni] = False  # layer 1: question block only
    plan[0, ni:, :ni] = False
    if num_layers > 1:  # layer 2: cross-modal blocks only
        plan[1, :ni, :ni] = False
        plan[1, ni:, ni:] = False
    if num_layers > 2:  # layer 3 on: both level graphs plus every cross-modal pair
        g_img = np.zeros((ni, ni), dtype=bool)
        g_img[:-1, :-1] = _level_mask(img)
        if sep_connect_all:
            g_img[-1, :] = True
            g_img[:, -1] = True
        else:
            g_img[-1, -1] = True
        plan[2:, :ni, :ni] = g_img
        plan[2:, ni:, ni:] = _level_mask(q)
    return plan


def format_grid(g: LeadGraph) -> str:
    """Render as lines of space-separated 0/1 digits (golden-file friendly)."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in g.matrix)
