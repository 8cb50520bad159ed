"""Binary lead graphs: one pairs-to-cells rule and one table of layer rules.

A lead graph is a square 0/1 matrix over token positions that multiplies
into the attention matrix, restricting which connections an encoder layer
may use. A level's graph is all ones if it is ``full``, else the cells of its
pairs (``_pairs_mask``); ``_layer_rules`` combines an image and a question
graph per encoder layer:

  layer 1: question self-attention only
  layer 2: cross-modal attention only
  layer 3: within-modality structure plus full cross-modal attention

``mask_plan`` reads these rules for the model's bool plans, once per sample in
``prepare``; ``LeadGraph`` is their float64 view for the acceptance gate.
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


def _pairs_mask(pairs: Sequence[Pair], n: int) -> np.ndarray:
    """Bool [n, n] with cell (src, dst) set for every pair; duplicates are harmless."""
    m = np.zeros((n, n), dtype=bool)
    if pairs:
        try:  # one scatter; ravel_multi_index rejects a cell outside the grid
            m.reshape(-1)[np.ravel_multi_index(tuple(zip(*pairs)), (n, n))] = True
        except ValueError:
            for src, dst in pairs:
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(f"pair ({src}, {dst}) out of range for {n} tokens") from None
            raise
    return m


def pairs_to_matrix(pairs: Sequence[Pair], n: int) -> LeadGraph:
    """Set cell (src, dst) to 1 for every pair; duplicates are harmless."""
    return LeadGraph(_pairs_mask(pairs, n))


def full_graph(n: int) -> LeadGraph:
    return LeadGraph(np.ones((n, n)))


def _layer_rules(g_img: np.ndarray, g_q: np.ndarray) -> np.ndarray:
    """Bool [3, n, n] masks of layers 1, 2 and 3 on, image block first."""
    ni = len(g_img)
    n = ni + len(g_q)
    rules = np.zeros((3, n, n), dtype=bool)
    rules[0, ni:, ni:] = True  # layer 1: question block only
    rules[1:, :ni, ni:] = rules[1:, ni:, :ni] = True  # layers 2 on: every cross-modal pair
    rules[2, :ni, :ni], rules[2, ni:, ni:] = g_img, g_q  # layer 3 on: plus both graphs
    return rules


def layer_masks(g_img: LeadGraph, g_q: LeadGraph) -> tuple[LeadGraph, LeadGraph, LeadGraph]:
    """The three combined masks, image block first, question block second."""
    return tuple(LeadGraph(r) for r in _layer_rules(g_img.matrix == 1.0, g_q.matrix == 1.0))


def _level_mask(level: LevelData) -> np.ndarray:
    """A level's graph: all ones if it is ``full``, else its pairs."""
    n = level.n_tokens
    return np.ones((n, n), dtype=bool) if level.full else _pairs_mask(level.pairs, n)


def mask_plan(img: LevelData, q: LevelData, num_layers: int, use_lead_graphs: bool = True,
              sep_connect_all: bool = True) -> np.ndarray:
    """Bool [num_layers, n, n] masks over [image; SEP; question]; all ones without lead graphs.

    Layer i holds ``_layer_rules(g_img, g_q)[min(i, 2)]``, where ``g_img`` grows the
    image level's graph by a trailing SEP, whose row and column are all ones with
    ``sep_connect_all``; else SEP attends only to itself.
    """
    ni, nq = img.n_tokens + 1, q.n_tokens  # image block, SEP included
    if not use_lead_graphs:
        return np.ones((num_layers, ni + nq, ni + nq), dtype=bool)
    g_img = np.zeros((ni, ni), dtype=bool)
    g_img[:-1, :-1] = _level_mask(img)
    sep = slice(None) if sep_connect_all else -1
    g_img[-1, sep] = g_img[sep, -1] = True
    rules = _layer_rules(g_img, _level_mask(q))
    return rules[:num_layers] if num_layers <= 3 else rules[[0, 1] + [2] * (num_layers - 2)]


def format_grid(m: np.ndarray) -> str:
    """Render a 0/1 mask as lines of space-separated digits (golden-file friendly)."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in m)
