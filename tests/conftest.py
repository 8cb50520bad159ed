import json
import os
import sys

import numpy as np
import pytest

import granalign as ga
import granalign.autodiff as ad
from granalign import encoder, training
from reference_ops import add, layer_norm_rows, matmul, relu, reshape, stacked_weights

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after capture has ended."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance")
    if mod is None or not getattr(mod, "CRITERION_LOG", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.CRITERION_LOG:
        terminalreporter.write_line(line)
    for table in getattr(mod, "ABLATION_TABLE", []):
        terminalreporter.write_line("")
        terminalreporter.write_line(table)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def built_model(config: dict, words, answers, word_vectors=None, d_region=4, d_spatial=4,
                seed=0):
    """``training.build_model`` for these vocabularies and feature widths and no
    corpus, with the word-vector file ``word_vectors`` if one is given."""
    vocab = ga.Dataset([], list(words), list(answers), d_region, d_spatial, grid_size=1)
    return training.build_model(vocab, config, seed, word_vectors)


def load_fixture(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="session")
def girl_dog():
    """Two-object scene (girl left of brown dog) with its attribute question."""
    doc = load_fixture("girl_dog.json")
    scene = ga.ingest.scene_from_dict(doc["scene"])
    question = ga.ingest.question_from_dict(doc["question"])
    return scene, question


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A 40/10 toy corpus shared by the model and training tests."""
    out = tmp_path_factory.mktemp("corpus")
    train_path, eval_path = ga.gen_corpus(ga.DEFAULT_WORLD, 40, 10, 11, str(out))
    return ga.load_manifest(train_path), ga.load_manifest(eval_path), str(out)


def fd_gradient(f, arr: np.ndarray, coords, step: float = 1e-6) -> dict:
    """Independent central-difference oracle: coord -> derivative of f()."""
    out = {}
    flat = arr.reshape(-1)
    for c in coords:
        c = int(c)
        saved = flat[c]
        flat[c] = saved + step
        up = f()
        flat[c] = saved - step
        down = f()
        flat[c] = saved
        out[c] = (up - down) / (2.0 * step)
    return out


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def weighted_sum(t, w) -> "ad.Tensor":
    """Scalar sum(t * w) for a constant array ``w``, taped as reshape and matmul."""
    w = np.asarray(w, dtype=np.float64)
    row = reshape(t, (1, w.size))
    return reshape(matmul(row, ad.Tensor(w.reshape(w.size, 1))), ())


# ---------------------------------------------------------------------------
# reference lead-graph assembly: the LeadGraph chain that leadgraph.mask_plan
# builds directly as bool arrays
# ---------------------------------------------------------------------------


def level_graph(level):
    """The lead graph of one level: all ones if it is ``full``, else its pairs."""
    if level.full:
        return ga.full_graph(level.n_tokens)
    return ga.pairs_to_matrix(level.pairs, level.n_tokens)


def mask_for_layer(masks, layer: int):
    """Mask for 0-based ``layer``; layers past the third reuse the third mask."""
    return masks[min(layer, 2)]


def append_sep_mask(g_img, connect_all: bool = True):
    """Grow an image mask by one trailing SEP position.

    With ``connect_all`` the SEP row and column are all ones; otherwise SEP
    only attends to itself. The result is marked ``has_sep``, and a second
    append raises ValueError.
    """
    if getattr(g_img, "has_sep", False):
        raise ValueError("SEP already appended to this lead graph")
    ni = g_img.size
    m = np.zeros((ni + 1, ni + 1))
    m[:ni, :ni] = g_img.matrix
    if connect_all:
        m[ni, :] = 1.0
        m[:, ni] = 1.0
    else:
        m[ni, ni] = 1.0
    g = ga.LeadGraph(m)
    g.has_sep = True
    return g


def parse_grid(text: str):
    """Inverse of ``leadgraph.format_grid``; '#' lines are skipped."""
    rows = [[float(v) for v in line.split()] for line in text.strip().splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return ga.LeadGraph(np.array(rows))


# ---------------------------------------------------------------------------
# reference encoder layer: the op-by-op chain the fused tape node replaced
# ---------------------------------------------------------------------------


def multi_head_ga(x, g, layer, num_heads):
    """All heads of masked attention plus the output projection, for one sequence.

    The head loop runs batched in one tape node, equivalent to per-head
    ga_attention on sliced projections.
    """
    gm = g.matrix if isinstance(g, ga.LeadGraph) else np.asarray(g, dtype=np.float64)
    n, d_model = x.data.shape
    if d_model % num_heads != 0:
        raise ValueError("d_model not divisible by head count")
    d_k = d_model // num_heads
    wq, wk, wv = layer.wq, layer.wk, layer.wv

    def split(a):
        return a.reshape(n, num_heads, d_k).transpose(1, 0, 2)

    def join(a):
        return a.transpose(1, 0, 2).reshape(n, d_model)

    out3, cache = encoder._ga_forward(split(x.data @ wq.data), split(x.data @ wk.data),
                                      split(x.data @ wv.data), gm[None])
    heads = ad.Tensor(join(out3))

    def backward(grad):
        d_q, d_k_, d_v = (join(a) for a in encoder._ga_backward(split(grad), cache))
        d_x = d_q @ wq.data.T + d_k_ @ wk.data.T + d_v @ wv.data.T
        return d_x, x.data.T @ d_q, x.data.T @ d_k_, x.data.T @ d_v

    ad.record(heads, (x, wq, wk, wv), backward)
    return matmul(heads, layer.wo)


def feed_forward(x, layer):
    hidden = relu(add(matmul(x, layer.ffn_w1), layer.ffn_b1))
    return add(matmul(hidden, layer.ffn_w2), layer.ffn_b2)


def reference_encoder_layer(x, g, weights, inputs, cfg, layout, blocks=None):
    """Post-norm residual layer as a chain of autodiff ops, one sequence at a time.

    Takes the fused layer's arguments; the layout must hold one sequence of
    one stack, whose 12 blocks ``inputs`` lists. Attention always runs over
    the full mask ``g[0]``: ``blocks`` only names where the fused layer may
    skip work, and ``weights`` holds the values of ``inputs``, so both are
    ignored here.
    """
    assert layout.batch == 1 and layout.dense
    layer = encoder.LayerParams(*inputs)
    attended = multi_head_ga(x, g[0], layer, cfg.num_heads)
    y = layer_norm_rows(add(x, attended), layer.ln1_gain, layer.ln1_bias, encoder.EPS_NORM)
    return layer_norm_rows(add(y, feed_forward(y, layer)),
                           layer.ln2_gain, layer.ln2_bias, encoder.EPS_NORM)


def fused_layer(x, g, layer, cfg, layout, blocks=encoder.WHOLE_GRID):
    """``encoder_layer`` of one stack's ``LayerParams`` of blocks ``layer``,
    on weights stacked from copies of them."""
    return encoder.encoder_layer(x, g, stacked_weights(layer), layer, cfg, layout, blocks)


def whole_grid_plan(layout, masks):
    """``encoder._segment_plan`` without segment groups: every layer scores the
    whole padded grid of ``layout`` as one block, the computation the grouped
    plan must match."""
    g = layout.pad_masks(masks)
    return g, [encoder.WHOLE_GRID] * len(g)


def whole_grid(m):
    """Make every stack call under the monkeypatch context ``m`` run on the
    one-segment layout of its parts, whose grid holds each row at its
    sequence position, and score each layer's whole grid: the unaligned
    reference of the grouped, segment-aligned path."""
    layout = encoder.Layout
    m.setattr(encoder, "Layout", lambda *parts, split=None, groups=1: layout(*parts,
                                                                              groups=groups))
    m.setattr(encoder, "_segment_plan", whole_grid_plan)


def reference_batch(model, preps, monkeypatch):
    """Per-sample losses and batch-mean gradients the per-sample way: one tape
    per sample through the reference layer chain, ``accum += g / B``, each
    stream's stack run alone, since the chain runs one sequence at a time."""
    names = model.params.names()
    accum = {name: np.zeros_like(t.data) for name, t in model.params.items()}
    inv = 1.0 / len(preps)
    losses = []
    with monkeypatch.context() as m:
        m.setattr(encoder, "encoder_layer", reference_encoder_layer)
        m.setattr(encoder, "MERGE_GRID_CELLS", 0)
        for prep in preps:
            with ad.Tape() as tape:
                loss = model.loss(model.forward(prep), prep.answer_index)
            for name, g in zip(names, tape.gradients(loss, model.params.tensors())):
                accum[name] += inv * g
            losses.append(float(loss.data))
    return np.array(losses), accum


# ---------------------------------------------------------------------------
# reference optimizer: textbook Adam, one block at a time
# ---------------------------------------------------------------------------


class TextbookAdam:
    """Adam with bias correction, updating each parameter block on its own
    with the elementwise operations of the textbook formula; the flat
    chunked ``training.Adam`` must match it bitwise."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def step(self, grads):
        b1, b2 = training.BETA1, training.BETA2
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        for name, tensor in self.params.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            tensor.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)
