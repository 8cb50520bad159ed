"""Granularity-aligned VQA model built on a from-scratch autodiff tape.

Images and questions are each stratified into three granularity levels,
aligned pairwise by three masked-attention encoder streams, and fused
into a joint answer prediction. Everything numerical is float64 numpy.
"""

from . import autodiff, data, encoder, ingest, leadgraph, model, training
from .autodiff import Parameters, Tape, Tensor
from .data import DEFAULT_WORLD, Dataset, Sample, ToyWorldSpec, gen_corpus, load_manifest, solve
from .encoder import EncoderConfig, EncoderStack, ga_attention, sentence_pretransform
from .ingest import LevelData, QuestionParse, SceneGraph, SchemaError, Vocab
from .leadgraph import LeadGraph, full_graph, layer_masks, pairs_to_matrix
from .model import LogitsBundle, Model, ModelConfig, PreparedSample
from .training import Adam, Trainer, TrainConfig, evaluate, gradcheck, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
