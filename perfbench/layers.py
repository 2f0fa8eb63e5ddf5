"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer at the
binding their callers use (class attributes for methods; every
``repro.*`` module global bound to the function for free functions) and
records one span per call: name, start, end and the enclosing span.
Entering a :class:`LayerTrace` installs the wrappers; leaving restores
every binding, so traced and untraced code paths are otherwise identical.
Spans stay in memory as flat arrays until :meth:`LayerTrace.summary`
turns them into self times (a span's duration minus its child spans)
and analytic op counts.

Op counts are computed from tensor shapes, not measured: a GEMM of
``(m, k) @ (k, n)`` is ``2·m·n·k`` FLOPs, attention adds ``QKᵀ`` and
``AV`` (``4·b·t²·d`` per layer), and LayerNorm/GELU move their input
once in and once out.
"""

from __future__ import annotations

import functools
from collections import defaultdict
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import batching
from repro.core.batching import DocumentBatch
from repro.core.document_encoder import DocumentEncoder
from repro.core.featurize import Featurizer
from repro.core.sentence_encoder import SentenceEncoder
from repro.core.block_classifier import BlockClassifier
from repro.core.pretrain import Pretrainer
from repro.ner.encoding import NerFeaturizer
from repro.ner.model import NerTagger
from repro.nn import attention, functional, optim
from repro.nn.attention import MultiHeadSelfAttention, TransformerEncoder
from repro.nn.crf import LinearChainCrf
from repro.nn.layers import LayerNorm, Linear
from repro.nn.quantize import QuantizedLinear
from repro.nn.recurrent import BiLstm
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.pipeline import ResumeParser
from repro.text.wordpiece import WordPieceTokenizer

#: ``ops(args, kwargs, result) -> (flops, bytes)``; ``None`` drops the
#: span (its time stays with the parent).
Ops = Callable[[tuple, dict, object], Optional[Tuple[float, float]]]
_ABSENT = object()


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _linear_ops(args, kwargs, result):
    layer, x = args[0], _data(args[1])
    return 2.0 * x.size * layer.out_features, 0.0


def _linear_graph_ops(args, kwargs, result):
    # Under no_grad the forward delegates to infer, which counts itself.
    return _linear_ops(args, kwargs, result) if is_grad_enabled() else (0.0, 0.0)


def _quantized_ops(args, kwargs, result):
    layer, x = args[0], _data(args[1])
    if layer.calibrating:
        return 0.0, 0.0  # the float fallback counts as ``linear``
    return 2.0 * x.size * layer.weight_f32.shape[1], 0.0


def _stacked_qkv_ops(args, kwargs, result):
    if result is None:
        return None  # float model: nothing quantized happened
    return 2.0 * _data(args[1]).size * result.shape[-1], 0.0


def _bytes_ops(args, kwargs, result):
    return 0.0, 2.0 * _data(args[1]).nbytes


def _bytes_graph_ops(args, kwargs, result):
    return _bytes_ops(args, kwargs, result) if is_grad_enabled() else (0.0, 0.0)


def _gelu_ops(args, kwargs, result):
    return 0.0, 2.0 * _data(args[0]).nbytes


def _gelu_graph_ops(args, kwargs, result):
    return _gelu_ops(args, kwargs, result) if is_grad_enabled() else (0.0, 0.0)


def _stack_infer_ops(args, kwargs, result):
    stack, x = args[0], _data(args[1])
    b, t, d = x.shape
    return 4.0 * b * t * t * d * len(stack.layers), 0.0


def _stack_block_ops(args, kwargs, result):
    stack, flat, blocks = args[0], args[1], args[2]
    d = flat.shape[-1]
    return sum(4.0 * n * t * t * d for _, n, t in blocks) * len(stack.layers), 0.0


def _attention_graph_ops(args, kwargs, result):
    module, x = args[0], _data(args[1])
    b, t, d = x.shape
    core = 4.0 * b * t * t * d
    if module.dropout.training and module.dropout.p > 0.0:
        return core, 0.0  # compositional path: projections are Linear spans
    return core + 8.0 * b * t * d * d, 0.0  # fused node does QKV + out too


def _collate_ops(counters):
    def ops(args, kwargs, result: DocumentBatch):
        counters["collate.slots"] += result.sentence_mask.size
        counters["collate.sentences"] += float(result.lengths.sum())
        return 0.0, 0.0
    return ops


def _ner_featurize_ops(counters):
    def ops(args, kwargs, result):
        counters["ner.examples"] += len(args[1])
        return 0.0, 0.0
    return ops


class LayerTrace:
    """Installable span recorder over the layer entry points below."""

    def __init__(self):
        #: Counts recorded at layer boundaries, beside the spans.
        self.counters: Dict[str, float] = defaultdict(float)
        c = self.counters
        #: (owner, attribute, span name, ops)
        self.methods: List[Tuple[object, str, str, Optional[Ops]]] = [
            (ResumeParser, "segment", "pipeline.segment", None),
            (ResumeParser, "extract_entities", "pipeline.extract_entities", None),
            (Featurizer, "featurize", "featurize", None),
            (WordPieceTokenizer, "tokenize_word", "wordpiece", None),
            (WordPieceTokenizer, "encode", "wordpiece", None),
            (SentenceEncoder, "forward", "sentence_encoder", None),
            (SentenceEncoder, "infer_buckets", "sentence_encoder", None),
            (DocumentEncoder, "forward", "document_encoder", None),
            (DocumentEncoder, "forward_batch", "document_encoder", None),
            (DocumentEncoder, "infer_batch", "document_encoder", None),
            (MultiHeadSelfAttention, "forward", "attention", _attention_graph_ops),
            (MultiHeadSelfAttention, "_quantized_qkv", "quantize", _stacked_qkv_ops),
            (TransformerEncoder, "infer", "attention", _stack_infer_ops),
            (TransformerEncoder, "infer_block", "attention", _stack_block_ops),
            (Linear, "forward", "linear", _linear_graph_ops),
            (Linear, "infer", "linear", _linear_ops),
            (LayerNorm, "forward", "layernorm", _bytes_graph_ops),
            (LayerNorm, "infer", "layernorm", _bytes_ops),
            (QuantizedLinear, "infer", "quantize", _quantized_ops),
            (BiLstm, "forward", "bilstm", None),
            (BiLstm, "infer", "bilstm", None),
            (LinearChainCrf, "decode", "crf.decode", None),
            (LinearChainCrf, "neg_log_likelihood", "crf.nll", None),
            (NerFeaturizer, "featurize", "ner.featurize", _ner_featurize_ops(c)),
            (NerTagger, "logits", "ner.logits", None),
            (Pretrainer, "pretrain_losses", "pretrain.forward", None),
            (BlockClassifier, "loss_batch", "finetune.forward", None),
            (NerTagger, "loss", "ner_train.forward", None),
            (Tensor, "backward", "autograd.backward", None),
            (optim.AdamW, "step", "optim.step", None),
        ]
        #: (defining module, function name, span name, ops)
        self.functions: List[Tuple[object, str, str, Optional[Ops]]] = [
            (functional, "gelu", "gelu", _gelu_graph_ops),
            (functional, "gelu_ndarray", "gelu", _gelu_ops),
            (functional, "softmax", "softmax", None),
            (functional, "softmax_ndarray", "softmax", None),
            (attention, "_masked_softmax_np", "softmax", None),
            (batching, "collate_documents", "batching.collate", _collate_ops(c)),
            (optim, "clip_grad_norm", "optim.clip", None),
        ]
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._patches = None
        #: Per span: name id, parent index (-1 = top level), start, end (ns).
        self.spans = array("q")
        #: Per span: flops, bytes.
        self.ops = array("d")
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, ops: Optional[Ops]):
        name_id = self._name_id(name)
        clock = time.perf_counter_ns
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = trace.spans
            stack = trace._stack
            index = len(spans) // 4
            spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
            trace.ops.extend((0.0, 0.0))
            stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[4 * index + 3] = clock()
                stack.pop()
                if ops is not None:
                    counted = ops(args, kwargs, result)
                    if counted is None:
                        spans[4 * index] = -1
                    else:
                        trace.ops[2 * index] = counted[0]
                        trace.ops[2 * index + 1] = counted[1]

        return wrapper

    def _build_patches(self) -> List[Tuple[object, str, object, object]]:
        """(owner, attribute, original or _ABSENT, wrapper) per binding."""
        patches = []
        for owner, attr, name, ops in self.methods:
            original = vars(owner).get(attr, _ABSENT)
            wrapper = self._wrap(getattr(owner, attr), name, ops)
            patches.append((owner, attr, original, wrapper))
        for module, attr, name, ops in self.functions:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, ops)
            # Every module global that callers resolve at call time.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def __enter__(self) -> "LayerTrace":
        if self._patches is None:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: self seconds, calls, flops, bytes; plus ``_top``
        (seconds under top-level spans)."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4).copy()
        ops = np.frombuffer(self.ops, dtype=np.float64).reshape(-1, 2)
        if len(table) == 0:
            return {"_top": {"seconds": 0.0}}
        # Dropped spans hand their children to their own parent.
        parent = table[:, 1].copy()
        dropped = table[:, 0] < 0
        while True:
            hop = (parent >= 0) & dropped[np.maximum(parent, 0)]
            if not hop.any():
                break
            parent[hop] = parent[parent[hop]]
        keep = ~dropped
        duration = (table[:, 3] - table[:, 2]).astype(np.float64) / 1e9
        child = np.zeros(len(table))
        inner = keep & (parent >= 0)
        np.add.at(child, parent[inner], duration[inner])
        own = duration - child
        out: Dict[str, Dict[str, float]] = {
            "_top": {"seconds": float(duration[keep & (parent < 0)].sum())}
        }
        for name_id, name in enumerate(self.names):
            rows = keep & (table[:, 0] == name_id)
            if rows.any():
                out[name] = {
                    "seconds": float(own[rows].sum()),
                    "calls": int(rows.sum()),
                    "flops": float(ops[rows, 0].sum()),
                    "bytes": float(ops[rows, 1].sum()),
                }
        return out

    def dump(self, path: str) -> None:
        """Write the raw spans (and names) as a compressed npz."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            spans=np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4),
            ops=np.frombuffer(self.ops, dtype=np.float64).reshape(-1, 2),
        )
