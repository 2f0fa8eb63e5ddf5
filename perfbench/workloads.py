"""The three workloads.  Each is a closed loop with one caller that waits
for every result.

A workload holds the inputs it makes from the seed and offers:

* ``setup()`` — everything a user pays up to the first result; timed
  several times by ``run.py``;
* ``warm(system)`` — runs every path on inputs disjoint from the timed
  ones, so timed documents stay feature-cache cold;
* ``pool()`` — fresh copies of the fixed items a run cycles through;
  ``call(system, item)`` — one timed request; ``parts(result, elapsed)``
  — the seconds of each part of it, in order, summing to ``elapsed``;
  ``record(result)`` — its JSON-ready output; ``repeatable`` — whether every call on an item
  must give the same output; ``finish(system, run)`` — post-processing
  after the loop;
* ``evaluate(system, run)`` — output checks and model quality;
* ``docs_in(item)`` and ``unit`` — what throughput and per-layer times
  are normalised by.

The host this runs on is shared, and its speed drifts by tens of percent
in spells of a fraction of a second to a minute.  So a run repeats a fixed
pool of inputs, round-robin, for the whole run, and end-to-end figures
use each input's fastest time: the time the program needs on a quiet
host.  Contention only ever adds time, so the minimum over calls spread
across the run filters it out.  A long request is timed in parts (each
optimizer step on ``train``; classification and NER on ``bulk_int8``),
and its fastest time is the sum of its parts' fastest times, because a
short part is likelier than a long call to fit inside a quiet spell.

``corrupt`` names an output to damage on purpose before the checks
(``selftest.py`` uses it to prove that each check can fail).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from common import (
    CALIB_BASE,
    EVAL_BASE,
    WARM_BASE,
    NerScore,
    block_f1,
    generator,
    gold_blocks,
    label_spans,
    make_docs,
    peak_rss_mb,
    stratified_indices,
)

import numpy as np

from repro.core import (
    BlockTrainer,
    LabeledDocument,
    Pretrainer,
    collate_documents,
    collate_labels,
)
from repro.core import training
from repro.corpus import NerExample, extract_block_examples
from repro.docmodel import BLOCK_ENTITIES, BLOCK_SCHEME, ENTITY_SCHEME
from repro.ner import SelfTrainConfig, SelfTrainer
from repro.persistence import load_parser

#: A timed loop also stops at this multiple of its busy-time budget in
#: wall time, per lane (input generation between items is not timed).
WALL_CAP = 2.5
#: ``int8`` labels must agree with float64 on this share of sentences
#: (the repo's int8 gate allows a 5% drop).
INT8_AGREEMENT_FLOOR = 0.95
#: Batched CRF loss must equal the mean per-document loss to this.
CRF_PARITY_TOL = 1e-6
#: ``peak_rss_mb`` is read after this many timed requests (or at the end
#: of a shorter run), so it does not grow with how many inputs a faster
#: host gets through and the benchmark retains for its checks.
RSS_REQUESTS = 16
#: Resumes in the parse pool.
PARSE_POOL = 48
#: Resumes the parse quality figures are scored on: the pool's, then
#: untimed extra ones from the seed, so quality varies little by seed.
QUALITY_DOCS = 96


def first_docs(kinds: Sequence[str]) -> list:
    """The requests that end a set-up: the same for every seed, so
    ``setup_s`` measures the system rather than the input."""
    return [generator(0, kind).generate_at(WARM_BASE, prefix="first") for kind in kinds]


@dataclass
class Pass:
    """One timed pass over a workload's pool.

    ``pool`` holds the first copy of each pool item and ``outputs`` its
    output (every call's output on a workload that changes state between
    calls); ``calls`` is the pool index of each call, in order.
    """

    pool: list = field(default_factory=list)
    calls: List[int] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    #: Per call, the seconds of each of its parts.
    parts: List[List[float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    repeat_mismatches: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0

    @property
    def busy(self) -> float:
        return float(sum(self.latencies))

    def best_calls(self) -> List[float]:
        """Per pool item, the sum of its parts' fastest times."""
        best: Dict[Tuple[int, int], float] = {}
        for index, parts in zip(self.calls, self.parts):
            for j, seconds in enumerate(parts):
                best[index, j] = min(best.get((index, j), math.inf), seconds)
        total = [0.0] * len(self.pool)
        for (index, _), seconds in best.items():
            total[index] += seconds
        return total

    def digest(self) -> str:
        text = json.dumps(self.outputs, sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()


Lane = Tuple[object, Callable[[], contextlib.AbstractContextManager]]


def timed_passes(workload, lanes: Sequence[Lane], seconds: float) -> List[Pass]:
    """Time ``workload.call`` on the pool's items, round after round, until
    the first lane is busy for ``seconds``; the last round is finished, so
    every item is called at least once.

    Every round takes fresh copies of the pool (``workload.pool()``), so
    identity-keyed caches miss as they would on new documents.  Each lane
    is ``(system, context)``; every item runs on every lane in turn,
    inside a fresh ``context()``, so host speed drift hits all lanes alike
    and their ratios stay meaningful.  Only ``call`` is timed.
    """
    runs = [Pass() for _ in lanes]
    queue: list = []
    started = time.perf_counter()
    while queue or (runs[0].busy < seconds and (
        time.perf_counter() - started < WALL_CAP * seconds * len(lanes)
    )):
        if not queue:
            queue = list(enumerate(workload.pool()))
            # Retained inputs and outputs are the benchmark's, not the
            # program's: keep them out of the collector's scans.
            gc.freeze()
        index, item = queue.pop(0)
        for (system, context), run in zip(lanes, runs):
            first = index == len(run.pool)
            if first:
                run.pool.append(item)
            with context():
                t0 = time.perf_counter()
                try:
                    result = workload.call(system, item)
                except Exception as exc:  # counted as a failed request
                    result = exc
                elapsed = time.perf_counter() - t0
            run.calls.append(index)
            run.latencies.append(elapsed)
            if isinstance(result, Exception):
                traceback.print_exception(type(result), result, result.__traceback__)
                run.failed += 1
                run.parts.append([elapsed])
                output = {"error": f"{type(result).__name__}: {result}"}
            else:
                run.parts.append(workload.parts(result, elapsed))
                output = workload.record(result)
            if first or not workload.repeatable:
                run.outputs.append(output)
            elif output != run.outputs[index]:
                run.repeat_mismatches += 1
        if len(runs[0].calls) == RSS_REQUESTS:
            runs[0].peak_rss_mb = peak_rss_mb()
    gc.unfreeze()
    runs[0].peak_rss_mb = runs[0].peak_rss_mb or peak_rss_mb()
    for (system, _), run in zip(lanes, runs):
        workload.finish(system, run)
    return runs


class PooledWorkload:
    """Defaults shared by the workloads."""

    unit = "doc"
    #: Every call on a pool item must give that item's first output.
    repeatable = True

    @staticmethod
    def parts(result, elapsed: float) -> List[float]:
        return [elapsed]

    def finish(self, system, run: Pass) -> None:
        pass


def spans_to_labels(spans, length: int) -> List[str]:
    labels = ["O"] * length
    for start, stop, tag in spans:
        labels[start] = f"B-{tag}"
        for i in range(start + 1, stop):
            labels[i] = f"I-{tag}"
    return labels


# ----------------------------------------------------------------------
class ParseWorkload(PooledWorkload):
    """``ResumeParser.parse(doc)`` on a fresh copy of each pool resume
    (``ContentConfig.tiny()``, ~27 sentences)."""

    def __init__(self, seed: int, checkpoint: str, corrupt: str = ""):
        self.checkpoint = checkpoint
        self.corrupt = corrupt
        self.gen = generator(seed, "tiny")
        self.indices = stratified_indices(self.gen, PARSE_POOL)
        self.warm_docs = make_docs(self.gen, WARM_BASE, 8, "warm")
        self.first_doc = first_docs(["tiny"])[0]

    def setup(self):
        parser = load_parser(self.checkpoint)
        parser.parse(self.first_doc)
        return parser

    def warm(self, parser) -> None:
        for doc in self.warm_docs:
            parser.parse(doc)
        parser.block_classifier.predict_batch(self.warm_docs, batch_size=16)
        parser.block_classifier.featurizer.cache.clear()

    def pool(self) -> list:
        return [self.gen.generate_at(i, prefix="timed") for i in self.indices]

    @staticmethod
    def docs_in(item) -> int:
        return 1

    @staticmethod
    def call(parser, doc):
        return parser.parse(doc)

    @staticmethod
    def record(parsed) -> dict:
        out = parsed.to_dict()
        for block, parsed_block in zip(out["blocks"], parsed.blocks):
            indices = parsed_block.sentence_indices
            block["sentences"] = [indices[0], indices[-1] + 1]
        return out

    def evaluate(self, parser, run: Pass) -> Dict[str, object]:
        """parse == predict_batch on every document; block and NER quality."""
        extra = make_docs(self.gen, EVAL_BASE, QUALITY_DOCS - len(run.pool), "eval")
        docs = run.pool + extra
        outputs = run.outputs + [self.record(self.call(parser, doc)) for doc in extra]
        batch_labels = parser.block_classifier.predict_batch(docs, batch_size=16)
        mismatched = agree = total = 0
        ner = NerScore()
        for doc, out, labels in zip(docs, outputs, batch_labels):
            if "error" in out:
                continue
            got = [(*b["sentences"], b["tag"]) for b in out["blocks"]]
            if self.corrupt == "labels" and doc is docs[0]:
                got = got[:-1]
            expected = label_spans(labels, BLOCK_SCHEME)
            mismatched += got != expected
            mine = spans_to_labels(got, doc.num_sentences)
            reference = spans_to_labels(expected, doc.num_sentences)
            agree += sum(a == b for a, b in zip(mine, reference))
            total += doc.num_sentences
            gold = gold_blocks(doc)
            for span, block in zip(got, out["blocks"]):
                if span in gold:
                    entities = [(*e["span"], e["tag"]) for e in block["entities"]]
                    ner.add(span[2], gold[span], entities)
        errors = []
        if mismatched:
            errors.append(f"{mismatched} parse outputs differ from predict_batch")
        return {
            "errors": errors,
            "block_f1": block_f1(docs, batch_labels),
            "ner_f1": ner.f1,
            "label_agreement": agree / max(total, 1),
            "ner_blocks_scored": ner.blocks,
        }


# ----------------------------------------------------------------------
def entity_examples(documents, all_labels) -> List[NerExample]:
    """NER inputs for the predicted entity-bearing blocks of each document
    (what ``ResumeParser.segment`` + ``extract_entities`` build per doc)."""
    examples = []
    for doc, labels in zip(documents, all_labels):
        for start, stop, tag in label_spans(labels, BLOCK_SCHEME):
            if tag not in BLOCK_ENTITIES:
                continue
            words = [w for s in doc.sentences[start:stop] for w in s.words]
            examples.append(NerExample(words, ["O"] * len(words), tag, doc.doc_id))
    return examples


class BulkInt8Workload(PooledWorkload):
    """Offline int8 throughput over a tiny/paper length-mixed corpus.

    One request is a chunk of ``CHUNK`` resumes: ``predict_batch`` on the
    block classifier, then NER on every predicted entity-bearing block.
    """

    CHUNK = 4
    #: Chunks in the pool.
    CHUNKS = 12
    #: Pool documents whose int8 labels are compared with float64 ones.
    AGREEMENT_DOCS = 32

    def __init__(self, seed: int, checkpoint: str, corrupt: str = ""):
        self.checkpoint = checkpoint
        self.corrupt = corrupt
        self.gens = (generator(seed, "tiny"), generator(seed, "paper"))
        # Half of each chunk is tiny and half paper; chunk ``c`` takes the
        # ``c``-th, ``c + CHUNKS``-th, ... smallest of each kind, so every
        # chunk spans the sizes alike.
        half = self.CHUNK * self.CHUNKS // 2
        by_size = [stratified_indices(gen, half) for gen in self.gens]
        self.chunks = [
            [(kind, by_size[kind][r]) for r in range(c, half, self.CHUNKS) for kind in (0, 1)]
            for c in range(self.CHUNKS)
        ]
        # The calibration slice is part of the deployment, not of the
        # input: the same for every seed, as the set-up's first request is.
        calib_gens = (generator(0, "tiny"), generator(0, "paper"))
        self.calib_docs = [
            calib_gens[i % 2].generate_at(CALIB_BASE + i, prefix="calib") for i in range(8)
        ]
        self.calib_examples = extract_block_examples(self.calib_docs)[:32]
        self.warm_docs = self._docs(WARM_BASE, self.CHUNK, "warm")
        self.first_chunk = first_docs(["tiny", "paper"])
        # Float64 reference labels for the first pool documents.
        docs = [doc for chunk in self.pool() for doc in chunk]
        self.reference = load_parser(checkpoint).block_classifier.predict_batch(
            docs[: self.AGREEMENT_DOCS], batch_size=16
        )

    def _docs(self, start: int, count: int, prefix: str) -> list:
        """Interleaved tiny (even index) and paper (odd index) resumes."""
        return [
            self.gens[i % 2].generate_at(i, prefix=prefix)
            for i in range(start, start + count)
        ]

    def setup(self):
        parser = load_parser(self.checkpoint)
        parser.block_classifier.quantize_for_inference(self.calib_docs)
        parser.ner_tagger.quantize_for_inference(self.calib_examples)
        self.call(parser, self.first_chunk)
        return parser

    def warm(self, parser) -> None:
        self.call(parser, self.warm_docs)
        parser.block_classifier.featurizer.cache.clear()

    def pool(self) -> list:
        return [
            [self.gens[kind].generate_at(i, prefix="timed") for kind, i in chunk]
            for chunk in self.chunks
        ]

    @staticmethod
    def docs_in(item) -> int:
        return len(item)

    def call(self, parser, chunk):
        """Labels, entities, and the seconds spent classifying."""
        started = time.perf_counter()
        labels = parser.block_classifier.predict_batch(chunk, batch_size=self.CHUNK)
        classified = time.perf_counter() - started
        examples = entity_examples(chunk, labels)
        entities = parser.ner_tagger.predict_batch(examples, batch_size=32)
        return labels, entities, classified

    @staticmethod
    def parts(result, elapsed: float) -> List[float]:
        return [result[2], elapsed - result[2]]

    @staticmethod
    def record(result) -> dict:
        return {"labels": result[0], "entities": result[1]}

    def evaluate(self, parser, run: Pass) -> Dict[str, object]:
        docs, labels, ner = [], [], NerScore()
        for chunk, out in zip(run.pool, run.outputs):
            if "error" in out:
                continue
            docs += chunk
            labels += out["labels"]
            entity_labels = iter(out["entities"])
            for doc, doc_labels in zip(chunk, out["labels"]):
                gold = gold_blocks(doc)
                for start, stop, tag in label_spans(doc_labels, BLOCK_SCHEME):
                    if tag not in BLOCK_ENTITIES:
                        continue
                    predicted = next(entity_labels)
                    if (start, stop, tag) in gold:
                        ner.add(tag, gold[(start, stop, tag)],
                                label_spans(predicted, ENTITY_SCHEME))
        served = labels[: self.AGREEMENT_DOCS]
        if self.corrupt == "int8":
            served = [["O"] * len(doc) for doc in served]
        agree = sum(
            a == b for got, ref in zip(served, self.reference) for a, b in zip(got, ref)
        )
        total = sum(len(ref) for ref in self.reference[: len(served)])
        agreement = agree / max(total, 1)
        errors = []
        if agreement < INT8_AGREEMENT_FLOOR:
            errors.append(f"int8 agreement {agreement:.4f} < {INT8_AGREEMENT_FLOOR}")
        return {
            "errors": errors,
            "block_f1": block_f1(docs, labels),
            "ner_f1": ner.f1,
            "label_agreement": agreement,
            "ner_blocks_scored": ner.blocks,
        }


# ----------------------------------------------------------------------
class StepClock:
    """Times optimizer steps from outside the trainers.

    All three trainers step through ``GradAccumulator``, which calls the
    module global ``repro.core.training.apply_weighted_step`` once per
    optimizer step; while entered, the clock wraps that binding and
    records each step's time since the previous step (callers reset
    ``mark`` at the top of each ``fit`` call).
    """

    def __init__(self):
        self.original = training.apply_weighted_step
        self.mark = 0.0
        self.steps: List[float] = []

    def __enter__(self) -> "StepClock":
        def apply_weighted_step(*args, **kwargs):
            result = self.original(*args, **kwargs)
            now = time.perf_counter()
            self.steps.append(now - self.mark)
            self.mark = now
            return result

        training.apply_weighted_step = apply_weighted_step
        return self

    def __exit__(self, *exc) -> None:
        training.apply_weighted_step = self.original


@dataclass
class Trainers:
    parser: object
    pretrainer: Pretrainer
    block: BlockTrainer
    ner: SelfTrainer


class TrainWorkload(PooledWorkload):
    """Rounds of ``Pretrainer.fit``, ``BlockTrainer.fit`` and
    ``SelfTrainer.train_teacher``, one epoch each, over fresh copies of
    the same tiny resumes every round (epochs over a fixed set),
    continuing from the trained checkpoint with default dropout.  The
    first two share the featurizer, so half the feature lookups hit the
    cache.  One request is one round.
    """

    unit = "step"
    #: Each round trains further, so its losses differ from the last.
    repeatable = False
    DOCS = 8
    NER_EXAMPLES = 32
    BATCH = 4
    NER_BATCH = 16
    #: The trainers' own seed (shuffling, dropout, corruption) is part of
    #: the configuration, not of the input: the same for every run.
    TRAINER_SEED = 0

    def __init__(self, seed: int, checkpoint: str, corrupt: str = ""):
        self.checkpoint = checkpoint
        self.corrupt = corrupt
        self.gen = generator(seed, "tiny")
        self.indices = stratified_indices(self.gen, self.DOCS)
        self.warm_round = self._make_round(
            make_docs(self.gen, WARM_BASE, self.BATCH, "warm"), self.NER_BATCH
        )

    @staticmethod
    def _make_round(documents: list, ner_examples: int = NER_EXAMPLES) -> dict:
        examples = extract_block_examples(documents)
        return {
            "docs": documents,
            "labeled": [LabeledDocument.from_gold(d) for d in documents],
            "examples": [examples[i % len(examples)] for i in range(ner_examples)],
        }

    def pool(self) -> list:
        return [self._make_round(
            [self.gen.generate_at(i, prefix="train") for i in self.indices]
        )]

    @staticmethod
    def docs_in(item) -> int:
        return len(item["docs"])

    def setup(self) -> Trainers:
        parser = load_parser(self.checkpoint)
        classifier = parser.block_classifier
        return Trainers(
            parser,
            Pretrainer(classifier.encoder, classifier.featurizer, seed=self.TRAINER_SEED),
            BlockTrainer(classifier, seed=self.TRAINER_SEED),
            SelfTrainer(
                parser.ner_tagger,
                SelfTrainConfig(teacher_epochs=1, batch_size=self.NER_BATCH),
                seed=self.TRAINER_SEED,
            ),
        )

    def call(self, system: Trainers, item: dict) -> dict:
        """One epoch of each trainer: losses, per-trainer seconds, steps."""
        seconds = {}
        with StepClock() as clock:
            started = clock.mark = time.perf_counter()
            pretrain = system.pretrainer.fit(item["docs"], epochs=1, batch_size=self.BATCH)
            seconds["pretrain"] = time.perf_counter() - started
            started = clock.mark = time.perf_counter()
            block = system.block.fit(item["labeled"], epochs=1, batch_size=self.BATCH)
            seconds["finetune"] = time.perf_counter() - started
            started = clock.mark = time.perf_counter()
            system.ner.train_teacher(item["examples"], [])
            seconds["ner_train"] = time.perf_counter() - started
        return {
            "pretrain": [h.get("total", float("nan")) for h in pretrain],
            "finetune": block["loss"],
            "ner_train": [system.ner.history[-1]["loss"]],
            "_seconds": seconds,
            "_steps": clock.steps,
        }

    @staticmethod
    def parts(result: dict, elapsed: float) -> List[float]:
        """Each optimizer step, then the rest of the round."""
        steps = result["_steps"]
        return steps + [elapsed - sum(steps)]

    @staticmethod
    def record(result: dict) -> dict:
        return {name: value for name, value in result.items() if name != "_steps"}

    def warm(self, system: Trainers) -> None:
        self.call(system, self.warm_round)

    def finish(self, system: Trainers, run: Pass) -> None:
        """Move timings off the outputs; add a digest of every parameter."""
        run.trainer_seconds = dict.fromkeys(("pretrain", "finetune", "ner_train"), 0.0)
        run.steps = sum(len(parts) - 1 for parts in run.parts)
        for out in run.outputs:
            for name, value in out.pop("_seconds", {}).items():
                run.trainer_seconds[name] += value
        state = {}
        for prefix, module in (
            ("block", system.parser.block_classifier),
            ("heads", system.pretrainer.heads),
            ("ner", system.parser.ner_tagger),
        ):
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = hashlib.sha256(value.tobytes()).hexdigest()
        run.outputs.append({"state": state})

    def evaluate(self, system: Trainers, run: Pass) -> Dict[str, object]:
        errors = []
        losses = [
            value for out in run.outputs if "state" not in out
            for name in ("pretrain", "finetune", "ner_train")
            for value in out.get(name, [])
        ]
        if self.corrupt == "loss":
            losses.append(float("nan"))
        bad = sum(not math.isfinite(v) for v in losses)
        if bad or not losses:
            errors.append(f"{bad} of {len(losses)} training losses are not finite")

        # Quality on the last round's resumes, just trained on.
        last = run.pool[-1]
        docs, examples = last["docs"], last["examples"]
        classifier = system.parser.block_classifier
        classifier.eval()
        batch_labels = classifier.predict_batch(docs, batch_size=8)
        single = [classifier.predict(d) for d in docs]
        agree = sum(a == b for x, y in zip(single, batch_labels) for a, b in zip(x, y))
        total = sum(len(x) for x in batch_labels)
        if single != batch_labels:
            errors.append("predict differs from predict_batch after training")

        features = [classifier.featurizer.featurize(d) for d in docs[: self.BATCH]]
        labels = [item.labels for item in last["labeled"][: self.BATCH]]
        batched = float(classifier.loss_batch(
            collate_documents(features), collate_labels(features, labels)
        ).data)
        per_doc = float(np.mean([
            classifier.loss(f, l).data for f, l in zip(features, labels)
        ]))
        if self.corrupt == "crf":
            per_doc += 1e-3
        parity = abs(batched - per_doc)
        if not parity <= CRF_PARITY_TOL:
            errors.append(f"batched vs per-document CRF loss differ by {parity:.3g}")

        tagger = system.parser.ner_tagger
        predicted = tagger.predict_batch(examples, batch_size=32)
        ner = NerScore()
        for example, labels in zip(examples, predicted):
            ner.add(example.block_tag, example.labels, label_spans(labels, ENTITY_SCHEME))
        return {
            "errors": errors,
            "block_f1": block_f1(docs, batch_labels),
            "ner_f1": ner.f1,
            "label_agreement": agree / max(total, 1),
            "crf_parity": parity,
            "losses": len(losses),
        }


WORKLOADS = {
    "parse_short": ParseWorkload,
    "bulk_int8": BulkInt8Workload,
    "train": TrainWorkload,
}
