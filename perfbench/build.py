"""Train the parser every parse/bulk workload serves, and save it.

Usage: ``python3 perfbench/build.py <output-dir>``.  ``run.py`` calls it
once per checkout (the first run of a source tree) and caches the result
under ``perfbench/.cache``.  Training uses fixed seeds and a fixed corpus,
independent of any workload seed, so the checkpoint is a pure function
of the source tree.
"""

from __future__ import annotations

import sys
import time

from common import generator, make_docs

import numpy as np

from repro.core import (
    BlockClassifier,
    BlockTrainer,
    Featurizer,
    HierarchicalEncoder,
    LabeledDocument,
    ResuFormerConfig,
)
from repro.corpus import extract_block_examples
from repro.ner import NerConfig, NerTagger, SelfTrainConfig, SelfTrainer
from repro.persistence import save_parser
from repro.pipeline import ResumeParser
from repro.text import WordPieceTokenizer

SEED = 2023
TINY_DOCS = 48
PAPER_DOCS = 16
VALIDATION_DOCS = 8
VOCAB_SIZE = 1200
BLOCK_EPOCHS = 12
NER_EPOCHS = 12


def log(message: str) -> None:
    print(f"[build] {message}", file=sys.stderr, flush=True)


def main(out_dir: str) -> None:
    started = time.perf_counter()
    train = make_docs(generator(SEED, "tiny"), 0, TINY_DOCS, "build")
    train += make_docs(generator(SEED, "paper"), 0, PAPER_DOCS, "build-paper")
    validation = make_docs(generator(SEED + 1, "tiny"), 0, VALIDATION_DOCS, "val")
    tokenizer = WordPieceTokenizer.train(
        (s.text for d in train for s in d.sentences),
        vocab_size=VOCAB_SIZE,
        min_frequency=1,
    )
    config = ResuFormerConfig(vocab_size=len(tokenizer.vocab))
    classifier = BlockClassifier(
        HierarchicalEncoder(config, rng=np.random.default_rng(SEED)),
        Featurizer(tokenizer, config),
        rng=np.random.default_rng(SEED + 1),
    )
    history = BlockTrainer(classifier, seed=SEED).fit(
        [LabeledDocument.from_gold(d) for d in train],
        validation=[LabeledDocument.from_gold(d) for d in validation],
        epochs=BLOCK_EPOCHS,
        patience=4,
    )
    log(f"block classifier: val accuracy {history['val_accuracy']}")

    tagger = NerTagger(
        NerConfig(vocab_size=len(tokenizer.vocab)),
        tokenizer,
        rng=np.random.default_rng(SEED + 2),
    )
    trainer = SelfTrainer(
        tagger,
        SelfTrainConfig(teacher_epochs=NER_EPOCHS, teacher_patience=4,
                        learning_rate=2e-3),
        seed=SEED,
    )
    trainer.train_teacher(
        extract_block_examples(train), extract_block_examples(validation)
    )
    log(f"ner tagger: val f1 {[round(h['val_f1'], 3) for h in trainer.history]}")

    save_parser(ResumeParser(classifier, tagger), out_dir)
    log(f"saved to {out_dir} in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: build.py <output-dir>")
    main(sys.argv[1])
