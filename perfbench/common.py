"""Shared pieces of the benchmark: paths, the trained checkpoint, inputs,
quality scoring and the host fingerprint.

Importing this module puts the checkout's ``src`` on ``sys.path`` and
imports :mod:`repro` before numpy, so BLAS is pinned to one thread for
everything that follows.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Trained checkpoints, keyed by a digest of the sources that train them.
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
#: Result records and span dumps of each run.
OUT_DIR = os.path.join(BENCH_DIR, "out")

if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"perfbench: no repro package under {SRC}")
sys.path.insert(0, SRC)

import repro  # noqa: E402,F401  (pins BLAS threads before numpy loads)
from repro._threads import blas_thread_counts  # noqa: E402

import numpy as np  # noqa: E402

from repro.corpus import ContentConfig, ResumeGenerator  # noqa: E402
from repro.docmodel import BLOCK_ENTITIES, BLOCK_SCHEME, ENTITY_SCHEME  # noqa: E402
from repro.docmodel.labels import iob_to_spans  # noqa: E402
from repro.eval import entity_prf  # noqa: E402

# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Index offsets that keep warm-up, calibration, quality and timed slices disjoint
#: (``generate_at`` seeds each document from ``[seed, index]``).
WARM_BASE = 1_000_000
CALIB_BASE = 2_000_000
EVAL_BASE = 3_000_000


def generator(seed: int, kind: str) -> ResumeGenerator:
    """``kind`` is ``tiny`` (~27 sentences) or ``paper`` (~90, Table I)."""
    config = ContentConfig.tiny() if kind == "tiny" else ContentConfig.paper()
    return ResumeGenerator(seed=seed, content_config=config)


def make_docs(gen: ResumeGenerator, start: int, count: int, prefix: str):
    return [gen.generate_at(start + i, prefix=prefix) for i in range(count)]


def stratified_indices(gen: ResumeGenerator, count: int, strata: int = 4) -> List[int]:
    """Indices of ``count`` timed documents, one from the middle of each
    size stratum of the first ``strata * count`` documents.

    Size is the sentence count (ties: token count): the sentence and
    document encoders, the BiLSTM and the CRF all scale with it.  Every
    seed's pool then has about the same size mix, so a pool of a few
    dozen documents costs about the same from seed to seed while its
    content still comes from the seed.  The indices come smallest first.
    """
    sizes = []
    for i in range(strata * count):
        doc = gen.generate_at(i, prefix="timed")
        sizes.append((doc.num_sentences, doc.num_tokens, i))
    return [i for *_, i in sorted(sizes)[strata // 2::strata]]


# ----------------------------------------------------------------------
# Trained checkpoint (built once per checkout by build.py)
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Digest of everything the checkpoint depends on."""
    h = hashlib.sha256()
    h.update(f"{sys.version_info[:2]} numpy {np.__version__}".encode())
    files = [os.path.join(BENCH_DIR, "build.py")]
    for base, dirs, names in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        files += [os.path.join(base, n) for n in sorted(names) if n.endswith(".py")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def checkpoint_dir() -> Tuple[str, float]:
    """Path of the trained parser, building it first if absent.

    Returns ``(path, build_seconds)``; the build runs in a child process
    (waited for) so its memory never shows in this run's peak RSS.
    """
    final = os.path.join(CACHE_DIR, source_digest())
    if os.path.isdir(final):
        return final, 0.0
    os.makedirs(CACHE_DIR, exist_ok=True)
    staging = final + f".tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "build.py"), staging],
        check=True, stdout=sys.stderr, timeout=800,
    )
    os.replace(staging, final)
    return final, time.perf_counter() - started


# ----------------------------------------------------------------------
# Quality
# ----------------------------------------------------------------------
def gold_block_labels(document) -> List[str]:
    return BLOCK_SCHEME.decode(document.block_iob_labels(BLOCK_SCHEME))


def label_spans(labels: Sequence[str], scheme) -> List[Tuple[int, int, str]]:
    ids = [
        scheme.label_id(l) if l in scheme.labels else scheme.outside_id
        for l in labels
    ]
    return iob_to_spans(ids, scheme)


def block_f1(documents, predicted: Sequence[Sequence[str]]) -> float:
    """Entity-level F1 of sentence IOB blocks against gold (Table II)."""
    gold = [gold_block_labels(d) for d in documents]
    return entity_prf(gold, predicted, BLOCK_SCHEME).f1


def gold_blocks(document) -> Dict[Tuple[int, int, str], List[str]]:
    """Gold block span -> gold entity labels of the block's words."""
    blocks = {}
    for start, stop, tag in label_spans(gold_block_labels(document), BLOCK_SCHEME):
        if tag in BLOCK_ENTITIES:
            blocks[(start, stop, tag)] = [
                token.entity_label
                for sentence in document.sentences[start:stop]
                for token in sentence.tokens
            ]
    return blocks


class NerScore:
    """Micro entity P/R/F1 over blocks the segmenter recovered exactly.

    A predicted block whose sentence span and tag equal a gold block has
    exactly the gold block's words, so its entities are NER on a gold
    block (the Table IV protocol) at no extra model cost.  Only entity
    types the block tag allows are scored, as :class:`ResumeParser` does.
    """

    def __init__(self):
        self.tp = self.n_pred = self.n_gold = 0
        self.blocks = 0

    def add(self, block_tag: str, gold_labels, predicted_spans) -> None:
        allowed = set(BLOCK_ENTITIES[block_tag])
        gold = {s for s in label_spans(gold_labels, ENTITY_SCHEME) if s[2] in allowed}
        pred = {s for s in predicted_spans if s[2] in allowed}
        self.tp += len(gold & pred)
        self.n_pred += len(pred)
        self.n_gold += len(gold)
        self.blocks += 1

    @property
    def f1(self) -> float:
        denom = self.n_pred + self.n_gold
        return 2.0 * self.tp / denom if denom else 0.0


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def _gemm_gflops(dtype, n: int = 256, repeats: int = 15) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    best = min(_timed(lambda: a @ b) for _ in range(repeats))
    return 2.0 * n ** 3 / best / 1e9


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def host_fingerprint() -> Dict[str, object]:
    """Which host a number came from, plus a one-shot GEMM calibration."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "config": info.get("openblas configuration"),
        }
    except TypeError:  # numpy before 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_thread_counts(),
        "dgemm_gflop_per_s": _gemm_gflops(np.float64),
        "sgemm_gflop_per_s": _gemm_gflops(np.float32),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_out(name: str, payload: Dict[str, object]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=float)
    return path
