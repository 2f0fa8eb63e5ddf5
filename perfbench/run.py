"""The repo benchmark: time per resume through the parser, bulk int8
classification and the three trainers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload parse_short --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics from a separate traced run.
The last stdout line is the result object; the line before it is the
full record (host fingerprint, samples, checks, raw layer table), also
written under ``perfbench/out``.  The exit code is 0 only when every
output check passed.  See ``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import sys
import time

from common import OUT_DIR, checkpoint_dir, host_fingerprint, write_out

import numpy as np

from repro import obs
from layers import LayerTrace
from workloads import WORKLOADS, timed_passes

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) * 1000.0


def processed_docs(workload, run) -> int:
    """Documents in every call of ``run``."""
    return sum(workload.docs_in(run.pool[index]) for index in run.calls)


def end_to_end(workload, run, quality, setup_s, attempted, failed):
    """Timings from each pool item's fastest call (see ``workloads``)."""
    latencies = run.best_calls()
    pool_docs = sum(workload.docs_in(item) for item in run.pool)
    return {
        "setup_s": (setup_s, "s"),
        "docs_per_s": (pool_docs / sum(run.best_calls()), "docs/s"),
        "latency_p50_ms": (percentile_ms(latencies, 50), "ms"),
        "block_f1": (quality["block_f1"], "fraction"),
        "ner_f1": (quality["ner_f1"], "fraction"),
        "label_agreement": (quality["label_agreement"], "fraction"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "success_rate": (1.0 - failed / attempted, "fraction"),
    }


def per_layer(table, counters, units, host, ratios, cache_hits, rates):
    """Per-layer metrics from a traced pass (times per doc or per step)."""

    def seconds(name):
        return table.get(name, {}).get("seconds", 0.0)

    def ms(name):
        return seconds(name) * 1000.0 / units

    def per_second(name, key, scale):
        busy = seconds(name)
        return table.get(name, {}).get(key, 0.0) / busy / scale if busy else 0.0

    dgemm, sgemm = host["dgemm_gflop_per_s"], host["sgemm_gflop_per_s"]
    slots = counters.get("collate.slots", 0.0)
    metrics = {
        "pipeline.segment_ms": ms("pipeline.segment"),
        "pipeline.extract_entities_ms": ms("pipeline.extract_entities"),
        "featurize.self_ms": ms("featurize"),
        "wordpiece.self_ms": ms("wordpiece"),
        "featurize.cache_hit_ratio": cache_hits,
        "batching.collate_ms": ms("batching.collate"),
        "batching.padding_waste": (
            1.0 - counters.get("collate.sentences", 0.0) / slots if slots else 0.0
        ),
        "sentence_encoder.self_ms": ms("sentence_encoder"),
        "document_encoder.self_ms": ms("document_encoder"),
        "attention.self_ms": ms("attention"),
        "attention.gflop_per_s": per_second("attention", "flops", 1e9),
        "linear.self_ms": ms("linear"),
        "linear.gflop_per_s": per_second("linear", "flops", 1e9),
        "layernorm.self_ms": ms("layernorm"),
        "layernorm.gb_per_s": per_second("layernorm", "bytes", 1e9),
        "gelu.self_ms": ms("gelu"),
        "gelu.gb_per_s": per_second("gelu", "bytes", 1e9),
        "softmax.self_ms": ms("softmax"),
        "bilstm.self_ms": ms("bilstm"),
        "crf.decode_ms": ms("crf.decode"),
        "crf.nll_ms": ms("crf.nll"),
        "quantize.linear_ms": ms("quantize"),
        "quantize.gflop_per_s": per_second("quantize", "flops", 1e9),
        "ner.featurize_ms": ms("ner.featurize"),
        "ner.logits_ms": ms("ner.logits"),
        "ner.examples_per_doc": counters.get("ner.examples", 0.0) / units,
        "pretrain.forward_ms": ms("pretrain.forward"),
        "finetune.forward_ms": ms("finetune.forward"),
        "ner_train.forward_ms": ms("ner_train.forward"),
        "autograd.backward_ms": ms("autograd.backward"),
        "optim.step_ms": ms("optim.step"),
        "optim.clip_ms": ms("optim.clip"),
        "pretrain.docs_per_s": rates.get("pretrain", 0.0),
        "finetune.docs_per_s": rates.get("finetune", 0.0),
        "ner_train.examples_per_s": rates.get("ner_train", 0.0),
        "obs.overhead_ratio": ratios["obs"],
        "trace.coverage": ratios["coverage"],
        "trace.overhead_ratio": ratios["trace"],
        "host.dgemm_gflop_per_s": dgemm,
    }
    metrics["attention.peak_fraction"] = metrics["attention.gflop_per_s"] / dgemm
    metrics["linear.peak_fraction"] = metrics["linear.gflop_per_s"] / dgemm
    metrics["quantize.peak_fraction"] = metrics["quantize.gflop_per_s"] / sgemm
    units_of = {
        "ratio": ("cache_hit_ratio", "padding_waste", "overhead_ratio", "coverage",
                  "peak_fraction"),
        "GFLOP/s": ("gflop_per_s",),
        "GB/s": ("gb_per_s",),
        "count": ("examples_per_doc",),
        "1/s": ("docs_per_s", "examples_per_s"),
    }

    def unit(name):
        for label, suffixes in units_of.items():
            if name.endswith(suffixes):
                return label
        return "ms"

    return {name: (value, unit(name)) for name, value in metrics.items()}


def feature_cache(system):
    return getattr(system, "parser", system).block_classifier.featurizer.cache


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    host = host_fingerprint()
    checkpoint, build_s = checkpoint_dir()
    workload = WORKLOADS[args.workload](args.seed, checkpoint, args.corrupt)

    setup_times = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter()
        system = workload.setup()
        setup_times.append(time.perf_counter() - t0)
    workload.warm(system)
    gc.collect()

    if not args.trace:
        (run,) = timed_passes(workload, [(system, contextlib.nullcontext)], args.seconds)
    else:
        # The same items, in turn, on three warmed systems: untraced,
        # traced, and under an obs.Telemetry session.
        trace, session = LayerTrace(), obs.Telemetry()
        traced_system, observed_system = workload.setup(), workload.setup()
        workload.warm(traced_system)
        workload.warm(observed_system)
        cache = feature_cache(traced_system)
        lookups_before = (cache.hits, cache.misses)
        gc.collect()
        run, traced, observed = timed_passes(workload, [
            (system, contextlib.nullcontext),
            (traced_system, lambda: trace),
            (observed_system, lambda: obs.use_telemetry(session)),
        ], args.seconds / 3.0)

    latencies, best = run.latencies, run.best_calls()
    quality = workload.evaluate(system, run)
    errors = list(quality.pop("errors"))
    if run.repeat_mismatches:
        errors.append(f"{run.repeat_mismatches} repeated calls gave another output")
    attempted, failed = len(run.calls), run.failed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "build_s": build_s,
        "setup_times_s": setup_times, "samples": len(latencies),
        "pool": len(run.pool), "rounds": len(run.calls) / max(len(run.pool), 1),
        "busy_s": run.busy, "quality": quality,
        "latency_ms": {
            f"p{q}": percentile_ms(latencies, q) for q in (5, 25, 50, 75, 95, 99, 100)
        },
        "best_latency_ms": {
            f"p{q}": percentile_ms(best, q) for q in (5, 25, 50, 75, 95, 100)
        },
        # Mean latency over each fifth of the run: drift within the run.
        "window_mean_ms": [
            1000.0 * float(np.mean(part))
            for part in np.array_split(np.asarray(latencies), 5) if len(part)
        ],
    }

    if not args.trace:
        metrics = end_to_end(
            workload, run, quality, statistics.median(setup_times), attempted, failed
        )
    else:
        attempted += len(traced.calls) + len(observed.calls)
        failed += traced.failed + observed.failed
        digests = {
            "untraced": run.digest(),
            "traced": "corrupted" if args.corrupt == "digest" else traced.digest(),
            "telemetry": observed.digest(),
        }
        if len(set(digests.values())) != 1:
            errors.append(f"outputs differ between passes: {digests}")
        table = trace.summary()
        units = (
            traced.steps if workload.unit == "step"
            else processed_docs(workload, traced)
        )
        ratios = {
            "obs": run.busy / observed.busy,
            "trace": traced.busy / run.busy,
            "coverage": table["_top"]["seconds"] / traced.busy,
        }
        hits = cache.hits - lookups_before[0]
        lookups = hits + cache.misses - lookups_before[1]
        cache_hits = hits / lookups if lookups else 0.0
        rates = {}
        if workload.unit == "step":
            rounds = len(run.calls)
            rates = {
                "pretrain": workload.DOCS * rounds / run.trainer_seconds["pretrain"],
                "finetune": workload.DOCS * rounds / run.trainer_seconds["finetune"],
                "ner_train": workload.NER_EXAMPLES * rounds
                / run.trainer_seconds["ner_train"],
            }
        metrics = per_layer(
            table, trace.counters, max(units, 1), host, ratios, cache_hits, rates,
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        trace.dump(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.npz"))
        record.update(
            digests=digests, layers=table, counters=dict(trace.counters),
            units=units, unit=workload.unit,
        )

    correct = not errors and failed == 0
    record.update(errors=errors, wall_s=time.perf_counter() - started)
    write_out(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"record": record}, sort_keys=True, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
