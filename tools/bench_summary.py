#!/usr/bin/env python3
# Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
"""Condenses google-benchmark JSON into the repo-root BENCH_throughput.json.

Reads any number of --benchmark_out JSON files (bench_components.json,
bench_throughput.json) and emits one small machine-readable summary with
the headline MB/s numbers the README and CI artifacts track:

    lexer / lexer_legacy       BM_Lexer vs the frozen pre-SWAR baseline
    tree_build / tree_legacy   BM_TagTreeBuild vs the frozen pre-arena one
    recognizer / _legacy       BM_Recognizer/<domain> vs the frozen
                               per-matcher recognizer: MB/s over the four
                               bundled domains' texts together, the
                               speedup, and the speedup per domain
    lex_balance / _legacy      BM_LexAndBalance/<page> vs the frozen
                               vector-attribute lex + Step 2: MB/s over
                               the three pages (obituary, template_skew,
                               tag_storm) together, the speedup, and the
                               speedup per page
    recognizer_corpus / _legacy
                               BM_RecognizerCorpus/<domain> vs the frozen
                               recognizer, each rotating through the
                               domain's paper-corpus texts: MB/s, the
                               speedup, and the speedup per domain
    recognizer_compile_us      BM_RecognizerCompile: Recognizer::Create
                               for all four bundled ontologies
    dbgen / _legacy            BM_Dbgen/<domain> vs the frozen copying
                               partition and map-based field assembly:
                               million entries/s over the four domains'
                               documents together, the speedup, and the
                               speedup per domain
    batch_pipeline             best BM_BatchPipeline/<threads>/<docs> run
    template_skew              BM_BatchPipelineTemplateSkew cache-on vs
                               cache-off: hit rate and memoization speedup
    store_*                    bench_store: ingest MB/s (memory and POSIX
                               backends) and 1M-record query latencies,
                               with the learned-index speedup over a full
                               scan (CI floors this at 5x)

Each section is included only when its benchmarks are present in the
inputs, so partial runs still summarize. Repeated runs of one benchmark
(--benchmark_repetitions) are collapsed to the best repetition (highest
throughput, or lowest time for a benchmark without one) — the
noise-robust aggregate on a shared machine. Usage:

    tools/bench_summary.py --out BENCH_throughput.json a.json b.json
"""

import argparse
import json
import re
import sys


def load_benchmarks(paths):
    """(name -> best repetition of that name, last serve_load section).

    Inputs are google-benchmark JSON files plus, optionally, the
    bench/bench_serve_load.py output (recognized by its "serve_load" key).
    """
    runs = {}
    serve_load = None
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        if "serve_load" in data:
            serve_load = data["serve_load"]
        for bench in data.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench["name"]
            best = runs.get(name)
            if best is None or goodness(bench) > goodness(best):
                runs[name] = bench
    return runs, serve_load


def goodness(bench):
    """Higher is better: throughput when reported, else minus the time."""
    rate = bench.get("bytes_per_second", 0) or bench.get("items_per_second", 0)
    return rate if rate else -real_seconds(bench)


def mb_per_second(bench):
    return round(bench["bytes_per_second"] / 1e6, 1)


def real_seconds(bench):
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    return bench["real_time"] * unit.get(bench.get("time_unit", "ns"), 1e-9)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="summary JSON path")
    parser.add_argument("inputs", nargs="+", help="benchmark JSON files")
    args = parser.parse_args()

    runs, serve_load = load_benchmarks(args.inputs)
    summary = {}

    # Serving-path section: the daemon load run's headline numbers (see
    # bench/bench_serve_load.py for the assertions behind them).
    if serve_load:
        summary["serve_requests"] = serve_load.get("served", 0)
        summary["serve_dropped"] = serve_load.get("dropped", 0)
        summary["serve_throughput_rps"] = serve_load.get("throughput_rps",
                                                         0.0)
        summary["serve_p50_ms"] = serve_load.get("p50_ms", 0.0)
        summary["serve_p99_ms"] = serve_load.get("p99_ms", 0.0)
        summary["serve_concurrency"] = serve_load.get("concurrency", 0)

    pairs = [
        ("lexer", "BM_Lexer", "lexer_legacy", "BM_LexerLegacy"),
        ("tree_build", "BM_TagTreeBuild",
         "tree_build_legacy", "BM_TagTreeBuildLegacy"),
    ]
    for fast_key, fast_name, legacy_key, legacy_name in pairs:
        if fast_name in runs:
            summary[fast_key + "_mb_s"] = mb_per_second(runs[fast_name])
        if legacy_name in runs:
            summary[legacy_key + "_mb_s"] = mb_per_second(runs[legacy_name])
        if fast_name in runs and legacy_name in runs:
            summary[fast_key + "_speedup"] = round(
                runs[fast_name]["bytes_per_second"]
                / runs[legacy_name]["bytes_per_second"], 2)

    # Lex + balance section: BM_LexAndBalance/<page> and
    # BM_LexAndBalanceLegacy/<page> run LexAndBalance over the same three
    # page sets. MB/s is total bytes over total time across the three.
    pages = ["obituary", "template_skew", "tag_storm"]
    for key, prefix in [("lex_balance", "BM_LexAndBalance/"),
                        ("lex_balance_legacy", "BM_LexAndBalanceLegacy/")]:
        sets = [runs.get(prefix + page) for page in pages]
        if all(sets):
            seconds = sum(real_seconds(b) for b in sets)
            total = sum(b["bytes_per_second"] * real_seconds(b) for b in sets)
            summary[key + "_mb_s"] = round(total / seconds / 1e6, 1)
    if "lex_balance_mb_s" in summary and "lex_balance_legacy_mb_s" in summary:
        summary["lex_balance_speedup"] = round(
            summary["lex_balance_mb_s"] / summary["lex_balance_legacy_mb_s"],
            2)
        for page in pages:
            summary[f"lex_balance_speedup_{page}"] = round(
                runs[f"BM_LexAndBalance/{page}"]["bytes_per_second"]
                / runs[f"BM_LexAndBalanceLegacy/{page}"]["bytes_per_second"],
                2)

    # Recognizer section: BM_Recognizer/<d> and BM_RecognizerLegacy/<d>
    # scan the same four texts (d = obituaries, car ads, job ads,
    # courses). MB/s is over all four texts, each scanned once: total
    # bytes over total time.
    domains = ["obituaries", "car_ads", "job_ads", "courses"]
    for key, prefix in [("recognizer", "BM_Recognizer/"),
                        ("recognizer_legacy", "BM_RecognizerLegacy/")]:
        texts = [runs.get(f"{prefix}{d}") for d in range(len(domains))]
        if all(texts):
            seconds = sum(real_seconds(b) for b in texts)
            total = sum(b["bytes_per_second"] * real_seconds(b) for b in texts)
            summary[key + "_mb_s"] = round(total / seconds / 1e6, 1)
    if "recognizer_mb_s" in summary and "recognizer_legacy_mb_s" in summary:
        summary["recognizer_speedup"] = round(
            summary["recognizer_mb_s"] / summary["recognizer_legacy_mb_s"], 2)
        for d, domain in enumerate(domains):
            summary[f"recognizer_speedup_{domain}"] = round(
                runs[f"BM_Recognizer/{d}"]["bytes_per_second"]
                / runs[f"BM_RecognizerLegacy/{d}"]["bytes_per_second"], 2)

    # The same pair over each domain's paper corpus in rotation
    # (BM_RecognizerCorpus/<d>): the recognizer's warm per-thread state
    # measured across different documents rather than one text.
    for key, prefix in [("recognizer_corpus", "BM_RecognizerCorpus/"),
                        ("recognizer_corpus_legacy",
                         "BM_RecognizerCorpusLegacy/")]:
        texts = [runs.get(f"{prefix}{d}") for d in range(len(domains))]
        if all(texts):
            seconds = sum(real_seconds(b) for b in texts)
            total = sum(b["bytes_per_second"] * real_seconds(b) for b in texts)
            summary[key + "_mb_s"] = round(total / seconds / 1e6, 1)
    if ("recognizer_corpus_mb_s" in summary
            and "recognizer_corpus_legacy_mb_s" in summary):
        summary["recognizer_corpus_speedup"] = round(
            summary["recognizer_corpus_mb_s"]
            / summary["recognizer_corpus_legacy_mb_s"], 2)
        for d, domain in enumerate(domains):
            summary[f"recognizer_corpus_speedup_{domain}"] = round(
                runs[f"BM_RecognizerCorpus/{d}"]["bytes_per_second"]
                / runs[f"BM_RecognizerCorpusLegacy/{d}"]["bytes_per_second"],
                2)

    if "BM_RecognizerCompile" in runs:
        summary["recognizer_compile_us"] = round(
            real_seconds(runs["BM_RecognizerCompile"]) * 1e6, 1)

    # Dbgen section: BM_Dbgen/<d> and BM_DbgenLegacy/<d> partition and
    # assemble the same four documents' tables; throughput in entries.
    for key, prefix in [("dbgen", "BM_Dbgen/"),
                        ("dbgen_legacy", "BM_DbgenLegacy/")]:
        docs = [runs.get(f"{prefix}{d}") for d in range(len(domains))]
        if all(docs):
            seconds = sum(real_seconds(b) for b in docs)
            total = sum(b["items_per_second"] * real_seconds(b) for b in docs)
            summary[key + "_mentries_s"] = round(total / seconds / 1e6, 2)
    if "dbgen_mentries_s" in summary and "dbgen_legacy_mentries_s" in summary:
        summary["dbgen_speedup"] = round(
            summary["dbgen_mentries_s"] / summary["dbgen_legacy_mentries_s"],
            2)
        for d, domain in enumerate(domains):
            summary[f"dbgen_speedup_{domain}"] = round(
                runs[f"BM_Dbgen/{d}"]["items_per_second"]
                / runs[f"BM_DbgenLegacy/{d}"]["items_per_second"], 2)

    batch = [b for name, b in runs.items()
             if name.startswith("BM_BatchPipeline/")]
    if batch:
        best = max(batch, key=lambda b: b["bytes_per_second"])
        summary["batch_pipeline_mb_s"] = mb_per_second(best)
        summary["batch_pipeline_best_config"] = best["name"]

    # Template-memoization section: pair cache:1 against cache:0 at the
    # same thread count and report the throughput ratio (best-rep over
    # best-rep) plus the cache-on run's converged hit rate.
    skew = {}
    for name, bench in runs.items():
        match = re.match(
            r"BM_BatchPipelineTemplateSkew/threads:(\d+)/docs:(\d+)"
            r"/cache:([01])", name)
        if match:
            threads, docs, cache = (int(g) for g in match.groups())
            skew[(threads, docs, cache)] = bench
    best_pair = None
    for (threads, docs, cache), on in skew.items():
        if cache != 1 or (threads, docs, 0) not in skew:
            continue
        off = skew[(threads, docs, 0)]
        speedup = round(on["bytes_per_second"] / off["bytes_per_second"], 2)
        summary[f"template_skew_speedup_{threads}t"] = speedup
        if best_pair is None or speedup > best_pair[0]:
            best_pair = (speedup, on)
    if best_pair:
        speedup, on = best_pair
        summary["template_skew_speedup"] = speedup
        summary["template_skew_hit_rate"] = round(on["hit_rate"], 4)
        summary["template_skew_mb_s"] = mb_per_second(on)

    # Persistent-store section (bench/bench_store.cc): best ingest rep per
    # backend, query latencies against the sealed 1M-record store, and the
    # learned-index speedup over the scan-from-zero baseline.
    for key, prefix in [("store_ingest_mb_s", "BM_StoreIngest/"),
                        ("store_ingest_posix_mb_s", "BM_StoreIngestPosix/")]:
        ingest = [b for name, b in runs.items() if name.startswith(prefix)
                  and "/" not in name[len(prefix):]]
        if ingest:
            summary[key] = mb_per_second(
                max(ingest, key=lambda b: b["bytes_per_second"]))
    if "BM_StoreRangeQueryLearned" in runs:
        learned = runs["BM_StoreRangeQueryLearned"]
        summary["store_range_query_us"] = round(real_seconds(learned) * 1e6,
                                                1)
        if "index_segments" in learned:
            summary["store_index_segments"] = int(learned["index_segments"])
    if "BM_StorePointQueryLearned" in runs:
        summary["store_point_query_us"] = round(
            real_seconds(runs["BM_StorePointQueryLearned"]) * 1e6, 1)
    if "BM_StoreRangeQueryFullScan" in runs:
        full = runs["BM_StoreRangeQueryFullScan"]
        summary["store_full_scan_ms"] = round(real_seconds(full) * 1e3, 2)
        if "BM_StoreRangeQueryLearned" in runs:
            summary["store_index_speedup"] = round(
                real_seconds(full)
                / real_seconds(runs["BM_StoreRangeQueryLearned"]), 1)

    if not summary:
        print("bench_summary: no recognized benchmarks in inputs",
              file=sys.stderr)
        return 1

    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: wrote {args.out}: "
          f"{json.dumps(summary, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
