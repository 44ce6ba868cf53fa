"""One benchmark process: set up a workload through granulom, time it, check it.

run.py starts this script in fresh processes with PYTHONPATH pointing at
the checkout's src/ and the BLAS/OpenMP thread variables set to 1. Modes:

  measure  set up (the time from process start to the end of set-up is
           setup_s), run the timed closed loop for --seconds and at least
           --min-passes passes (one client: each call starts when the
           previous one returns), then check every output;
  trace    the traced run of traced.py, which yields the per-layer metrics.

A run of the benchmark starts several measure processes, one --chunk each,
and pools what they time; "pass_ops" holds each pass's operation latencies
in ms. The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from granulom import cli, features

import oracle
import traced
from workloads import (
    DEFAULT_RUN_DIGEST, DEFAULT_SEED, KNN_KINDS, KNN_PASS_OPS, SPLIT_SEED, TEST_COUNT,
    BenchError, knn_call, knn_reference, lot117_dataset, pipeline_run_ok,
    random_mask, tool_argvs, tool_output_ok, write_pipeline_inputs, write_tool_inputs,
)

KNN_CHUNK_SPLITS = 100_000  # split seeds of chunk c start at SPLIT_SEED + c * KNN_CHUNK_SPLITS


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_pipeline(seed: int, seconds: float, min_passes: int) -> dict:
    cfg, per_pass = write_pipeline_inputs(seed)
    setup_end = time.monotonic()
    walls, codes = [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        out = f"run{len(walls)}"
        t0 = time.perf_counter()
        codes.append(cli.main(["--quiet", "pipeline", "--config", cfg, "--out", out]))
        walls.append(time.perf_counter() - t0)
    rss = peak_rss_mb()
    failed, digests = 0, []
    for i, code in enumerate(codes):
        digest = oracle.tree_digest(f"run{i}")[0]
        digests.append(digest)
        ok = code == 0 and pipeline_run_ok(f"run{i}")
        failed += not (ok and (seed != DEFAULT_SEED or digest == DEFAULT_RUN_DIGEST))
    return {"setup_end": setup_end, "walls": walls, "pass_ops": [[w] for w in walls],
            "failed": failed, "rss_mb": rss, "per_pass": per_pass, "digests": digests}


def measure_image_tools(seed: int, chunk: int, chunks: int, seconds: float,
                        min_passes: int) -> dict:
    images = write_tool_inputs(seed, chunks)[chunk]
    setup_end = time.monotonic()
    walls, pass_ops, outputs, codes = [], [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        out = f"tools{len(walls)}"
        os.makedirs(out)
        ops = []
        t_pass = time.perf_counter()
        for pgm, pixels in images:
            for path, argv in tool_argvs(pgm, out):
                t0 = time.perf_counter()
                codes.append(cli.main(argv))
                ops.append(time.perf_counter() - t0)
                outputs.append((path, pixels))
        walls.append(time.perf_counter() - t_pass)
        pass_ops.append(ops)
    rss = peak_rss_mb()
    failed = sum(
        code != 0 or not tool_output_ok(path, pixels)
        for code, (path, pixels) in zip(codes, outputs)
    )
    per_pass = {"images": len(images), "queries": 5 * len(images)}
    return {"setup_end": setup_end, "walls": walls, "pass_ops": pass_ops, "failed": failed,
            "rss_mb": rss, "per_pass": per_pass}


def measure_knn_sweep(seed: int, chunk: int, seconds: float, min_passes: int) -> dict:
    ds = lot117_dataset(seed)
    setup_end = time.monotonic()
    rng = np.random.default_rng([seed, chunk])
    fraction = TEST_COUNT / ds.n_samples
    first_split = SPLIT_SEED + chunk * KNN_CHUNK_SPLITS
    walls, pass_ops, records = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        ops = []
        t_pass = time.perf_counter()
        for _ in range(KNN_PASS_OPS):
            i = len(records)
            kind, masked = KNN_KINDS[i % len(KNN_KINDS)]
            mask = random_mask(rng, ds.n_features) if masked else None
            result = features.split(ds, fraction, first_split + i)
            t0 = time.perf_counter()
            report = knn_call(result.train, result.test, kind, mask, "report.csv")
            ops.append(time.perf_counter() - t0)
            records.append((first_split + i, kind, mask, [s.predicted for s in report.per_sample]))
        walls.append(time.perf_counter() - t_pass)
        pass_ops.append(ops)
    rss = peak_rss_mb()
    failed = 0
    for split_seed, kind, mask, predicted in records:
        result = features.split(ds, fraction, split_seed)
        failed += predicted != knn_reference(result.train, result.test, kind, mask)
    queries = sum(len(r[3]) for r in records[:KNN_PASS_OPS])  # every query is one test image
    return {"setup_end": setup_end, "walls": walls, "pass_ops": pass_ops, "failed": failed,
            "rss_mb": rss, "per_pass": {"images": queries, "queries": queries}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("measure", "trace"), required=True)
    p.add_argument("--workload", choices=("pipeline", "image-tools", "knn-sweep"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed seconds in this process")
    p.add_argument("--chunk", type=int, default=0, help="which share of the inputs to time")
    p.add_argument("--chunks", type=int, default=1, help="how many shares a run has")
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--work", required=True, help="scratch directory, removed afterwards")
    p.add_argument("--state", required=True, help="directory for spans and recorded counts")
    args = p.parse_args(argv)

    os.makedirs(args.work)
    os.chdir(args.work)
    try:
        if args.mode == "trace":
            out = traced.run(args.workload, args.seed, args.state)
        elif args.workload == "pipeline":
            out = measure_pipeline(args.seed, args.seconds, args.min_passes)
        elif args.workload == "image-tools":
            out = measure_image_tools(args.seed, args.chunk, args.chunks, args.seconds,
                                      args.min_passes)
        else:
            out = measure_knn_sweep(args.seed, args.chunk, args.seconds, args.min_passes)
        if args.mode == "measure":
            out["pass_ops"] = [[t * 1000.0 for t in ops] for ops in out["pass_ops"]]
            out["attempted"] = sum(map(len, out["pass_ops"]))
        out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__}
    finally:
        os.chdir(os.path.dirname(args.work))
        shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        sys.exit(2)
