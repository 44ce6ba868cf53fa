"""The granulom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload runs in fresh processes
(worker.py) that import granulom from the checkout's src/ with the
BLAS/OpenMP thread variables set to 1, so numpy stays single-threaded.

--trace 0 starts PROCESSES measuring processes one after another. Each
sets the workload up, which gives one setup_s sample, and then times its
share of the inputs for an equal share of the S seconds not yet timed;
the first MIN_TIMED of them time at least one pass. Spreading the timed
work over the whole run makes it less sensitive to the host slowing down
for a while. wall_s is the median pass; op_ms_p50 and op_ms_p90 are each
pass's latency quantiles averaged over the passes, which follow the share
of time the host ran slow instead of jumping when it crosses a threshold.
--trace 1 makes the traced run of traced.py instead and reports the
per-layer metrics. Metric names and units come from BENCHMARK.json.

Stdout ends with an info line (versions, nproc, error_rate, sample
counts) and then one JSON object: correct, attempted, failed, metrics.
Exits 2 without a result when the checkout holds no granulom sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")  # spans and recorded counts; scratch dirs inside
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("pipeline", "image-tools", "knn-sweep")
PROCESSES = 3
MIN_TIMED = 2  # all pipeline runs of one seed must give the same bytes: time two
DEADLINE_S = 170.0  # every run must end within 180 s


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def quantile(values, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def spawn(mode: str, args, deadline: float, chunk: int = 0, seconds: float = 0.0,
          min_passes: int = 0):
    """Run one worker process; returns (monotonic time it was started, its JSON result)."""
    work = os.path.join(STATE, f"work-{os.getpid()}-{chunk}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--chunk", str(chunk), "--chunks", str(PROCESSES),
           "--min-passes", str(min_passes), "--work", work, "--state", STATE]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the timed run")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process exceeded the {DEADLINE_S:.0f} s budget") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=12957)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "granulom", "__init__.py")):
        print("error: no granulom sources at src/granulom in this checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(STATE, exist_ok=True)

    try:
        if args.trace:
            _, res = spawn("trace", args, deadline)
            metrics, attempted, failed = res["metrics"], res["attempted"], res["failed"]
            samples = res["info"]
        else:
            setups, runs, timed = [], [], 0.0
            for chunk in range(PROCESSES):
                share = max(0.0, (args.seconds - timed) / (PROCESSES - chunk))
                started, res = spawn("measure", args, deadline, chunk, share,
                                     int(chunk < MIN_TIMED))
                setups.append(res["setup_end"] - started)
                runs.append(res)
                timed += sum(res["walls"])
            walls = [w for r in runs for w in r["walls"]]
            pass_ops = [ops for r in runs for ops in r["pass_ops"]]
            digests = [d for r in runs for d in r.get("digests", ())]
            attempted = sum(r["attempted"] for r in runs)
            # every pipeline run of one seed must give the same run directory
            failed = sum(r["failed"] for r in runs) + sum(d != digests[0] for d in digests)
            wall = statistics.median(walls)
            per_pass = runs[0]["per_pass"]  # the same for every pass of one run
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": wall,
                "peak_rss_mb": max(r["rss_mb"] for r in runs),
                "images_per_s": per_pass["images"] / wall,
                "queries_per_s": per_pass["queries"] / wall,
                "op_ms_p50": statistics.fmean(quantile(ops, 0.5) for ops in pass_ops),
                "op_ms_p90": statistics.fmean(quantile(ops, 0.9) for ops in pass_ops),
            }
            samples = {"setup_samples": setups, "passes": len(walls), "op_samples": attempted,
                       **({"run_digest": digests[0]} if digests else {})}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **res["versions"], "nproc": len(os.sched_getaffinity(0)),
        "error_rate": failed / attempted, **samples,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
