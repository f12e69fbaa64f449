"""chaoscalc benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from the root of a chaoscalc checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the last stdout line is a JSON result
carrying the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass, measured against an untraced pass of the same
size. The line before it holds the details: the environment, every
request's latency, the error rate and the tail latency where there are
enough requests for one. Spans go to ``.perfbench/trace-*.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
PROBE_SETUPS = 2  # extra cold set-ups, each in its own process
TAIL_MIN_BEYOND = 10
PR_SET_THP_DISABLE = 41


def disable_transparent_huge_pages() -> None:
    """Turn transparent huge pages off for this process and its children.

    numpy asks for huge pages on large arrays, and whether the kernel grants
    them depends on the host's free memory at that moment. With them, one
    generator seed read a peak RSS of 438 MB in one run and 492 MB in the
    next; without them, 429-433 MB on every run. Failure is not fatal: the
    environment block reports the state from /proc.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)


def thp_enabled():
    """THP_enabled from /proc/self/status, or None where there is none."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("THP_enabled:"):
                    return line.split()[1] == "1"
    except OSError:
        pass
    return None


def set_up(name: str, seed: int, workdir: str):
    """Imports, input generation and one warm-up request, timed together."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import chaoscalc
    import chaoscalc.cli  # the package does not import its cli
    from workloads import WORKLOADS

    workload = WORKLOADS[name](chaoscalc, seed, workdir)
    problems = workload.warm_up()
    return workload, problems, time.perf_counter() - start


def probe_setup(args) -> tuple:
    """Time a cold set-up in a fresh interpreter: (seconds, warm-up problems)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["problems"]


class Raised(str):
    """Traceback text standing in for the output of a request that raised."""


def run_pass(workload, number: int, tracer=None) -> dict:
    """Build one pass's inputs, run them back to back, then check them."""
    first = number * workload.PASS_SIZE
    requests = [workload.make(first + i) for i in range(workload.PASS_SIZE)]
    outputs, latencies = [], []
    clock = time.perf_counter
    run = workload.run if tracer is None else tracer.wrap(workload.run, "request")
    with tracer if tracer is not None else contextlib.nullcontext():
        start = clock()
        for i, request in enumerate(requests):
            if tracer is not None:
                tracer.request = first + i
            begin = clock()
            try:
                outputs.append(run(request))
            except Exception:  # a failed request is counted, not fatal
                outputs.append(Raised(traceback.format_exc(limit=3)))
            latencies.append(clock() - begin)
        wall = clock() - start
    problems = []
    for i, (request, output) in enumerate(zip(requests, outputs)):
        if isinstance(output, Raised):
            found = [f"raised: {output.strip().splitlines()[-1]}"]
        else:
            try:
                found = workload.check(request, output)
            except Exception as exc:  # an unreadable output is a failed request
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems.append({"request": first + i, "problems": found[:5]})
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "problems": problems,
        "out_bytes": sum(workload.out_bytes(r) for r in requests),
        "payloads": [workload.payload(r) for r in requests] if tracer is not None else [],
    }


def tail_latency(latencies: list):
    """Highest percentile with at least ten requests beyond it, if above p50."""
    ordered = sorted(latencies)
    count = len(ordered)
    index = count - 1 - TAIL_MIN_BEYOND
    if 2 * index <= count - 1:  # not above the median
        return None
    return {"value": ordered[index], "unit": "s",
            "percentile": round(100.0 * (index + 1) / count, 2), "samples": count}


def git_commit(root: str):
    """Commit of the checkout from .git, or None outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "CHAOSCALC_MAX_N": os.environ.get("CHAOSCALC_MAX_N"),
        "transparent_huge_pages": thp_enabled(),
        "git_commit": git_commit(ROOT),
    }


def measure(args, workdir: str) -> dict:
    probes = [probe_setup(args) for _ in range(PROBE_SETUPS)]
    workload, setup_problems, setup_s = set_up(args.workload, args.seed, workdir)
    setups = [seconds for seconds, _ in probes] + [setup_s]
    setup_problems += [p for _, found in probes for p in found]
    passes = []
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        passes.append(run_pass(workload, 0))
        passes.append(run_pass(workload, 1, tracer))
    else:
        # A fixed pass count for the requested time, so that a run's inputs,
        # request count and memory do not depend on the machine's speed.
        for number in range(max(1, round(args.seconds / workload.PASS_SECONDS))):
            passes.append(run_pass(workload, number))
    latencies = [t for p in passes for t in p["latencies_s"]]
    problems = [p for run in passes for p in run["problems"]]
    failed = len(problems)
    result = {
        "correct": not problems and not setup_problems,
        "attempted": len(latencies),
        "failed": failed,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "setup_s_samples": setups,
        "setup_problems": setup_problems,
        "passes": [{"wall_s": p["wall_s"], "latencies_s": p["latencies_s"]} for p in passes],
        "error_rate": {"value": failed / len(latencies), "unit": "ratio"},
        "latency_s_tail": tail_latency(latencies),
        "problems": problems[:10],
    }
    if tracer is not None:
        untraced, traced = passes
        metrics = layer_metrics(tracer, traced["wall_s"], untraced["wall_s"],
                                traced["out_bytes"], traced["payloads"])
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"detail": detail})
        detail["trace_file"] = os.path.relpath(path, ROOT)
    else:
        metrics = {
            "wall_s": {"value": sum(p["wall_s"] for p in passes), "unit": "s"},
            "latency_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result["metrics"] = metrics
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "simulate", "generator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads; the set-up probes inherit it.
    # On a two-vCPU share of a busy host a second BLAS thread waits on a
    # barrier whenever its vCPU is taken: with a spinning process on the
    # other vCPU, generator applies took 2.4 times as long with two threads
    # and 1.1 times as long with one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    disable_transparent_huge_pages()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "chaoscalc", "__init__.py")):
        print(f"error: no chaoscalc package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            _, problems, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s, "problems": problems}))
            return 0
        out = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"perfbench": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
