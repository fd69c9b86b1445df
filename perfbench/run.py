#!/usr/bin/env python3
"""conv-tn benchmark: run one workload, print its metrics, check every result.

    python3 perfbench/run.py --workload realistic_first_order --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics.  Set-up time and peak memory
come from fresh child processes that each make one cold pass; throughput and
latency from warm passes in this process, each engine call timed next to the
im2col baseline's call for the same op.  ``--trace 1`` is a separate run
that rebinds the engine's entry points to record spans, and prints the
per-layer metrics with the deterministic counters, which it also writes to
``bench-out/counters_<workload>.json``.  Either way every result of one warm
pass is checked afterwards, outside the timed region, and the last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result that shows a known engine defect is reported by name
and left out of the metrics.  The exit code is 0 only when every other
result is correct.  See README.md in this directory for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_OUT = HERE.parent / "bench-out"
# One BLAS thread: a closed loop with one caller, and GEMM timings that do
# not depend on whether a second core happens to be free.
BLAS_THREADS = "1"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tamper", action="store_true",
                   help="perturb one result before the check; the run must then fail")
    p.add_argument("--out", help="directory to write result, environment, spans and counters to"
                   f" (default for counters: {DEFAULT_OUT.name}/)")
    p.add_argument("--cold-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cold_pass(work, seed: int) -> dict:
    """Child process: one pass with every engine cache cold."""
    import workload

    cases = workload.build_cases(work, seed)
    log = workload.PassLog.for_cases(cases)
    gc.collect()
    workload.run_pass(cases, log)
    calls_s = [t[0] if t else None for t in log.engine]
    return {"calls_s": calls_s, "peak_rss_mb": peak_rss_mb(), "errors": log.errors}


def fresh_setups(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--cold-pass"]
    runs = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"cold-pass child failed: {done.stderr.strip()[-2000:]}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


# --- environment -------------------------------------------------------------


def _openblas():
    """The OpenBLAS library numpy loaded, found in this process's memory map."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_threads():
    lib = _openblas()
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None) if lib is not None else None
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}_bytes"] = int(size[:-1]) * 1024 if size.endswith("K") else int(size)
    return sizes


def environment(cases) -> dict:
    import numpy as np

    import workload

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    caches = _cache_sizes()
    in_bytes = workload.input_bytes(cases)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "blas": blas_version,
        "python": sys.version.split()[0],
        **caches,
        "input_bytes": in_bytes,
        "input_over_l3": in_bytes / caches["l3_bytes"] if caches.get("l3_bytes") else None,
    }


# --- end-to-end run ----------------------------------------------------------


@dataclass
class Outcome:
    """What a run hands to the check: every checked call and its result, the
    calls that raised, and its metrics, computed leaving out the checked calls
    whose results show a known engine defect (given by index)."""

    cases: list
    results: list
    errors: list[str]
    attempted: int
    metrics: Callable[[set[int]], dict]


def _tail(latencies: list[float]):
    """Highest percentile (to 0.1) that leaves at least ten latencies beyond it."""
    import numpy as np

    pct = math.floor(1000.0 * (1.0 - 10.0 / len(latencies))) / 10.0 if len(latencies) > 20 else 50.0
    value = float(np.percentile(latencies, pct))
    return pct, value, sum(t > value for t in latencies)


def end_to_end(work, args) -> Outcome:
    import workload

    cases = workload.build_cases(work, args.seed)
    workload.run_pass(cases)  # fill the engine's caches
    gc.collect()
    # The timed passes come in two halves with the cold-pass children between
    # them.  A call's latency is its fastest sample, so a slow spell of a
    # shared host shows only if it lasts over both halves and the children.
    log, results = workload.timed_passes(cases, args.seconds / 2)
    setups = fresh_setups(args)
    gc.collect()
    workload.timed_passes(cases, args.seconds / 2, log)
    fastest_engine = workload.fastest(log.engine)
    fastest_base = workload.fastest(log.base)

    def metrics(skip: set[int]) -> dict:
        engine = [None if i in skip else t for i, t in enumerate(fastest_engine)]

        def per_s(kind) -> float:
            times = [t for c, t in zip(cases, engine) if t is not None and kind(c)]
            return len(times) / sum(times) if times else float("nan")

        # the latency of one call of a warm pass: that call's fastest over passes
        latencies = [t for t in engine if t is not None]
        pct, tail, beyond = _tail(latencies)
        covered = [(e, b) for c, e, b in zip(cases, engine, fastest_base)
                   if c.covered and e is not None]
        setup_s = [sum(t for i, t in enumerate(s["calls_s"]) if t is not None and i not in skip)
                   for s in setups]
        print(f"passes: {log.passes} warm passes of {len(cases)} calls, plus 1 cache-filling pass;"
              f" {sum(len(t) for t in log.engine)} timed engine calls")
        print(f"call_ms.tail is the p{pct:g} latency over the {len(latencies)} timed calls"
              f" of a pass, {beyond} beyond it")
        print("setup_s per fresh process: " + ", ".join(f"{t:.3f}" for t in setup_s))
        return {
            "ops_per_s": (per_s(lambda c: True), "1/s"),
            "ops_per_s.gather": (per_s(lambda c: c.op in workload.GATHER), "1/s"),
            "ops_per_s.scatter": (per_s(lambda c: c.op in workload.SCATTER), "1/s"),
            "call_ms.p50": (1e3 * statistics.median(latencies), "ms"),
            "call_ms.tail": (1e3 * tail, "ms"),
            "setup_s": (statistics.median(setup_s), "s"),
            "im2col_ratio": (sum(e for e, _ in covered) / sum(b for _, b in covered), "ratio"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in setups), "MB"),
        }

    errors = log.errors + [e for s in setups for e in s["errors"]]
    attempted = log.calls + sum(len(s["calls_s"]) for s in setups)
    return Outcome(cases, results, errors, attempted, metrics)


# --- traced run ----------------------------------------------------------------


def _crs_probe(work, seed: int, repeats: int = 5):
    """One CRS estimate per layer with its inputs, and the per-layer medians
    of the estimate's time and of the exact weight VJP's, alternated."""
    import numpy as np

    import workload
    from conv_tn import ops

    rng = np.random.default_rng(seed)
    cases, results, crs_s, exact_s = [], [], [], []
    for name, conv, _ in work.layers:
        shapes = ops.input_shapes(conv, "weight_vjp")
        arrays = {k: rng.standard_normal(s) for k, s in shapes.items()}
        case = workload.Case(name, conv, workload.CRS_OP, True, arrays)
        exact, est = [], []
        for r in range(repeats + 1):
            for which in ((0, 1) if r % 2 else (1, 0)):
                t0 = time.perf_counter()
                if which == 0:
                    ops.run_op(conv, "weight_vjp", arrays, simplify=True)
                else:
                    got = case.engine()
                if r:  # the first round fills caches
                    (exact if which == 0 else est).append(time.perf_counter() - t0)
        cases.append(case)
        results.append(got)
        crs_s.append(statistics.median(est))
        exact_s.append(statistics.median(exact))
    return cases, results, crs_s, exact_s


def traced(work, args) -> Outcome:
    import counters
    import spans
    import workload
    from conv_tn import crs, einsum, ops
    from conv_tn.simplify import SimplifyResult

    cases = workload.build_cases(work, args.seed)
    tracer = spans.Tracer([
        (ops, "run_op", "ops.run_op"),
        (ops, "build_network", "ops.build_network"),
        (ops, "simplify_structure", "simplify.structure"),
        (ops, "pattern", "pattern.build"),
        (einsum, "parse", "einsum.parse"),
        (einsum, "plan", "einsum.plan"),
        (einsum, "contract", "einsum.contract"),
        (SimplifyResult, "apply", "simplify.apply"),
        (crs, "crs_weight_vjp", "crs.weight_vjp"),
    ])
    log = workload.PassLog.for_cases(cases)
    tracer.install()
    try:
        workload.run_pass(cases, log)
        cold = list(tracer.spans)
        warm, plain, results = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(warm) < 2 or time.perf_counter() < deadline:
            tracer.uninstall()
            t0 = time.perf_counter()
            workload.run_pass(cases, log)
            plain.append(time.perf_counter() - t0)
            tracer.install()
            first = len(tracer.spans)
            t0 = time.perf_counter()
            workload.run_pass(cases, log, keep=results if not warm else None)
            warm.append((time.perf_counter() - t0, tracer.spans[first:]))
    finally:
        tracer.uninstall()
    probe_cases, probe_results, probe_crs_s, probe_exact_s = _crs_probe(work, args.seed)
    rows = counters.for_workload(work)
    tot = counters.totals(rows)
    out_dir = Path(args.out) if args.out else DEFAULT_OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"counters_{work.name}.json").write_text(json.dumps(rows, indent=1))
    if args.out:
        (out_dir / "spans.json").write_text(json.dumps([s.__dict__ for s in tracer.spans]))
    n = len(cases)

    def metrics(skip: set[int]) -> dict:
        # every call of a pass is one root span, in pass order
        cold_rows = spans.summarize(spans.drop_roots(cold, skip))
        warm_spans = [spans.drop_roots(recorded, skip) for _, recorded in warm]
        probe_kept = [i for i in range(len(probe_cases)) if n + i not in skip]
        crs_s = sum(probe_crs_s[i] for i in probe_kept)
        exact_s = sum(probe_exact_s[i] for i in probe_kept)

        def warm_median(fn) -> float:
            return statistics.median(fn(recorded) for recorded in warm_spans)

        def ms(name, kind="total_s"):
            return lambda recorded: 1e3 * spans.summarize(recorded).get(name, {}).get(kind, 0.0)

        def gflops(recorded):
            row = spans.summarize(recorded).get("einsum.contract")
            return row["flops"] / row["total_s"] / 1e9 if row and row["total_s"] else 0.0

        def cold_ms(name):
            return 1e3 * cold_rows.get(name, {}).get("total_s", 0.0)

        print(f"passes: 1 cold traced, {len(warm)} warm traced, {len(plain)} warm untraced;"
              f" CRS probe on {len(probe_kept)} of {len(probe_cases)} layers")
        print(f"counters: {len(rows)} networks, planned flops {tot['planned_flops']}"
              f" (op_cost says {tot['op_cost_flops']}), written to {out_dir}")
        return {
            "ops.build_network.ms": (warm_median(ms("ops.build_network", "self_s")), "ms"),
            "ops.run_op.overhead_share": (
                warm_median(lambda s: spans.outside_children(s, "ops.run_op", "einsum.contract")),
                "share",
            ),
            "pattern.build.ms": (cold_ms("pattern.build"), "ms"),
            "pattern.table_bytes": (counters.table_bytes(work), "bytes"),
            "einsum.parse.ms": (cold_ms("einsum.parse"), "ms"),
            "einsum.plan.ms": (cold_ms("einsum.plan"), "ms"),
            "einsum.planned_flops": (tot["planned_flops"], "flops"),
            "einsum.max_intermediate": (tot["max_intermediate"], "elements"),
            "einsum.greedy_networks": (tot["greedy_networks"], "count"),
            "einsum.contract.ms": (warm_median(ms("einsum.contract")), "ms"),
            "einsum.gflop_per_s": (warm_median(gflops), "GFLOP/s"),
            "einsum.bytes_computed": (tot["bytes_computed"], "bytes"),
            "einsum.planned_over_useful": (tot["planned_over_useful"], "ratio"),
            "simplify.structure.ms": (cold_ms("simplify.structure"), "ms"),
            "simplify.apply.ms": (warm_median(ms("simplify.apply")), "ms"),
            "simplify.rewrites.dense_reshape": (tot["dense_reshape"], "count"),
            "simplify.rewrites.downsample_narrow": (tot["downsample_narrow"], "count"),
            "simplify.flop_ratio": (tot["flop_ratio"], "ratio"),
            "crs.weight_vjp.ms": (1e3 * crs_s, "ms"),
            "crs.speedup_vs_exact": (exact_s / crs_s, "ratio"),
            "trace.overhead_share": (
                statistics.median(t for t, _ in warm) / statistics.median(plain) - 1.0, "share"
            ),
        }

    return Outcome(cases + probe_cases, results + probe_results, log.errors,
                   log.calls + len(probe_cases), metrics)


# --- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conv_tn" / "__init__.py").is_file():
        print("error: the conv_tn source tree (src/conv_tn) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workload

    try:
        work = workload.load(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cold_pass:
        print(json.dumps(cold_pass(work, args.seed)))
        return 0

    run = traced if args.trace else end_to_end
    outcome = run(work, args)
    results = outcome.results
    if args.tamper:
        i = next(i for i, got in enumerate(results) if got is not None and got.size)
        results[i] = workload.perturbed(results[i])
    verdict = workload.check(work, outcome.cases, results)
    self_check = workload.tamper_flagged(work, outcome.cases, results)
    failed = len(outcome.errors) + len(verdict.mismatches)
    metrics = outcome.metrics(set(verdict.known))
    env = environment(outcome.cases)
    for line in outcome.errors + verdict.mismatches:
        print(f"FAILED {line}")
    for name in sorted({line.split(":")[0] for line in verdict.known.values()}):
        print(f"KNOWN-DEFECT {name}: {workload.KNOWN_DEFECTS[name]}")
    for line in verdict.known.values():
        print(f"KNOWN-DEFECT {line} (left out of the metrics)")
    print(f"check: {len(results)} results against their references,"
          f" {len(verdict.mismatches)} off, {len(verdict.known)} showing a known defect;"
          f" tamper self-check {'flagged' if self_check else 'MISSED'}")
    print(f"fail_share: {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted} calls)")
    print("env: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and self_check,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "result.json").write_text(json.dumps(
            {**result, "known_defects": list(verdict.known.values()), "env": env}, indent=1
        ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # BLAS reads its thread count once, when numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
