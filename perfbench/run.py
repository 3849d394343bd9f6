"""The benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload eval-retrieval --seed 1 --seconds 34 --trace 0

It generates the workload's inputs from ``--seed``, repeats rounds of
set-up and timed work for ``--seconds`` (and at least 100 problems on
the eval workloads, for a per-problem p90 with ten samples beyond it),
checks every output, and prints the metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced; on the CPU-bound workloads (eval-retrieval,
corpus-build) their timings are scaled to a reference machine speed
sampled while they run (see ``perfbench/speed.py``), and the unscaled
values go to the notes line. With ``--trace 1`` rounds alternate
untraced and traced on the same work, and the metrics are the per-layer
ones from the traced rounds.
A failed check exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("eval-retrieval", "corpus-build", "eval-http")
MIN_ROUNDS = 2
# kernel micro-benchmark: (string length, pairs), after the length
# table of benchmarks/bench_levenshtein.py
KERNEL_LENGTHS = ((8, 2000), (32, 500), (128, 60))
KERNEL_ALPHABET = "@+-*/()"


def kernel_us_per_pair(seed: int) -> dict[str, float]:
    from mathcontrast import _kernels

    rng = random.Random(seed)
    values = {}
    for length, count in KERNEL_LENGTHS:
        pairs = [
            tuple(
                _kernels.encode("".join(rng.choice(KERNEL_ALPHABET) for _ in range(length)))
                for _ in range(2)
            )
            for _ in range(count)
        ]
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            for a, b in pairs:
                _kernels.levenshtein_codes(a, b)
            samples.append((time.perf_counter() - start) * 1e6 / count)
        values[f"_kernels.us_per_pair.len{length}"] = statistics.median(samples)
    return values


def measure(wl, seconds: float, tracer, sampler):
    """Repeat rounds for ``seconds``; with a tracer, pairs of untraced and
    traced rounds do the same work so their difference is the tracing
    overhead. With a ``SpeedSampler``, rounds are timed by its clock and
    carry the machine's slowdown while they ran.

    A round starts only if a round as long as the median one so far (a
    pair, when tracing) still ends within ``seconds``, so a run lasts
    about ``seconds`` however slow the machine is. Untraced runs do at
    least ``wl.min_rounds`` rounds, traced runs at least one pair.
    """
    rounds = []
    server = {"posts": 0, "connections": 0}
    state = out = None
    clock = sampler.clock if sampler is not None else time.perf_counter
    start = time.perf_counter()
    minimum = MIN_ROUNDS if tracer is not None else max(MIN_ROUNDS, wl.min_rounds)
    index = 0
    while True:
        if index >= minimum and (tracer is None or index % 2 == 0):
            if tracer is None:
                step = statistics.median(r["round_s"] for r in rounds)
            else:
                step = statistics.median(
                    a["round_s"] + b["round_s"] for a, b in zip(rounds[::2], rounds[1::2])
                )
            if time.perf_counter() - start + step > seconds:
                break
        traced = tracer is not None and index % 2 == 1
        active = tracer if traced else None
        begin = time.perf_counter()
        first_sample = len(sampler.samples) if sampler is not None else 0
        if state is not None:
            wl.release(state)
        if traced:
            before = wl.server_stats()
            tracer.install()
        try:
            t0 = clock()
            state = wl.setup(active)
            t1 = clock()
            out = wl.run_round(state, index // 2 if tracer else index, active, clock)
            t2 = clock()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            after = wl.server_stats()
            for key in server:
                server[key] += after.get(key, 0) - before.get(key, 0)
        wl.check_round(out)
        rounds.append(
            {
                "traced": traced,
                "setup_s": t1 - t0,
                "run_s": t2 - t1,
                "round_s": time.perf_counter() - begin,
                "slowdown": sampler.slowdown(first_sample) if sampler is not None else 1.0,
                "item_ms": out.item_ms,
                "attempted": out.attempted,
                "failed": out.failed,
                "units": out.units,
            }
        )
        index += 1
    wl.release(state)
    # a fresh, untraced set-up, so the checks add nothing to the trace
    state = wl.setup(None)
    wl.check_final(state, out)
    wl.release(state)
    return rounds, server


def end_to_end(rounds) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics of the untraced rounds, plus notes for the log.

    Each round's timings are divided by the machine's slowdown while it
    ran (1 without a sampler); round-level timings are then medians over
    the rounds.
    """
    from perfbench.metrics import quantile

    plain = [r for r in rounds if not r["traced"]]
    setup = [r["setup_s"] / r["slowdown"] for r in plain]
    # one round: a 20-problem eval with its report, or one corpus build
    run = [r["run_s"] / r["slowdown"] for r in plain]
    done = [r["attempted"] - r["failed"] for r in plain]
    items = [ms / r["slowdown"] for r in plain for ms in r["item_ms"]]
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run),
        "problems_per_s": statistics.median(n / t for n, t in zip(done, run)),
        "records_per_s": statistics.median(n / (s + t) for n, s, t in zip(done, setup, run)),
        "problem_p50_ms": quantile(items, 0.5),
        "problem_p90_ms": quantile(items, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(r["attempted"] for r in plain)
    notes = {
        "rounds": len(plain),
        "slowdown": [round(r["slowdown"], 3) for r in plain],
        "unscaled_setup_s": statistics.median(r["setup_s"] for r in plain),
        "unscaled_run_s": [round(r["run_s"], 3) for r in plain],
        # per-problem samples, and how many lie beyond the reported p90
        "problem_samples": len(items),
        "problem_samples_beyond_p90": sum(ms > values["problem_p90_ms"] for ms in items),
        "failed_share": sum(r["failed"] for r in plain) / attempted,
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import numpy
        from mathcontrast import _kernels
        from perfbench import gen, metrics, workloads
        from perfbench.checks import CheckFailed
        from perfbench.speed import SpeedSampler
        from perfbench.trace import Tracer
    except ImportError as exc:
        print(f"benchmark: cannot import the library from {ROOT}/src: {exc}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        paths = gen.generate(args.workload, args.seed, os.path.join(work_dir, "inputs"))
        tracer = Tracer() if args.trace else None
        try:
            with workloads.make(args.workload, paths, work_dir, args.seed) as wl:
                if tracer is None and wl.cpu_bound:
                    with SpeedSampler() as sampler:
                        rounds, server = measure(wl, args.seconds, None, sampler)
                else:
                    rounds, server = measure(wl, args.seconds, tracer, None)
        except CheckFailed as exc:
            print(f"benchmark: correctness check failed: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        plain = [r for r in rounds if not r["traced"]]
        overhead = statistics.median(t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        values = metrics.layer_values(
            tracer,
            sum(r["units"] for r in traced),
            sum(r["run_s"] for r in traced),
            overhead,
            kernel_us_per_pair(args.seed),
            server,
        )
        notes = {"rounds": len(plain), "traced_rounds": len(traced)}
        units = {name: unit for name, unit, _better, _moves in metrics.PER_LAYER}
        moves = {name: f"  -> moves {m}" for name, _unit, _better, m in metrics.PER_LAYER}
    else:
        values, notes = end_to_end(rounds)
        units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
        moves = {}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": "numba" if _kernels.USING_NUMBA else "numpy",
        "numba_active": bool(_kernels.USING_NUMBA),
        "cores": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}{moves.get(name, '')}")
    print(json.dumps({"env": env, "notes": notes}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
