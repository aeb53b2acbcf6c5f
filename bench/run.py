"""nbcq benchmark: calibrate -> eval end to end, every module timed from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk-sweep --seed 0 --seconds 55 --trace 0

The program is imported from ``src/`` of the same checkout. A run makes one
untimed warm-up pass over the workload's ops (seeds base ..
base+seeds_per_pass-1), then repeats timed passes until ``--seconds`` are
used up, with at least three of them, and reports the median pass. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object (correct, attempted, failed, metrics).
Details go to ``.bench_out/`` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "calibrate_s": "s",
    "eval_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "feature_loss": "mse",
}


def _import_program():
    """Import nbcq from this checkout's src/ or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import nbcq
    except ImportError as exc:
        sys.exit(f"bench: cannot import nbcq from {src}: {exc}")
    if Path(nbcq.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: nbcq was imported from {nbcq.__file__}, not from {src}")


def environment(base_seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "base_seed": base_seed,
    }


def measure(wl, base_seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run passes for ``seconds``; return the result record of the run."""
    from spans import Tracer, installed, layer_metrics
    from workloads import pass_digest, run_pass

    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = out_dir / f"{wl.name}-seed{base_seed}-trace{int(trace)}.nbcb"
    # The first pass in a process runs about 30% slow (page faults on fresh
    # memory, lazy imports); it is checked but not timed. It counts against
    # ``seconds`` so that a run lasts about as long as asked.
    start = perf_counter()
    warmup = run_pass(wl, base_seed, bundle)
    plain, traced = [], []  # (ops, wall seconds[, tracer])
    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            t0 = perf_counter()
            with installed(tracer):
                ops = run_pass(wl, base_seed, bundle, tracer)
            traced.append((ops, perf_counter() - t0, tracer))
        else:
            t0 = perf_counter()
            ops = run_pass(wl, base_seed, bundle)
            plain.append((ops, perf_counter() - t0))
        done = len(plain) + len(traced)
        elapsed = perf_counter() - start
        if done >= MIN_PASSES and elapsed + elapsed / (done + 1) > seconds:
            break
    bundle.unlink(missing_ok=True)

    passes = [warmup] + [p[0] for p in plain + traced]
    all_ops = [op for ops in passes for op in ops]
    digests = sorted({pass_digest(ops) for ops in passes})
    failed = sum(op.failed for op in all_ops)
    problems = sorted({f"seed {op.seed} {op.mode}: {msg}" for op in all_ops for msg in op.problems})
    if len(digests) > 1:
        problems.append(f"passes disagree: {len(digests)} distinct result digests")

    def median_of(key):
        return statistics.median(sum(getattr(op, key) for op in ops) for ops, *_ in plain)

    first = plain[0][0]
    nbc_losses = [op.feature_loss for op in first if op.mode == "nbc" and op.feature_loss is not None]
    if trace:
        layers = [layer_metrics(t) for _, _, t in traced]
        # median_low keeps counts whole: it returns one of the passes' values
        metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(w for _, w, _ in traced) - statistics.median(w for _, w in plain)
        )
    else:
        metrics = {
            "setup_s": median_of("setup_s"),
            "calibrate_s": median_of("calibrate_s"),
            "eval_s": median_of("eval_s"),
            "wall_s": median_of("wall_s"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "feature_loss": statistics.fmean(nbc_losses) if nbc_losses else 0.0,
        }
    if trace:
        spans_path = out_dir / f"{wl.name}-seed{base_seed}-spans.jsonl"
        with open(spans_path, "w") as f:
            for index, (_, _, t) in enumerate(traced):
                for i, (name, s, e, parent) in enumerate(t.spans):
                    f.write(json.dumps({"pass": index, "id": i, "name": name, "start": s,
                                        "end": e, "parent": parent}) + "\n")

    return {
        "workload": asdict(wl),
        "environment": environment(base_seed),
        "trace": trace,
        "passes": {"untraced_wall_s": [w for _, w in plain],
                   "traced_wall_s": [w for _, w, _ in traced]},
        "ops": [asdict(op) for op in first],
        "digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS before numpy is first imported, which _import_program does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_program()
    from spans import LAYER_METRICS, leftover_wrappers, missing_sites
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    result["missing_sites"] = missing_sites()
    leftover = leftover_wrappers()
    if leftover:
        result["problems"].append(f"wrappers left installed: {leftover}")
        result["correct"] = False

    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    units = LAYER_METRICS if args.trace else END_TO_END
    for op in result["ops"]:
        print(f"op seed={op['seed']} mode={op['mode']} chosen_n={op['chosen_n']} "
              f"fls_evaluations={op['fls_evaluations']} feature_loss={op['feature_loss']!r} "
              f"setup_s={op['setup_s']:.4f} calibrate_s={op['calibrate_s']:.4f} "
              f"eval_s={op['eval_s']:.4f}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(f"digest {args.workload} seed={args.seed}: {result['digest']}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
