"""satpose benchmark: end-to-end figures (--trace 0) or per-layer figures (--trace 1).

    python3 bench/run.py --workload solve_clean --seed 1 --seconds 20 --trace 0

Runs one workload in this process, one caller, no extra threads, on inputs
generated from --seed. It imports satpose from the ``src/`` directory next
to ``bench/``, times calls into satpose's public functions from outside,
checks the outputs against the correctness gates, and prints a summary
followed by one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names and units come from ``BENCHMARK.json``. A result
file with run metadata (and, when traced, every span) goes to
``.bench_out/`` at the checkout root. Exit status: 0 when every gate held,
1 when a gate failed, 2 when satpose cannot be found or imported.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the benchmark has one caller.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve_clean", "solve_outliers", "dataset_build")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # satpose is imported only after its sources are known to be here.
    if not (SRC / "satpose" / "__init__.py").is_file():
        print(f"satpose sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import satpose

        import measure
        import workloads
    except ImportError as exc:
        print(f"cannot import satpose: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(satpose.__file__).resolve().parents:
        print(f"satpose was imported from {satpose.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = spec["per_layer" if args.trace else "end_to_end"]
    run = measure.traced if args.trace else measure.end_to_end
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    try:
        outcome = run(args.workload, args.seed, args.seconds, SRC, OUT)
        error = None
    except workloads.GateError as exc:
        outcome, error = None, str(exc)
    finally:
        for leftover in (OUT / "work").glob("*.json"):
            leftover.unlink()

    metrics, summary = {}, []
    if outcome is not None:
        for m in specs:
            value = outcome["figures"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            summary.append(f"{m['name']:36s} {value:>14.6g} {m['unit']}")
        for key, value in outcome["accuracy"].items():
            summary.append(f"accuracy.{key:27s} {value:>14.6g}")
        summary.append(f"detail: {outcome['detail']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": measure.metadata(ROOT, SRC),
        "correct": error is None,
        "error": error,
        "metrics": metrics,
        **{k: outcome[k] for k in ("attempted", "failed", "accuracy", "detail") if outcome},
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"satpose bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in summary:
        print("  " + line)
    if error:
        print(f"  GATE FAILED: {error}")
    print(f"  result file: {result_path.relative_to(ROOT)}")
    result = {
        "correct": error is None,
        "attempted": outcome["attempted"] if outcome else 1,
        "failed": outcome["failed"] if outcome else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
