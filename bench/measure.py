"""Timed and traced runs of one workload; see README.md for every definition.

End-to-end runs (tracing off): the core speed of a small shared host moves
by up to 2x within seconds and by 20 % over minutes. So every timed call
is bracketed by calls of the reference kernel of ``reference.py``, and the
call's time is taken in units of the kernel's time. Each unit of work (a
one-record ``run_pipeline`` call, a slice of the dataset chain, one
triangulation) is timed once per round until the time is spent, and keeps
its median over the rounds. Figures are reported in seconds at the
kernel's nominal speed, ``reference.KERNEL_MS``; the raw wall-time figures go to the result file.

Traced runs alternate untraced and traced whole-input passes and report
per-layer counts and self times, in plain wall time, from ``tracing.Tracer``.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads as wl
from tracing import Tracer

SETUP_ROUNDS = 5  # setup_s is the median of this many set-ups
DATASET_ONE_RECORDS = 100  # distinct one-record chains timed per round
HELD_OUT_SEED = 1001  # validate a claim on this seed; never tune on it
KERNEL_S = reference.KERNEL_MS / 1e3  # seconds per kernel unit in reported figures

IMPORT_PROBE = (
    "import statistics, sys, time; sys.path[:0] = sys.argv[1:]; "
    "t = time.perf_counter(); import satpose; t = time.perf_counter() - t; "
    "import reference; "
    "print(t / statistics.median(reference.kernel_seconds() for _ in range(5)))"
)


def import_kernels(src: Path) -> float:
    """``import satpose`` in a fresh interpreter, in kernel units."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src), str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; failed samples are inf and miss every limit."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def calibrated(fn, *args):
    """Call ``fn`` between two kernel calls; the result and its sample.

    A sample is ``(kernel units, wall seconds)``: the call's wall time over
    the mean of the kernel times on either side of it.
    """
    before = reference.kernel_seconds()
    result, wall = timed(fn, *args)
    after = reference.kernel_seconds()
    return result, (2 * wall / (before + after), wall)


def set_up(make_inputs, src: Path):
    """Build the inputs SETUP_ROUNDS times; the same seed must give the same inputs.

    Returns the inputs and the median set-up time in kernel units.
    """
    rounds, prints, inputs = [], set(), None
    for _ in range(SETUP_ROUNDS):
        imported = import_kernels(src)
        inputs, (generated, _) = calibrated(make_inputs)
        rounds.append(imported + generated)
        prints.add(inputs.fingerprint())
    if len(prints) != 1:
        raise wl.GateError("the same seed generated different inputs")
    return inputs, statistics.median(rounds)


def interleave(round_kinds, seconds: float) -> list[list]:
    """Run one round of each kind in turn until another would overrun the time."""
    results = [[] for _ in round_kinds]
    start = time.perf_counter()
    while True:
        for kind, run_round in enumerate(round_kinds):
            results[kind].append(run_round())
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(results[0])) > seconds:
            return results


def timed_units(fn, items) -> tuple[list, list[tuple]]:
    """``calibrated`` over the items, sharing the kernel call between neighbours."""
    outputs, samples = [], []
    before = reference.kernel_seconds()
    for item in items:
        output, wall = timed(fn, item)
        after = reference.kernel_seconds()
        outputs.append(output)
        samples.append((2 * wall / (before + after), wall))
        before = after
    return outputs, samples


def per_unit(rounds: list[list[tuple]]) -> tuple[list[float], list[float]]:
    """Per unit over the rounds: the median kernel units and the fastest wall seconds."""
    units = list(zip(*rounds))
    return (
        [statistics.median(k for k, _ in unit) for unit in units],
        [min(w for _, w in unit) for unit in units],
    )


# --------------------------------------------------------------------------
# End-to-end run (--trace 0)


def solve_end_to_end(workload: str, seed: int, seconds: float, src: Path) -> dict:
    inputs, setup_ku = set_up(lambda: wl.solve_inputs(workload, seed), src)
    records = inputs.manifest.records
    whole = wl.solve(inputs, inputs.manifest)  # untimed; reference scores and warm-up
    scores = wl.outcomes(whole)
    wl.check_solve(workload, wl.accuracy(whole))

    expected = [None if scores[r.id][0] == "failed" else scores[r.id] for r in records]
    (rounds,) = interleave(
        (lambda: timed_units(lambda r: wl.solve_one(inputs, r), records),), seconds
    )
    for got, _ in rounds:
        if got != expected:
            raise wl.GateError(f"{workload}: a one-record call differs from the whole manifest")
    units = per_unit([samples for _, samples in rounds])
    failed = [o is None for o in expected]
    return {
        "throughput": (len(records), units),  # the one-record calls cover the manifest
        "latency": (units, failed),
        "setup_ku": setup_ku,
        "attempted": len(records) * len(rounds),
        "failed": sum(failed) * len(rounds),
        "accuracy": wl.accuracy(whole),
        "detail": {"records": len(records), "rounds": len(rounds)},
    }


def dataset_end_to_end(seed: int, seconds: float, src: Path, workdir: Path) -> dict:
    inputs, setup_ku = set_up(lambda: wl.dataset_inputs(seed, workdir), src)
    wl.dataset_one(inputs, -1)  # warm-up, untimed
    keypoints = range(inputs.wireframe.count)

    def chain_round():
        slices, slice_samples = timed_units(
            lambda k: wl.dataset_slice(inputs, k), range(wl.DATASET.slices)
        )
        for s in slices:
            wl.check_slice(s)  # then drop the manifests
        views = wl.triangulation_views(slices)
        points, point_samples = timed_units(
            lambda k: wl.triangulate_keypoint(inputs, views, k), keypoints
        )
        result = wl.ChainResult(np.array(points), sum(s.manifest_bytes for s in slices))
        wl.check_chain(result, inputs.wireframe)
        summary = (wl.wireframe_err_mm(result, inputs.wireframe), result.manifest_bytes)
        return summary, slice_samples + point_samples

    chain_rounds, one_rounds = interleave(
        (
            chain_round,
            lambda: timed_units(lambda i: wl.dataset_one(inputs, i), range(DATASET_ONE_RECORDS)),
        ),
        seconds,
    )
    summaries = {summary for summary, _ in chain_rounds}
    if len(summaries) != 1:
        raise wl.GateError(f"dataset_build: chains disagree on error or size: {summaries}")
    err_mm, manifest_bytes = summaries.pop()
    n = wl.DATASET.records
    return {
        "throughput": (n, per_unit([samples for _, samples in chain_rounds])),
        "latency": (per_unit([samples for _, samples in one_rounds]), [False] * DATASET_ONE_RECORDS),
        "setup_ku": setup_ku,
        "attempted": n * len(chain_rounds) + DATASET_ONE_RECORDS * len(one_rounds),
        "failed": 0,  # a failing chain raises and ends the run
        "accuracy": {"wireframe_err_mm": err_mm, "manifest_bytes": manifest_bytes},
        "detail": {"records": n, "one_records": DATASET_ONE_RECORDS, "rounds": len(chain_rounds)},
    }


def end_to_end(workload: str, seed: int, seconds: float, src: Path, out: Path) -> dict:
    if workload == "dataset_build":
        result = dataset_end_to_end(seed, seconds, src, out / "work")
    else:
        result = solve_end_to_end(workload, seed, seconds, src)
    n, (unit_ku, unit_fastest) = result.pop("throughput")
    (item_ku, item_fastest), failed = result.pop("latency")
    if sum(failed) * 10 >= len(failed):
        raise wl.GateError(f"{workload}: 10 % or more of the one-item calls failed")
    latencies = [math.inf if f else KERNEL_S * k for f, k in zip(failed, item_ku)]
    fastest = [math.inf if f else w for f, w in zip(failed, item_fastest)]
    setup_ku = result.pop("setup_ku")
    result["detail"]["latency_samples"] = len(latencies)
    result["detail"]["wall"] = {  # plain wall times: each unit's fastest round
        "records_per_s": n / sum(unit_fastest),
        "latency_p50_ms": 1e3 * percentile(fastest, 0.5),
        "latency_p90_ms": 1e3 * percentile(fastest, 0.9),
    }
    result["figures"] = {
        "records_per_s": n / (KERNEL_S * sum(unit_ku)),
        "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "setup_s": KERNEL_S * setup_ku,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return result


# --------------------------------------------------------------------------
# Traced run (--trace 1)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def traced(workload: str, seed: int, seconds: float, src: Path, out: Path) -> dict:
    tracer = Tracer()
    tracer.trace = "setup"
    with tracer.instrument():
        if workload == "dataset_build":
            inputs = wl.dataset_inputs(seed, out / "work")
        else:
            inputs = wl.solve_inputs(workload, seed)
    setup_counts, setup_values = tracer.snapshot()

    # A unit returns (outputs that must not change, unattributed ms, failures).
    if workload == "dataset_build":
        records = wl.DATASET.records

        def unit(provider=None):
            result = wl.dataset_chain(inputs)
            wl.check_chain(result, inputs.wireframe)
            return (wl.wireframe_err_mm(result, inputs.wireframe), result.manifest_bytes), 0.0, 0

    else:
        records = len(inputs.manifest.records)

        def unit(provider=None):
            run = wl.solve(inputs, inputs.manifest, provider)
            t = run.timing
            unattributed = 1e3 * t.total_s - (t.detection_ms + t.landmarks_ms + t.pnp_ms)
            return (wl.outcomes(run), wl.accuracy(run)), unattributed, len(run.failures)

    plain, traced_walls, pass_stats, summaries = [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + plain[-1][1] + traced_walls[-1] < seconds:
        plain.append(timed(unit))
        tracer.trace = f"pass{len(traced_walls)}"
        provider = None
        if workload != "dataset_build":
            provider = tracer.traced_provider(inputs.provider())
        with tracer.instrument():
            result, wall = timed(unit, provider)
        traced_walls.append(wall)
        summaries += [result, plain[-1][0]]
        pass_stats.append(tracer.snapshot())
    passes = len(traced_walls)

    counts = [c for c, _ in pass_stats]
    if any(c != counts[0] for c in counts[1:]):
        raise wl.GateError(f"{workload}: per-layer counts differ between traced passes")
    if any(s[0] != summaries[0][0] for s in summaries):
        raise wl.GateError(f"{workload}: traced and untraced passes give different outputs")
    if workload == "dataset_build":
        err_mm, manifest_bytes = summaries[0][0]
        accuracy = {"wireframe_err_mm": err_mm, "manifest_bytes": manifest_bytes}
    else:
        accuracy = summaries[0][0][1]
        wl.check_solve(workload, accuracy)

    self_setup = tracer.self_ms("setup")
    per_pass = [tracer.self_ms(f"pass{k}") for k in range(passes)]
    names = set(self_setup).union(*per_pass)
    self_ms = {
        n: self_setup.get(n, 0.0) + statistics.median(p.get(n, 0.0) for p in per_pass)
        for n in names
    }
    c = setup_counts + counts[0]
    values = {
        k: setup_values.get(k, []) + pass_stats[0][1].get(k, [])
        for k in set(setup_values) | set(pass_stats[0][1])
    }
    hypotheses = values.get("pnp.robust.hypotheses", [])
    figures = {
        "pnp.epnp.calls": c["pnp.epnp.calls"],
        "pnp.epnp.self_ms": self_ms.get("pnp.epnp", 0.0),
        "pnp.epnp.failed": c["pnp.epnp.raised"],
        "pnp.robust.self_ms": self_ms.get("pnp.robust", 0.0),
        "pnp.robust.hypotheses": sum(hypotheses),
        "pnp.robust.hypotheses_max": max(hypotheses, default=0),
        "pnp.robust.hypothesis_yield": _ratio(
            c["pnp.robust.calls"] - c["pnp.robust.raised"], sum(hypotheses)
        ),
        "pnp.robust.capped": c["pnp.robust.capped"],
        "pnp.robust.inlier_ratio": _ratio(c["pnp.robust.inliers"], c["pnp.robust.points"]),
        "pnp.refine.self_ms": self_ms.get("pnp.refine", 0.0),
        "pnp.refine.iterations": c["pnp.refine.jacobian"],
        "pnp.refine.rms_before_px": _median(values.get("pnp.refine.rms_before_px", [])),
        "pnp.refine.rms_after_px": _median(values.get("pnp.refine.rms_after_px", [])),
        "pipeline.self_ms": self_ms.get("pipeline", 0.0),
        "pipeline.provider_ms": statistics.median(
            tracer.inclusive_ms(f"pass{k}", "pipeline.provider") for k in range(passes)
        ),
        "pipeline.landmarks_dropped": c["pipeline.landmarks_dropped"],
        "pipeline.unattributed_ms": statistics.median(u for (_, u, _), _ in plain),
        "pipeline.labels.self_ms": self_ms.get("pipeline.labels", 0.0),
        "pipeline.failed_frac": accuracy.get("failed_frac", 0.0),
        "rng.streams": c["rng.stream"],
        "rng.self_ms": self_ms.get("rng", 0.0),
        "geometry.landmarks_norm.self_ms": self_ms.get("geometry.landmarks_norm", 0.0),
        "geometry.project.calls": c["geometry.project.calls"],
        "geometry.project.self_ms": self_ms.get("geometry.project", 0.0),
        "roi.make_roi.self_ms": self_ms.get("roi.make_roi", 0.0),
        "metrics.self_ms": self_ms.get("metrics", 0.0),
        "metrics.E": accuracy.get("E", 0.0),
        "metrics.e_q_deg_median": accuracy.get("e_q_deg_median", 0.0),
        "sampler.self_ms": self_ms.get("sampler", 0.0),
        "sampler.candidates": c["sampler.candidate"],
        "sampler.accept_ratio": _ratio(c["sampler.calls"], c["sampler.candidate"]),
        "manifest.save_ms": self_ms.get("manifest.save", 0.0),
        "manifest.load_ms": self_ms.get("manifest.load", 0.0),
        "manifest.split_ms": self_ms.get("manifest.split", 0.0),
        "manifest.bytes": accuracy.get("manifest_bytes", 0),
        "pnp.triangulate.self_ms": self_ms.get("pnp.triangulate", 0.0),
        "pnp.triangulate.views": c["pnp.triangulate.views"],
        "pnp.triangulate.wireframe_err_mm": accuracy.get("wireframe_err_mm", 0.0),
        "trace.overhead_frac": min(traced_walls) / min(w for _, w in plain) - 1.0,
        "trace.spans": sum(1 for s in tracer.spans if s[5] == "pass0"),
    }
    spans_path = out / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    return {
        "figures": figures,
        "attempted": records * 2 * passes,
        "failed": sum(failed for _, _, failed in summaries),
        "accuracy": accuracy,
        "detail": {"passes": passes, "pass_records": records, "spans_file": spans_path.name},
    }


# --------------------------------------------------------------------------
# Run metadata, kept apart from the metrics


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read through ctypes; None if unavailable."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(root: Path, src: Path) -> dict:
    digest, lines = hashlib.sha256(), 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "held_out_seed": HELD_OUT_SEED,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }
