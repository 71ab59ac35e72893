#!/usr/bin/env python3
"""Build and run the Fig-1 benchmark for one workload.

    python3 perfbench/run.py --workload fig1_small --seed 1 --seconds 24 --trace 0

Run from the repository root. The first run configures a Release build of
perfbench/ (which pulls in the library from ../src) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed.

One run starts PROCESSES fig1_bench processes in turn, each with
GCOL_THREADS=2 and an equal share of --seconds, and pools their per-cell
samples. Several processes average out state fixed for a process's life
(heap layout, where the scheduler puts the workers), which a single process
cannot; each process also sets up once, so setup_s is a median of
PROCESSES set-ups.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones. The line before it holds run
metadata (sample counts, reference-loop timings) that explains noise and
feeds no metric. Exit status is non-zero, with no result line, when the build
or a process fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("fig1_small", "g3_quarter", "rmat_skew")
WORKERS = 2
PROCESSES = 4
BUILD_JOBS = 3
# A cell's time is this quantile of its pooled samples: the median.
# README.md gives the same-code (A/A) runs behind the choice.
CELL_QUANTILE = 0.5
FAMILIES = ("gunrock", "graphblas", "naumov")


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def build(source: Path, build_dir: Path) -> Path:
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "fig1_bench",
         "-j", str(BUILD_JOBS)],
        check=True, stdout=log, stderr=log)
    return build_dir / "fig1_bench"


def run_processes(binary: Path, args) -> list:
    env = dict(os.environ, GCOL_THREADS=str(WORKERS))
    share = args.seconds / PROCESSES
    reports = []
    for part in range(PROCESSES):
        cmd = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--part", str(part), "--seconds", str(share),
               "--trace", str(args.trace)]
        # A hang guard that keeps the whole run inside three minutes; a
        # process normally takes its share plus a few seconds of set-up.
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=150 / PROCESSES)
        if proc.returncode != 0:
            raise RuntimeError(f"fig1_bench exited {proc.returncode}")
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return reports


def pool_cells(reports):
    """Concatenates each (graph, algorithm) cell's samples over processes."""
    cells = {}
    for report in reports:
        for c in report["cells"]:
            key = (c["graph"], c["algorithm"])
            if key not in cells:
                cells[key] = {"family": c["family"], "vertices": c["vertices"],
                              "references": [], **{k: [] for k in (
                                  "ms", "colors", "rounds", "launches",
                                  "conflicts", "minflt", "traced_ms")}}
            pooled = cells[key]
            pooled["references"].append(c["reference"])
            for k in ("ms", "colors", "rounds", "launches", "conflicts",
                      "minflt", "traced_ms"):
                pooled[k] += c[k]
    return cells


def end_to_end(cells, reports, ok_frac):
    cell_ms = {k: quantile(c["ms"], CELL_QUANTILE) for k, c in cells.items()}
    family = {f: sum(t for k, t in cell_ms.items() if cells[k]["family"] == f)
              for f in FAMILIES}
    log_colors = [math.log(statistics.median(c["colors"]))
                  for c in cells.values()]
    return {
        "color_ms": (sum(cell_ms.values()), "ms"),
        "ms.gunrock": (family["gunrock"], "ms"),
        "ms.graphblas": (family["graphblas"], "ms"),
        "ms.naumov": (family["naumov"], "ms"),
        "colors.geomean": (math.exp(statistics.fmean(log_colors)), "colors"),
        "ok_frac": (ok_frac, "ratio"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mib"] for r in reports),
                        "MiB"),
    }


def per_layer(cells, reports):
    def med(key):
        return statistics.median(r[key] for r in reports)

    metrics = {
        "graph.build_ms": (med("build_ms"), "ms"),
        "graph.csr_mb": (reports[0]["csr_mib"], "MiB"),
    }
    algorithms = sorted({a for _, a in cells})
    for alg in algorithms:
        mine = [c for (_, a), c in cells.items() if a == alg]
        metrics[f"core.ms.{alg}"] = (
            sum(quantile(c["ms"], CELL_QUANTILE) for c in mine), "ms")
        for key, name in (("rounds", "rounds"), ("launches", "launches"),
                          ("minflt", "minflt")):
            metrics[f"core.{name}.{alg}"] = (
                sum(statistics.median(c[key]) for c in mine), "count")
        if alg == "gunrock_hash":
            metrics["core.conflict_ratio.gunrock_hash"] = (
                sum(statistics.median(c["conflicts"]) for c in mine) /
                sum(c["vertices"] for c in mine), "ratio")

    ledger = defaultdict(float)
    for r in reports:
        for k, v in r["ledger"].items():
            ledger[k] += v
    passes = sum(r["traced_passes"] for r in reports)
    launches = sum(ledger[f"{layer}_launches"]
                   for layer in ("gunrock", "graphblas", "sim", "core"))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    traced = sum(statistics.median(c["traced_ms"]) for c in cells.values())
    untraced = sum(statistics.median(c["ms"]) for c in cells.values())
    metrics.update({
        "core.kernel_ms": (ledger["core_ms"] / passes, "ms"),
        "core.verify_ms": (sum(r["verify_ms"] for r in reports) /
                           sum(r["timed_passes"] for r in reports), "ms"),
        "sim.ms": (ledger["sim_ms"] / passes, "ms"),
        "sim.launches": (ledger["sim_launches"] / passes, "count"),
        "sim.inline_share": (ratio(ledger["inline_launches"], launches),
                             "ratio"),
        "sim.launch_overhead_us": (1e3 * ratio(ledger["overhead_ms"], launches),
                                   "us"),
        "sim.host_gap_ms": (ledger["host_gap_ms"] / passes, "ms"),
        "sim.empty_launch_us": (med("empty_launch_us"), "us"),
        "sim.scan_probe_ms": (med("scan_probe_ms"), "ms"),
        "sim.barrier_wait_share": (ratio(ledger["wait_ms"], ledger["slot_ms"]),
                                   "ratio"),
        "sim.busy_imbalance": (ratio(ledger["imbalance_x_ms"],
                                     ledger["imbalance_ms"]), "ratio"),
        "sim.modeled_gbps": (ratio(ledger["modeled_bytes"],
                                   ledger["modeled_ms"]) / 1e6, "GB/s"),
        "gunrock.ms": (ledger["gunrock_ms"] / passes, "ms"),
        "gunrock.launches": (ledger["gunrock_launches"] / passes, "count"),
        "gunrock.push_share": (ratio(ledger["gunrock_push"],
                                     ledger["gunrock_directed"]), "ratio"),
        "gunrock.advance_probe_ms": (med("advance_probe_ms"), "ms"),
        "graphblas.ms": (ledger["graphblas_ms"] / passes, "ms"),
        "graphblas.launches": (ledger["graphblas_launches"] / passes, "count"),
        "graphblas.vxm_probe_ms": (med("vxm_probe_ms"), "ms"),
        "obs.trace_overhead": (traced / untraced, "ratio"),
    })
    return metrics


def spread(values):
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    source = Path(__file__).resolve().parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(source, (build_dir / "perfbench").resolve())
        reports = run_processes(binary, args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1

    cells = pool_cells(reports)
    # Deterministic colorings must also agree between processes.
    mismatches = sum(len(c["references"]) - c["references"].count(
        c["references"][0]) for c in cells.values())
    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports) + mismatches
    # A cell whose every coloring failed has no sample; the metrics cover
    # the rest and the run is reported incorrect.
    sampled = {k: c for k, c in cells.items()
               if c["ms"] and (c["traced_ms"] or not args.trace)}
    correct = (failed == 0 and len(sampled) == len(cells) and
               all(r["probes_ok"] and r["self_test_ok"] for r in reports) and
               (not args.trace or all(r["ledger_ok"] for r in reports)))
    cells = sampled

    metrics = (per_layer(cells, reports) if args.trace else
               end_to_end(cells, reports, (attempted - failed) / attempted))
    meta = {
        "workload": args.workload, "seed": args.seed, "workers": WORKERS,
        "processes": PROCESSES, "cell_quantile": CELL_QUANTILE,
        "build_type": reports[0]["build_type"],
        "timed_passes": [r["timed_passes"] for r in reports],
        "traced_passes": [r["traced_passes"] for r in reports],
        "color_ms_at": {name: sum(quantile(c["ms"], q) for c in cells.values())
                        for name, q in (("min", 0.0), ("p20", 0.2),
                                        ("p25", 0.25), ("median", 0.5))},
        "setup_s": [r["setup_s"] for r in reports],
        "ref_compute_ms": spread([x for r in reports
                                  for x in r["ref_compute_ms"]]),
        "ref_gather_ms": spread([x for r in reports
                                 for x in r["ref_gather_ms"]]),
        "ledger_worst_closure": max(r["ledger_worst_closure"]
                                    for r in reports),
        "ledger_tolerance": reports[0]["ledger_tolerance"],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
