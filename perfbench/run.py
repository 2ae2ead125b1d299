"""hogmt benchmark: one command, four workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Workloads: ber_sweep, decompose_long, stats_ensemble, cli_pipeline (see
README.md beside this file for why each exists and what it should move).

With ``--trace 0`` the run measures set-up time in three fresh interpreters
(two set-up probes and the worker itself) and then one closed loop of
operations in the worker, untraced, and reports every end-to-end metric.
With ``--trace 1`` the worker alternates untraced and traced operations and
reports every per-layer metric.  Every output is checked; the last
line of stdout is the JSON result.  A record with the environment stamp and
raw samples goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, the worker included
TIME_LIMIT_S = 170.0  # whole run, set-up probes included
WORKLOADS = ("ber_sweep", "decompose_long", "stats_ensemble", "cli_pipeline")
WORK_NAMES = {  # the workload's own name for its throughput figure
    "ber_sweep": ("ber_bits_per_s", "bits/s"),
    "decompose_long": ("channels_per_s", "channels/s"),
    "stats_ensemble": ("stats_members_per_s", "members/s"),
    "cli_pipeline": ("cli_pipelines_per_s", "pipelines/s"),
}
MODULES = (*tracing.TRACED, "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn_worker(args, run_dir: Path, tag: str, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    result = run_dir / f"{tag}.json"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(run_dir / tag), "--result", str(result),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(argv, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{tag} ran past the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{tag} exited with code {code}")
    return json.loads(result.read_text())


def end_to_end(args, res: dict, setups: list[float]) -> dict:
    attempted = res["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "pass_ratio": ((attempted - res["failed"]) / attempted, "fraction"),
        "work_per_s": (res["work_per_op"] / res["typical_op_s"], "1/s"),
    }


def per_layer(res: dict) -> dict:
    tr = res["traced"]
    n = tr["ops"]
    spans, counters = tr["spans"], tr["counters"]
    out = {}
    for name in tracing.function_names():
        calls, incl, self_s = spans.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.s"] = (incl / n, "s")
        out[f"{name}.self_s"] = (self_s / n, "s")
    out["cli.self_s"] = (sum(
        spans.get(f"cli.{s}", (0, 0.0, 0.0))[2] for s in tracing.CLI_SUBCOMMANDS
    ) / n, "s")
    kernels_made = spans.get("channel.to_kernel", (0, 0.0, 0.0))[0]
    out["kernels.dense_kernel_bytes"] = (
        counters.get("kernels.dense_kernel_bytes", 0.0) / kernels_made
        if kernels_made else 0.0, "bytes")
    out["linksim.bits"] = (counters.get("linksim.bits", 0.0) / n, "bits")
    out["linksim.points_failed"] = (counters.get("linksim.points_failed", 0.0) / n, "count")
    out["cli.bytes_written"] = (tr["counts"].get("cli.bytes_written", 0.0) / n, "bytes")
    op_total = tr["op_s_total"]
    for module in MODULES:
        own = sum(row[2] for name, row in tr["op_spans"].items()
                  if name.startswith(module + "."))
        out[f"{module}.self_share"] = (own / op_total, "fraction")
    for key in ("health.max_tx_energy", "health.dropped_energy", "health.max_cond",
                "health.max_residual", "health.max_duality_residual"):
        out[key] = (res["health"].get(key, 0.0), _HEALTH_UNITS[key])
    overhead = tr["typical_op_s"] - res["typical_op_s"]
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / res["typical_op_s"], "%")
    out["bench.traced_ops"] = (float(n), "count")
    out["bench.untraced_ops"] = (float(res["ops"]), "count")
    return out


_HEALTH_UNITS = {
    "health.max_tx_energy": "energy",
    "health.dropped_energy": "energy",
    "health.max_cond": "ratio",
    "health.max_residual": "ratio",
    "health.max_duality_residual": "ratio",
}


def report(args, res: dict, metrics: dict) -> dict:
    """Human-readable lines on stdout; returns the JSON-ready metric mapping."""
    print(f"# hogmt benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(res["env"], sort_keys=True))
    print(f"# operations: {res['ops']}; checked items: {res['attempted']}, "
          f"failed: {res['failed']} "
          f"(failed_ratio = {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.6g})")
    for label, caught in sorted(res["selftest"].items()):
        print(f"# self-test: corrupted output '{label}' "
              f"{'rejected' if caught else 'NOT rejected'}")
    for line in res["failures"]:
        print(f"# failure: {line}")
    if args.trace == 0:
        alias, unit = WORK_NAMES[args.workload]
        value = metrics["work_per_s"][0]
        if args.workload == "cli_pipeline":
            print(f"# cli_pipeline_s = {1.0 / value:.6g} s")
        print(f"# {alias} = {value:.6g} {unit}")
    else:
        tr = res["traced"]
        shares = ", ".join(f"{m} {metrics[m + '.self_share'][0]:.3f}" for m in MODULES)
        print(f"# self-time share of traced operations: {shares}")
        print(f"# tracing overhead: {metrics['trace.overhead_s'][0]:.6g} s per "
              f"operation ({metrics['trace.overhead_pct'][0]:.3g} %), "
              f"{tr['ops']} traced vs {res['ops']} untraced operations")
    out = {}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            print(f"# warning: {name} is {value}; reported as 0")
            value = 0.0
        out[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hogmt" / "__init__.py").is_file():
        print("error: run from the root of a hogmt checkout (src/hogmt not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = root / ".perfbench_out"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if args.trace == 0:
            for k in range(SETUP_SAMPLES - 1):
                probe = spawn_worker(args, run_dir, f"setup{k}", deadline, True)
                setups.append(probe["setup_s"])
        res = spawn_worker(args, run_dir, "worker", deadline, False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(res["setup_s"])
    metrics = end_to_end(args, res, setups) if args.trace == 0 else per_layer(res)
    json_metrics = report(args, res, metrics)
    correct = res["failed"] == 0 and all(res["selftest"].values()) and bool(res["selftest"])
    record = dict(res, setup_samples=setups, metrics=json_metrics, correct=correct,
                  args=vars(args))
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": json_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
