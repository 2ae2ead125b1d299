"""One workload in one fresh interpreter: warm-up, timed loop, checks.

Started by run.py, never by hand.  The process imports hogmt from the
checkout's ``src``, warms up every layer the workload uses, notes when it is
ready (set-up ends there), then runs operations back to back for the given
seconds.  Checks, oracles, the self-test and health readings run between
operations, outside the timed region.  With ``--trace 1`` operations
alternate between untraced and traced; the traced ones give the per-layer
figures, and the difference between the two kinds is the tracing overhead.
The result is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_OPS = 3  # operations per phase even when one outlasts the phase


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="wall clock (time.time) at which the parent started this process")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Tally:
    """Correctness counts, self-test outcomes and health maxima of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.selftest: dict[str, bool] = {}
        self.health: dict[str, float] = {}
        self.child_rss_kb = 0

    def absorb(self, wl, i: int, out) -> None:
        items = wl.check(out)
        self.attempted += len(items)
        bad_items = len(items) - sum(items)
        self.failed += bad_items
        if bad_items and len(self.failures) < 10:
            self.failures.append(f"operation {i}: {bad_items} of {len(items)} items failed")
        for key, value in wl.health(out).items():
            self.health[key] = max(self.health.get(key, value), value)
        self.child_rss_kb = max(self.child_rss_kb, getattr(out, "max_rss_kb", 0))

    def oracle_and_self_test(self, wl, out) -> None:
        """The costly checks, once per run, on operation 0's output."""
        items = wl.oracle(out)
        self.attempted += len(items)
        self.failed += len(items) - sum(items)
        if not all(items):
            self.failures.append("operation 0: oracle disagrees")
        for label, bad in wl.corruptions(out):
            self.selftest[label] = not all(wl.check(bad) + wl.oracle(bad))


def run_loop(wl, seconds: float, tally: Tally, tracer=None) -> list[dict]:
    """Closed loop: the next operation starts when the previous one returns.

    Returns the untraced phase, and with a tracer also the traced one:
    operations then alternate between the two, so a drift in the machine's
    speed reaches both alike.  A traced operation's checks are traced too,
    outside its ``bench.op`` span.
    """
    phases = [_new_phase()] + ([_new_phase()] if tracer is not None else [])
    perf = time.perf_counter
    deadline = perf() + seconds
    i = 0
    while True:
        phase = phases[i % len(phases)]
        traced = phase is not phases[0]
        if traced:
            tracer.install()
            wl.traced = True
        try:
            t0 = perf()
            if traced:
                with tracer.span("bench.op"):
                    out, parts = wl.op(i)
            else:
                out, parts = wl.op(i)
            elapsed = perf() - t0
            phase["op_s"].append(elapsed)
            for name, secs in (parts or {"op": elapsed}).items():
                phase["parts"].setdefault(name, []).append(secs)
            phase["work"].append(wl.work(out))
            for key, value in wl.counts(out).items():
                phase["counts"][key] = phase["counts"].get(key, 0.0) + value
            phase["span_files"].extend(str(f) for f in getattr(out, "spans", ()))
            tally.absorb(wl, i, out)
        finally:
            if traced:
                wl.traced = False
                tracer.uninstall()
        if i == 0 and wl.keeps_first:
            phase["first"] = out
        else:
            wl.release(out)
        i += 1
        if perf() >= deadline and all(len(p["op_s"]) >= MIN_OPS for p in phases):
            return phases


def _new_phase() -> dict:
    return {"op_s": [], "parts": {}, "work": [], "counts": {},
            "span_files": [], "first": None}


def typical_op_s(phase: dict) -> float:
    """Sum over an operation's components of each component's median time."""
    return sum(statistics.median(v) for v in phase["parts"].values())


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        } or "unset (library default)",
        "commit": _git_commit(Path.cwd()),
    }


def _blas_threads(np) -> int | str:
    """Thread count the bundled OpenBLAS reports, read without changing it."""
    import ctypes
    import glob

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for so in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(so)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return "unknown"


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import tracing
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.warmup()
    result = {"setup_s": time.time() - args.spawned_at}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tally = Tally()
    if args.trace == 0:
        (untraced,) = run_loop(wl, args.seconds, tally)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_kb"] = tally.child_rss_kb or self_rss
    else:
        tracer = tracing.Tracer()
        untraced, traced = run_loop(wl, args.seconds, tally, tracer)
        spans = tracer.summary()
        op_spans = tracer.summary(within="bench.op")
        counters = dict(tracer.counters)
        for path in traced["span_files"]:
            child = json.loads(Path(path).read_text())
            tracing.merge(spans, child["spans"])
            tracing.merge(op_spans, child["spans"])
            for k, v in child["counters"].items():
                counters[k] = counters.get(k, 0.0) + v
        result["traced"] = {
            "ops": len(traced["op_s"]),
            "typical_op_s": typical_op_s(traced),
            "op_s_total": sum(traced["op_s"]),
            "spans": spans,
            "op_spans": op_spans,
            "counters": counters,
            "counts": traced["counts"],
        }
    # after the peak RSS is read, so the oracle's memory does not count
    first = untraced["first"] or wl.op(0)[0]
    tally.oracle_and_self_test(wl, first)
    wl.release(first)
    result.update(
        ops=len(untraced["op_s"]),
        typical_op_s=typical_op_s(untraced),
        work_per_op=statistics.median(untraced["work"]),
        op_s=untraced["op_s"],
        parts=untraced["parts"],
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        selftest=tally.selftest,
        health=tally.health,
        env=environment(),
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
