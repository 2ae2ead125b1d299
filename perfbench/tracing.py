"""Span tracing of hogmt's public functions, installed from outside the package.

A traced function is replaced, in every hogmt module that holds a reference
to it, by a wrapper that records one span (name, parent, start, end).  That
is where the calling module looks the function up, so calls between modules
(``hogmt.linksim.zfdpc_precode``, ``hogmt.cli.hogmt_decompose``) are seen as
well as calls the benchmark makes itself.  Spans stay in memory; ``summary``
reduces them to per-function call counts, inclusive time and self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, function) pairs whose spans become per-layer metrics.  The names
# are the public functions that linksim, cli and stats call, plus the ones the
# benchmark calls directly.
TRACED = {
    "channel": ("generate_channel", "to_kernel", "save_ctf", "load_ctf"),
    "kernels": ("hogmt_decompose", "decompose_grid_pairs", "apply_kernel",
                "duality_residual"),
    "precoding": ("hogmt_precode", "zf_precode_instant", "zfdpc_precode",
                  "energy_report"),
    "linksim": ("run_ber", "modulate", "demodulate"),
    "stats": ("tf_transfer", "atomic_kernel", "decompose_atomic",
              "stats_from_decomp", "cmd", "stationarity_interval"),
}
CLI_SUBCOMMANDS = ("generate", "decompose", "precode", "simulate", "stats")
PACKAGE_MODULES = ("", ".channel", ".kernels", ".precoding", ".linksim",
                   ".stats", ".cli")


def function_names() -> list[str]:
    """Every span name a traced run reports, library and CLI."""
    names = [f"{m}.{f}" for m, fns in TRACED.items() for f in fns]
    return names + [f"cli.{s}" for s in CLI_SUBCOMMANDS]


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds directly (computed, not measured)."""
    total = 0
    for value in getattr(obj, "__dict__", {}).values():
        total += int(getattr(value, "nbytes", 0) or 0)
    return total


class Tracer:
    """Records nested spans for the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; spans opened inside are its children."""
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            span[3] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, extra=None) -> None:
        """Wrap every traced function wherever a hogmt module refers to it.

        ``extra`` maps a span name to ``(module, attribute)`` for further
        functions to wrap, such as the CLI entry point.
        """
        modules = [importlib.import_module("hogmt" + m) for m in PACKAGE_MODULES]
        targets = {
            f"{m}.{f}": ("hogmt." + m, f) for m, fns in TRACED.items() for f in fns
        }
        targets.update(extra or {})
        for name, (mod_name, attr) in targets.items():
            original = getattr(importlib.import_module(mod_name), attr)
            wrapped = self.wrap(name, original, _ON_RESULT.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self, within: str | None = None) -> dict[str, list[float]]:
        """name -> [calls, inclusive seconds, self seconds].

        With ``within``, only spans opened inside a span of that name count.
        """
        child_time = [0.0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                inside[i] = inside[i] or inside[parent]
            inside[i] = inside[i] or name == within
        out: dict[str, list[float]] = {}
        for i, (name, _parent, start, end) in enumerate(self.spans):
            if inside[i]:
                row = out.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += (end - start) - child_time[i]
        return out


def _count_kernel_bytes(tracer: Tracer, result) -> None:
    tracer.count("kernels.dense_kernel_bytes", array_bytes(result))


def _count_ber(tracer: Tracer, result) -> None:
    for point in result.points:
        tracer.count("linksim.bits", point.bits)
        tracer.count("linksim.points_failed", 1 if point.failed else 0)


_ON_RESULT = {
    "channel.to_kernel": _count_kernel_bytes,
    "linksim.run_ber": _count_ber,
}


def merge(into: dict, summary: dict) -> None:
    for name, (calls, incl, self_s) in summary.items():
        row = into.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += incl
        row[2] += self_s
