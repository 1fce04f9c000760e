"""Span-stack tracer that wraps the program's entry points from outside.

Only a traced child imports this module. install() rebinds each traced
function where its callers look it up at call time (a module global or a
class attribute), so every call opens a span. A span's self time is its
duration minus the time its child spans cover; the self times of all spans
under one cli.run add up to that call's traced wall time. Tallies stay in
memory until take() hands them to the child, which writes them out when it
exits.
"""

import functools
import importlib
import os
import resource
import time
from collections import defaultdict

_SUM = ("bc_report", "bc_residual", "apply_UF", "crosscheck_report",
        "local_height_sum", "fourier_am")

# (module, attribute path, layer)
TARGETS = [
    ("padicheights.cli", "run", "cli"),
    ("padicheights.cli", "class_number", "quadfield"),
    ("padicheights.cli", "class_norm", "quadfield"),
    ("padicheights.heights", "class_norm", "quadfield"),
    ("padicheights.heights", "count_rA", "quadfield"),
    ("padicheights.heights", "build_char", "heckechar.build_char"),
    ("padicheights.heights", "iwasawa_log", "padic.log"),
    ("padicheights.heights", "HeightContext.__init__", "heights.ctx"),
    ("padicheights.heights", "HeightContext.prefetch", "heights.scan"),
    ("padicheights.heights", "HeightContext.sigma_res", "heights.sigma"),
] + [(mod, name, "heights.sum")
     for mod in ("padicheights.heights", "padicheights.cli") for name in _SUM]

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        # child time of each open span; the bottom entry catches the roots
        self._stack = [0.0]
        self._sigma_args = set()
        # the spans hold these two dicts, so they are cleared, never replaced
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._reset()

    def _reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.sigma_distinct = 0
        self.scan_rss_mb = 0.0

    def install(self):
        """Wrap every target that exists; a missing one reads as 0."""
        for modname, path, layer in TARGETS:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            if layer == "heights.sigma":
                wrapped = self._sigma_span(fn)
            elif layer == "heights.scan":
                wrapped = self._scan_span(fn)
            else:
                wrapped = self._span(layer, fn)
            setattr(owner, attr, wrapped)

    def _span(self, layer, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[layer] += 1
        return traced

    def _sigma_span(self, fn):
        seen = self._sigma_args

        @functools.wraps(fn)
        def noted(ctx, class_index, n):
            seen.add((class_index, n))
            return fn(ctx, class_index, n)
        return self._span("heights.sigma", noted)

    def _scan_span(self, fn):
        inner = self._span("heights.scan", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base = _rss_mb()
            try:
                return inner(*args, **kwargs)
            finally:
                self.scan_rss_mb = max(self.scan_rss_mb, _maxrss_mb() - base)
        return traced

    def end_invocation(self):
        """Close one CLI call: its context, and so its sigma cache, is gone."""
        self.sigma_distinct += len(self._sigma_args)
        self._sigma_args.clear()

    def take(self):
        """Per-layer tallies since the last take(), then start afresh."""
        s, c = self.self_s, self.calls
        log_calls = c["padic.log"]
        sigma_calls = c["heights.sigma"]
        out = {
            "cli.self_s": s["cli"],
            "quadfield.self_s": s["quadfield"],
            "quadfield.calls": c["quadfield"],
            "heckechar.build_char_s": s["heckechar.build_char"],
            "padic.log_s": s["padic.log"],
            "padic.log_calls": log_calls,
            "padic.log_us": s["padic.log"] / log_calls * 1e6 if log_calls else 0.0,
            "heights.ctx_s": s["heights.ctx"],
            "heights.scan_s": s["heights.scan"],
            "heights.scan_calls": c["heights.scan"],
            "heights.scan_rss_mb": self.scan_rss_mb,
            "heights.sigma_s": s["heights.sigma"],
            "heights.sigma_calls": sigma_calls,
            "heights.sigma_distinct": self.sigma_distinct,
            "heights.sigma_reuse": (1 - self.sigma_distinct / sigma_calls
                                    if sigma_calls else 0.0),
            "heights.sum_s": s["heights.sum"],
        }
        self._reset()
        return out
