"""Span tracing of the lab's layers from outside the library.

``Tracer.install`` wraps every public function of the layer modules at every
place the package binds it (the defining module and each ``from x import y``
site), wraps the constructors of the set types of ``cyclic``, and wraps
numpy's FFTs, ``convolve``, ``roll`` and ``cumsum``.  A span records its
name, start, end, parent and the report it belongs to; spans stay in memory
until ``write``.  A numpy kernel call is attributed to the innermost open
layer span.  ``uninstall`` restores every binding.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time

import numpy as np

from workloads import is_prime

LAYERS = ("cli", "cyclic", "fourier", "equations", "bohr", "periodicity", "behrend")
FFT_KERNELS = ("fft", "ifft", "rfft", "irfft")
NP_KERNELS = ("convolve", "roll", "cumsum")
# Private helpers counted (not timed as spans) because a metric names the
# path they stand for.
COUNTED_PRIVATE = {"behrend": ("_count_by_convolution", "_count_by_enumeration")}

#: Per-layer metrics with their units and the better direction, in output order.
PER_LAYER = [(f"{layer}.{m}", u, "lower") for layer in LAYERS
             for m, u in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
PER_LAYER += [
    ("cli.output_bytes", "bytes", "lower"),
    ("cyclic.sets_built", "count", "lower"),
    ("cyclic.elements_built", "count", "lower"),
    ("fourier.convolve_calls", "count", "lower"),
    ("fourier.fft_calls", "count", "lower"),
    ("fourier.fft_points", "points", "lower"),
    ("fourier.fft_prime_share", "ratio", "lower"),
    ("fourier.exact_fallbacks", "count", "lower"),
    ("fourier.fallback_ratio", "ratio", "lower"),
    ("equations.count_fast_calls", "count", "lower"),
    ("equations.bruteforce_calls", "count", "lower"),
    ("bohr.is_regular_calls", "count", "lower"),
    ("bohr.regular_attempts_per_find", "ratio", "lower"),
    ("bohr.enumerate_calls", "count", "lower"),
    ("bohr.radii_cache_hit_ratio", "ratio", "higher"),
    ("periodicity.almost_periods_self_s", "s", "lower"),
    ("periodicity.driver_self_s", "s", "lower"),
    ("periodicity.driver_steps", "count", "higher"),
    ("periodicity.roll_calls", "count", "lower"),
    ("periodicity.cumsum_calls", "count", "lower"),
    ("behrend.build_self_s", "s", "lower"),
    ("behrend.verify_self_s", "s", "lower"),
    ("behrend.conv_path_share", "ratio", "lower"),
    ("behrend.fft_points", "points", "lower"),
    ("trace.reports", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]


class Tracer:
    def __init__(self, package: str = "invariant_eq_lab"):
        self.package = package
        self.report = -1
        self.stack = []  # open spans: [span index, layer, name, start, child time, parent]
        self.layer_depth = {layer: 0 for layer in LAYERS}
        self.spans = []  # (report, name, start, end, parent index)
        self.calls = {layer: 0 for layer in LAYERS}
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.self_time = {}  # span name -> summed exclusive time
        self.fn_calls = {}  # function name -> calls
        self.kernels = {}  # (layer, kernel) -> [calls, points, prime-length calls]
        self.counters = {"sets_built": 0, "elements_built": 0, "driver_steps": 0,
                         "regular_in_find": 0}
        self._restore = []

    # -- spans -----------------------------------------------------------------

    def _open(self, layer: str, name: str):
        parent = self.stack[-1][0] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.layer_depth[layer] += 1
        self.stack.append([idx, layer, name, time.perf_counter(), 0.0, parent])

    def _close(self):
        end = time.perf_counter()
        idx, layer, name, start, child, parent = self.stack.pop()
        dur = end - start
        self.spans[idx] = (self.report, name, start, end, parent)
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        self.layer_depth[layer] -= 1
        if self.layer_depth[layer] == 0:
            self.busy[layer] += dur
        if self.stack:
            self.stack[-1][4] += dur

    def _span(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.fn_calls[name] = tracer.fn_calls.get(name, 0) + 1
            if name == "bohr.is_regular" and any(s[2] == "bohr.find_regular_dilate" for s in tracer.stack):
                tracer.counters["regular_in_find"] += 1
            tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if name == "periodicity.increment_driver":
                tracer.counters["driver_steps"] += len(result.steps)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, kernel: str, fn, is_fft: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            layer = tracer.stack[-1][1] if tracer.stack else "harness"
            entry = tracer.kernels.setdefault((layer, kernel), [0, 0, 0])
            entry[0] += 1
            if is_fft:
                n = kwargs.get("n", args[1] if len(args) > 1 else None)
                if n is None:
                    n = np.shape(args[0])[-1]
                entry[1] += int(n)
                entry[2] += is_prime(int(n))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _setattr(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: sys.modules[f"{self.package}.{name}"] for name in LAYERS}
        package_mods = [m for n, m in sys.modules.items()
                        if m is not None and (n == self.package or n.startswith(self.package + "."))]
        replace = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        replace[id(obj)] = self._span(layer, f"{layer}.{attr}", obj)
                    elif attr in COUNTED_PRIVATE.get(layer, ()):
                        replace[id(obj)] = self._counter(f"{layer}.{attr}", obj)
        for mod in package_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._setattr(mod, attr, replace[id(obj)])
        cyclic = mods["cyclic"]
        for cls in (cyclic.ResidueSet, cyclic.IntervalSet):
            self._setattr(cls, "__post_init__", self._constructor(cls))
        for k in FFT_KERNELS:
            self._setattr(np.fft, k, self._kernel(k, getattr(np.fft, k), True))
        for k in NP_KERNELS:
            self._setattr(np, k, self._kernel(k, getattr(np, k), False))

    def _counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.fn_calls[name] = tracer.fn_calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _constructor(self, cls):
        original = cls.__post_init__
        name = f"cyclic.{cls.__name__}"
        tracer = self

        def post_init(obj):
            tracer._open("cyclic", name)
            try:
                original(obj)
            finally:
                tracer._close()
            tracer.counters["sets_built"] += 1
            tracer.counters["elements_built"] += len(obj.elements)

        return post_init

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------------

    def _kernel_sum(self, layer, kernels, field=0):
        return sum(self.kernels.get((layer, k), [0, 0, 0])[field] for k in kernels)

    def metrics(self, output_bytes: int, cache_hits: int, cache_misses: int) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = sum(
                t for name, t in self.self_time.items() if name.startswith(layer + ".")
            )
        fn = self.fn_calls.get
        conv_calls = fn("fourier.convolve", 0)
        fft_calls = self._kernel_sum("fourier", FFT_KERNELS)
        fallbacks = self._kernel_sum("fourier", ("convolve",))
        finds = fn("bohr.find_regular_dilate", 0)
        verifies = fn("behrend.verify_behrend", 0)
        lookups = cache_hits + cache_misses
        out.update({
            "cli.output_bytes": output_bytes,
            "cyclic.sets_built": self.counters["sets_built"],
            "cyclic.elements_built": self.counters["elements_built"],
            "fourier.convolve_calls": conv_calls,
            "fourier.fft_calls": fft_calls,
            "fourier.fft_points": self._kernel_sum("fourier", FFT_KERNELS, 1),
            "fourier.fft_prime_share": self._kernel_sum("fourier", FFT_KERNELS, 2) / fft_calls
            if fft_calls else 0.0,
            "fourier.exact_fallbacks": fallbacks,
            "fourier.fallback_ratio": fallbacks / conv_calls if conv_calls else 0.0,
            "equations.count_fast_calls": fn("equations.count_solutions_fast", 0),
            "equations.bruteforce_calls": fn("equations.count_solutions_bruteforce", 0),
            "bohr.is_regular_calls": fn("bohr.is_regular", 0),
            "bohr.regular_attempts_per_find": self.counters["regular_in_find"] / finds
            if finds else 0.0,
            "bohr.enumerate_calls": fn("bohr.enumerate_members", 0),
            "bohr.radii_cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
            "periodicity.almost_periods_self_s": self.self_time.get("periodicity.almost_periods", 0.0),
            "periodicity.driver_self_s": self.self_time.get("periodicity.increment_driver", 0.0),
            "periodicity.driver_steps": self.counters["driver_steps"],
            "periodicity.roll_calls": self._kernel_sum("periodicity", ("roll",)),
            "periodicity.cumsum_calls": self._kernel_sum("periodicity", ("cumsum",)),
            "behrend.build_self_s": self.self_time.get("behrend.build_behrend", 0.0),
            "behrend.verify_self_s": self.self_time.get("behrend.verify_behrend", 0.0),
            "behrend.conv_path_share": fn("behrend._count_by_convolution", 0) / verifies
            if verifies else 0.0,
            "behrend.fft_points": self._kernel_sum("behrend", FFT_KERNELS, 1),
            "trace.spans": len(self.spans),
        })
        return out

    def write(self, path: str):
        """Spans as gzipped JSON lines [id, report, name, start, end, parent id];
        the parent of a report's outermost span is -1."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")
