"""Per-layer spans recorded from outside the program.

The tracer wraps each function in TRACED, in its home module and in every
charsum module that imported it by name, and restores the originals on
exit.  Every call records a span (function, start, end, parent span, query
id); spans stay in memory and are written once, when the run ends.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from functools import update_wrapper

import numpy as np

TRACED = {
    "cm": ("representations_4p", "normalized_u", "is_inert", "base_trace_residue"),
    "algebra": ("sqrt_mod", "is_prime", "roots_in_fp", "half_factorials_mod"),
    "families": ("cubic_poly", "derived_poly", "form_poly"),
    "hasse": (
        "legendre_form_sum",
        "hasse_eval",
        "factor_counts",
        "class_number",
        "squarefree_check",
    ),
    "oracle": ("char_sum_coeffs",),
    "closedform": (
        "point_count",
        "evaluate",
        "eval_cubic_cm",
        "eval_derived_gn",
        "eval_form",
        "quartic_reduce",
        "eval_split_cubic",
        "eval_power_2k",
    ),
}

# table caches whose misses count table builds: metric -> (module, function)
CACHES = {
    "hasse.table_builds": ("hasse", "_hasse_coeffs"),
    "oracle.chi_table_builds": ("oracle", "_chi_table"),
    "algebra.factorial_table_builds": ("algebra", "half_factorials_mod"),
}

ABSENT = -1.0  # value of a metric whose function or cache no longer exists


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, funcs in TRACED.items():
        for f in funcs:
            out += [(f"{mod}.{f}.calls", "calls/query"), (f"{mod}.{f}.self_ms", "ms/query")]
        out.append((f"{mod}.self_ms", "ms/query"))
    out += [("oracle.char_sum_coeffs.melem_per_s", "Melem/s")]
    out += [(name, "builds/query") for name in CACHES]
    out += [("closedform.fallback_frac", "fraction"), ("trace.overhead_frac", "fraction")]
    return out


def _charsum_modules():
    return [m for name, m in list(sys.modules.items()) if name == "charsum" or name.startswith("charsum.")]


class Tracer:
    """Context manager that installs the span-recording wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (fid, start_ns, end_ns, parent index, query id)
        self.qid = -1
        self.elements = 0  # field elements summed by oracle.char_sum_coeffs
        self._stack: list[int] = []  # indices of the open spans
        self._errors: list[int] = []
        self._patched: list = []
        self._originals: dict = {}
        self._cache_start: dict = {}
        self._cache_end: dict = {}

    def _wrap(self, fid: int, fn, count_elements: bool):
        spans, stack, errors, clock = self.spans, self._stack, self._errors, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if count_elements:
                tracer.elements += int(args[1] if len(args) > 1 else kwargs["p"])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, tracer.qid)

        return update_wrapper(traced, fn)

    def _cache_misses(self) -> dict:
        out = {}
        for metric, (mod, name) in CACHES.items():
            fn = self._originals.get(f"{mod}.{name}") or getattr(
                sys.modules.get(f"charsum.{mod}"), name, None
            )
            info = getattr(fn, "cache_info", None)
            out[metric] = info().misses if info else None
        return out

    def __enter__(self):
        modules = _charsum_modules()
        for mod, funcs in TRACED.items():
            home = sys.modules.get(f"charsum.{mod}")
            for f in funcs:
                name = f"{mod}.{f}"
                fid = len(self.names)
                self.names.append(name)
                self._errors.append(0)
                orig = getattr(home, f, None)
                if orig is None:
                    continue
                self._originals[name] = orig
                wrapper = self._wrap(fid, orig, name == "oracle.char_sum_coeffs")
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))
        self._cache_start = self._cache_misses()
        return self

    def __exit__(self, *exc):
        self._cache_end = self._cache_misses()
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        """Write the spans as numpy arrays (npz) with the function-name table."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez(
            path,
            names=np.array(self.names),
            fid=arr[:, 0],
            start_ns=arr[:, 1],
            end_ns=arr[:, 2],
            parent=arr[:, 3],
            query=arr[:, 4],
        )

    def summary(self, n_queries: int) -> dict:
        """Per-query calls and self time per function and module, plus counters."""
        n_fn = len(self.names)
        calls = [0] * n_fn
        dur = [0] * n_fn
        child = [0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            calls[fid] += 1
            dur[fid] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = [0] * n_fn
        for i, (fid, t0, t1, _, _) in enumerate(self.spans):
            self_ns[fid] += (t1 - t0) - child[i]
        nq = max(n_queries, 1)
        out: dict = {}
        module_ms: dict = {}
        for fid, name in enumerate(self.names):
            present = name in self._originals
            mod = name.split(".", 1)[0]
            out[f"{name}.calls"] = calls[fid] / nq if present else ABSENT
            out[f"{name}.self_ms"] = self_ns[fid] / 1e6 / nq if present else ABSENT
            module_ms[mod] = module_ms.get(mod, 0.0) + (self_ns[fid] / 1e6 / nq if present else 0.0)
        for mod, ms in module_ms.items():
            out[f"{mod}.self_ms"] = ms
        if "oracle.char_sum_coeffs" in self._originals:
            fid = self.names.index("oracle.char_sum_coeffs")
            out["oracle.char_sum_coeffs.melem_per_s"] = (
                self.elements / 1e6 / (dur[fid] / 1e9) if dur[fid] else 0.0
            )
        else:
            out["oracle.char_sum_coeffs.melem_per_s"] = ABSENT
        for metric in CACHES:
            start, end = self._cache_start.get(metric), self._cache_end.get(metric)
            if start is None or end is None:
                out[metric] = ABSENT
                continue
            builds = end - start
            if metric == "algebra.factorial_table_builds" and "algebra.half_factorials_mod" in self.names:
                # a call that raised (the size cap) is a miss but built nothing
                builds -= self._errors[self.names.index("algebra.half_factorials_mod")]
            out[metric] = builds / nq
        return out
