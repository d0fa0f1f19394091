"""One fresh-interpreter slice of a benchmark run (started by run.py).

    python3 -I bench/worker.py --root DIR --setup-only
    python3 -I bench/worker.py --root DIR --workload W --seed N --seconds T
        [--skip-units K] [--max-units U] [--rss-units R]
        [--check] [--trace-out FILE]

Imports charsum from DIR/src (timed: that is the set-up), runs whole units
of the workload's query stream in a closed loop, one query at a time, and
times each call into the library.  It prints one JSON object with a record
per query: the host-speed-adjusted time, the outcome, the answer and the
wall time.  With --check it first checks every answered query; a wrong
answer prints the case on stderr and exits with status 3.  The traced
replay of checked units skips the check: run.py compares its answers with
the checked ones.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pkgutil
import re
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import Query, jacobi, units  # noqa: E402

EXIT_WRONG = 3
# Host-speed probe: a fixed loop of small numpy calls timed before each query
# once PROBE_EVERY_S have passed.  Query times are reported scaled to a host
# on which the probe takes PROBE_REF_MS (about its uncontended time on a
# 2-core Xeon VM); see README.md, "Host-speed adjustment".
PROBE_REF_MS = 0.21
PROBE_EVERY_S = 0.05


def probe_ms() -> float:
    """Best of three runs of 40 small polynomial products mod a prime, in ms.

    Interpreter dispatch plus small-array arithmetic, as in the library's
    Hasse and oracle paths.  Called only after charsum, and with it numpy,
    has been imported, so set-up time still includes the numpy import.
    """
    import numpy as np

    a = np.arange(64, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(40):
            np.convolve(a, a) % 1000003
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def setup(root: Path) -> float:
    """Import every charsum module and load the packaged conventions table."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import charsum

    for info in pkgutil.iter_modules(charsum.__path__):
        importlib.import_module(f"charsum.{info.name}")
    load = getattr(sys.modules.get("charsum.cm"), "load_conventions", None)
    if load is not None:
        load()
    elapsed = time.perf_counter() - t0
    if src not in Path(charsum.__file__).resolve().parents:
        raise SystemExit(f"charsum was imported from {charsum.__file__}, not {src}")
    return elapsed


def execute(q: Query):
    """The timed call; returns (answer tuple, method)."""
    if q.kind == "count":
        pc, sv = sys.modules["charsum.closedform"].point_count(q.family, dict(q.params), q.p)
        return (sv.value, pc.affine, pc.projective), sv
    if q.kind == "evaluate":
        poly = sys.modules["charsum.algebra"].FpPolynomial.make(q.p, q.coeffs)
        sv = sys.modules["charsum.closedform"].evaluate(poly)
        return (sv.value,), sv
    fc = sys.modules["charsum.hasse"].factor_counts(q.p)
    return (fc.N1, fc.N2, fc.h), None


def failure_key(exc: BaseException) -> str:
    """Exception type and message prefix, digits folded, for tallies."""
    return f"{type(exc).__name__}: {re.sub(r'[0-9]+', '#', str(exc))[:60]}"


def path_of(sv) -> str:
    if sv is None:
        return "hasse_row"
    if "oracle_small_p" in sv.method:
        return "small_p_delegation"
    if "oracle_fallback" in sv.method:
        return "oracle_fallback"
    return "closed_form"


def split_status(q: Query) -> str:
    if not q.family or q.family[0] not in "fg":
        return ""
    s = jacobi(-int(q.family[1:]), q.p)
    return {1: "split", -1: "inert", 0: "ramified"}[s]


def run(args) -> dict:
    stream = units(args.workload, args.seed)
    for _ in range(args.skip_units):
        next(stream)
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
    records = []
    rss_kb = None
    n_units = 0
    clock = time.perf_counter_ns
    start = time.perf_counter()
    probed_at, scale = -PROBE_EVERY_S, 1.0
    with tracer if tracer else nullcontext():
        while True:
            if args.max_units is not None:
                if n_units >= args.max_units:
                    break
            elif n_units >= args.rss_units and time.perf_counter() - start >= args.seconds:
                break
            for q in next(stream):
                if time.perf_counter() - probed_at >= PROBE_EVERY_S:
                    scale = PROBE_REF_MS / probe_ms()
                    probed_at = time.perf_counter()
                if tracer:
                    tracer.qid = len(records)
                t0 = clock()
                try:
                    answer, sv = execute(q)
                except Exception as exc:  # every raised error is a failed query
                    t1 = clock()
                    records.append([(t1 - t0) / 1e6, scale, failure_key(exc), "failed", q, None])
                    continue
                t1 = clock()
                if getattr(sv, "residue_only", False):
                    records.append([(t1 - t0) / 1e6, scale, "residue_only", "failed", q, None])
                    continue
                records.append([(t1 - t0) / 1e6, scale, "", path_of(sv), q, answer])
            n_units += 1
            if n_units == args.rss_units:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_s = time.perf_counter() - start
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.check:
        from check import Checker, WrongValue

        checker = Checker(args.seed)
        try:
            for *_, q, answer in records:
                if answer is not None:
                    checker.check(q, answer)
        except WrongValue as exc:
            print(f"wrong value: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_WRONG)

    out = {
        "units": n_units,
        "loop_s": loop_s,
        "rss_mb": rss_kb / 1024,
        "records": [
            [ms * scale, fail, path, q.shape, q.size or f"2^{q.p.bit_length() - 1}", q.p, split_status(q), answer, ms]
            for ms, scale, fail, path, q, answer in records
        ],
    }
    if tracer:
        tracer.write(args.trace_out)
        out["layers"] = tracer.summary(len(records))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--skip-units", type=int, default=0)
    ap.add_argument("--max-units", type=int)
    # units run before RSS is read; also the least number of units a
    # --seconds run makes, so the reading always covers the same work
    ap.add_argument("--rss-units", type=int, default=1)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    setup_s = setup(Path(args.root))
    scale = PROBE_REF_MS / probe_ms()
    out = {"setup_s": setup_s * scale, "setup_wall_s": setup_s}
    if not args.setup_only:
        out.update(run(args))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
