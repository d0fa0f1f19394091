"""charsum benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {cm_large,curves_mid,campaign_small}
                         --seed N --seconds T --trace {0,1}

Run from anywhere inside a checkout that has src/charsum.  Every query is
a call into the library made by a fresh worker process (bench/worker.py)
in a closed loop with one client.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it is
the full report (environment, stream hash, workload properties, failure
tallies); it is also written to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import per_layer_names  # noqa: E402
from workloads import WORKLOADS, stream_hash  # noqa: E402

SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s; the median is reported
# units run before the worker's RSS is read, so peak_rss_mb measures a fixed
# amount of work however fast the program is
RSS_UNITS = {"cm_large": 10, "curves_mid": 16, "campaign_small": 1}
RUN_LIMIT_S = 170  # a worker still running then ends the run
E2E = (
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("fail_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The run cannot produce a result (a worker failed, or answers disagree)."""


def spawn(deadline: float, *args: str) -> dict:
    """Run one worker to completion and return its JSON output."""
    cmd = [sys.executable, "-I", str(BENCH / "worker.py"), "--root", str(ROOT), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, timeout=max(deadline - time.monotonic(), 1)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run time limit: {' '.join(args)}") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with status {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def checked_worker(workload: str, seed: int, skip: int, seconds: float, deadline: float, rss_units: int) -> dict:
    """A checked worker from unit `skip`: one campaign pass, else whole units for `seconds`.

    campaign_small runs each pass in its own fresh worker, so every pass
    starts with cold caches.
    """
    common = ("--workload", workload, "--seed", seed, "--check", "--skip-units", skip)
    if workload == "campaign_small":
        w = spawn(deadline, *common, "--max-units", 1)
    else:
        w = spawn(deadline, *common, "--seconds", seconds, "--rss-units", rss_units)
    w["skip"] = skip
    return w


def traced_replay(workload: str, seed: int, plain: dict, deadline: float, spans: Path) -> tuple[dict, list]:
    """Run the units of the checked worker `plain` again under the tracer.

    Returns the traced worker and its records.  Every traced answer must
    equal the checked one; a query that failed in either run counts as
    failed.
    """
    traced = spawn(deadline, "--workload", workload, "--seed", seed, "--skip-units", plain["skip"],
                   "--max-units", plain["units"], "--trace-out", spans)
    records = []
    for m, r in zip(plain["records"], traced["records"]):
        if m[2] != "failed" and r[2] != "failed" and m[7] != r[7]:
            raise BenchError(f"traced run disagrees on a {m[3]} query at p = {m[5]}: {m[7]} != {r[7]}")
        records.append(m if m[2] == "failed" else r)
    return traced, records


def ranked_percentile(records: list, q: float, failed_value: float) -> float:
    """Nearest-rank percentile of latency, failed queries ranked slowest.

    A percentile that lands on a failed query reports `failed_value`, the
    run's whole measuring window: the query was never answered inside it,
    so it compares worse than any answered time.
    """
    keys = sorted((r[2] == "failed", r[0]) for r in records)
    failed, ms = keys[max(math.ceil(q * len(keys)) - 1, 0)]
    return failed_value if failed else ms


def properties(records: list) -> dict:
    """Workload-property report: primes, paths, splitting, sizes, failures."""
    n = len(records)
    primes = Counter(r[5] for r in records)
    fam = [r for r in records if r[6]]

    def share(c: Counter) -> dict:
        return {k: v / n for k, v in sorted(c.items())}

    return {
        "queries": n,
        "distinct_primes": len(primes),
        "queries_per_prime": n / len(primes),
        "path_share": share(Counter(r[2] for r in records)),
        "shape_share": share(Counter(r[3] for r in records)),
        "size_share": share(Counter(r[4] for r in records)),
        "split_share_of_cm_queries": {
            k: v / len(fam) for k, v in sorted(Counter(r[6] for r in fam).items())
        },
        "failures": dict(Counter(r[1] for r in records if r[1]).most_common()),
    }


FAIL_FLOOR = 0.01


def fail_frac(failed: int, attempted: int) -> float:
    """Failed share plus a floor of one failure per hundred queries.

    The plain share is 0 on workloads that answer everything, and a metric
    that is 0 has no relative bound; the floor keeps it positive without
    tying it to the number of queries a run happens to reach.
    """
    return failed / attempted + FAIL_FLOOR


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy metadata missing: report, do not fail the run
        numpy_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "charsum" / "__init__.py").is_file():
        print(f"error: no charsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        report = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    for key, m in report["metrics"].items():
        print(f"{key:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("env", "stream_sha256", "samples", "wall_ms", "properties")}))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(args, deadline: float) -> dict:
    w, seed = args.workload, args.seed
    setups = []
    if args.trace:
        plain = checked_worker(w, seed, 0, args.seconds / 2, deadline, 1)
        spans = ROOT / ".bench_out" / f"spans-{w}-seed{seed}.npz"
        spans.parent.mkdir(exist_ok=True)
        traced, records = traced_replay(w, seed, plain, deadline, spans)
        workers = [traced]
    else:
        setups = [spawn(deadline, "--setup-only") for _ in range(SETUP_SAMPLES)]
        # one worker runs for --seconds; campaign_small runs one pass per
        # worker, and a new pass starts only while at least half a pass's
        # time is left
        workers = []
        elapsed = 0.0
        while not workers or args.seconds - elapsed > elapsed / len(workers) / 2:
            skip = sum(wk["units"] for wk in workers)
            workers.append(checked_worker(w, seed, skip, args.seconds - elapsed, deadline,
                                          RSS_UNITS[w] if not workers else 1))
            elapsed += workers[-1]["loop_s"]
        records = [r for wk in workers for r in wk["records"]]
    attempted = len(records)
    failed = sum(r[2] == "failed" for r in records)
    # what a failed query reports: never answered within the measuring window
    window_ms = max([sum(wk["loop_s"] for wk in workers) * 1e3] + [r[0] for r in records])
    wall = [[r[8]] + r[1:] for r in records]
    p90_rank = math.ceil(0.9 * attempted)
    report = {
        "correct": True,  # a wrong value ends the worker, and the run, before this point
        "attempted": attempted,
        "failed": failed,
        "env": environment(seed),
        "stream_sha256": stream_hash(w, seed),
        "samples": {
            "latency": attempted,
            "beyond_p90": attempted - p90_rank,
            "setup": len(setups),
            "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups) if setups else None,
            "workers": len(workers),
            "window_s": window_ms / 1e3,
        },
        "wall_ms": {  # unadjusted times of the same queries, for reference
            "p50": ranked_percentile(wall, 0.5, window_ms),
            "p90": ranked_percentile(wall, 0.9, window_ms),
        },
        "properties": properties(records),
    }
    if args.trace:
        answered = [r for r in records if r[2] != "failed"]
        layers = dict(traced["layers"])
        layers["closedform.fallback_frac"] = (
            sum(r[2] == "oracle_fallback" for r in answered) / len(answered) if answered else 0.0
        )
        plain_ms = [r[0] for r in plain["records"] if r[2] != "failed"]
        traced_ms = [r[0] for r in answered]
        layers["trace.overhead_frac"] = (
            statistics.median(traced_ms) / statistics.median(plain_ms) - 1 if plain_ms and traced_ms else 0.0
        )
        report["metrics"] = {name: metric(layers.get(name, -1.0), unit) for name, unit in per_layer_names()}
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "lat_p50_ms": ranked_percentile(records, 0.5, window_ms),
            "lat_p90_ms": ranked_percentile(records, 0.9, window_ms),
            "fail_frac": fail_frac(failed, attempted),
            "peak_rss_mb": workers[0]["rss_mb"],
        }
        report["metrics"] = {name: metric(values[name], unit) for name, unit in E2E}
    return report


if __name__ == "__main__":
    sys.exit(main())
