"""Self-tests of the benchmark harness (result shape, seeds, ranking, checker)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import per_layer_names  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_shape(capsys, trace):
    assert run.main(["--workload", "cm_large", "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]) == 0
    out = _last_line(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 72 and 0 <= out["failed"] <= out["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cm_large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determinism(workload):
    def first(seed, n=60):
        out = []
        for unit in workloads.units(workload, seed):
            out.extend(unit)
            if len(out) >= n:
                return out[:n]

    assert first(3) == first(3)
    assert first(3) != first(4)
    assert workloads.stream_hash(workload, 3, 60) == workloads.stream_hash(workload, 3, 60)
    assert workloads.stream_hash(workload, 3, 60) != workloads.stream_hash(workload, 4, 60)


def test_workload_mix():
    block = next(workloads.units("cm_large", 1))
    assert sorted(q.family for q in block) == sorted(f"f{n}" for n in workloads.CM_N for _ in range(8))
    assert sum(q.p >= 1 << 61 for q in block) == 9
    assert all(workloads.jacobi(-int(q.family[1:]), q.p) == 1 for q in block)
    stream = workloads.units("curves_mid", 1)
    sweeps = [next(stream) for _ in range(len(workloads.SHAPES))]
    for sweep in sweeps:
        assert len(sweep) == workloads.MID_SWEEP
        assert len({q.p for q in sweep}) == 1 and 1 << 18 <= sweep[0].p < 1 << 19
    shapes = Counter(q.shape for sweep in sweeps for q in sweep)
    assert shapes == {s: workloads.MID_SWEEP for s in workloads.SHAPES}
    campaign = next(workloads.units("campaign_small", 1))
    assert [q.p for q in campaign if q.kind == "hasse_row"] == workloads.campaign_primes()


def test_campaign_asks_no_uncertified_x4_plus_c():
    for seed in range(200):
        source = workloads.ShapeSource(random.Random(seed))
        for p in (5, 13, 17, 29, 37):
            c = source.query("quartic", p).coeffs
            assert c[4] != 1 or any(c[1:4]) or 2 in workloads.power_ks(p)


def _rec(ms, failed=False):
    return [ms, "E" if failed else "", "failed" if failed else "closed_form"]


def test_percentile_ranks_failures_slowest():
    recs = [_rec(float(i)) for i in range(1, 8)] + [_rec(0.001, failed=True)] * 3
    assert run.ranked_percentile(recs, 0.5, 1e4) == 5.0
    assert run.ranked_percentile(recs, 0.9, 1e4) == 1e4  # lands on a failure
    rng = random.Random(0)
    for _ in range(200):
        recs = [_rec(rng.random(), failed=rng.random() < 0.3) for _ in range(rng.randrange(1, 40))]
        failed = [i for i, r in enumerate(recs) if r[2] == "failed"]
        if not failed:
            continue
        fixed = list(recs)
        fixed[rng.choice(failed)] = _rec(rng.random())  # a failure turned into an answer
        for q in (0.5, 0.9):
            assert run.ranked_percentile(fixed, q, 2.0) <= run.ranked_percentile(recs, q, 2.0)


def test_fail_frac_is_never_zero():
    assert run.fail_frac(0, 500) > 0
    assert run.fail_frac(1, 500) > run.fail_frac(0, 500)


# known answers, each certified by the checker itself
F19 = workloads.Query("count", "f_n", 1101904333, family="f19", params=(("a", 465423698),))
F19_S = 18494
QUARTIC = workloads.Query("evaluate", "quartic", 1000003, coeffs=(745031, 675944, 433654, 493478, 5))
QUARTIC_S = -723


def test_checker_accepts_true_values():
    c = check.Checker(1)
    c.check(F19, (F19_S, F19.p + F19_S, F19.p + 1 + F19_S))
    c.check(QUARTIC, (QUARTIC_S,))
    c.check(workloads.Query("hasse_row", "hasse_row", 1019), (39, 235, 13))
    c.check(workloads.Query("hasse_row", "hasse_row", 1021), (0, 255, 22))


@pytest.mark.parametrize(
    "query, answer",
    [
        (F19, (-F19_S, F19.p - F19_S, F19.p + 1 - F19_S)),
        (QUARTIC, (-QUARTIC_S,)),
        (F19, (F19_S, F19.p + F19_S + 1, F19.p + 1 + F19_S)),
        (workloads.Query("hasse_row", "hasse_row", 1019), (39, 235, 14)),
    ],
)
def test_checker_rejects_wrong_values(query, answer):
    with pytest.raises(check.WrongValue):
        check.Checker(1).check(query, answer)
