"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The last two tests run the benchmark itself (about two minutes).
"""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import etmreg.harness as H  # noqa: E402
import etmreg.machine as M  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _small_system():
    board = H.preset("zcu102")
    reg = H.regulator_for("pr", board, 350.0, 5.0)
    return M.SystemConfig(
        cores=(M.CoreSpec(board.model, M.Synthetic(M.OP_READ), reg),),
        shared_mem_bandwidth=board.cap_lines_per_cycle(),
        duration_cycles=20_000)


def test_oracle_check_flags_a_perturbed_trace():
    cfg = _small_system()
    trace = M.run_system(cfg)
    oracle = M.run_system(cfg, use_hops=False)
    assert checks.check_trace(cfg, trace, oracle) == []

    st = trace.stats[0]
    bad_stats = dataclasses.replace(st, throttled_cycles=st.throttled_cycles
                                    + 1)
    bad = dataclasses.replace(trace, stats=(bad_stats,))
    errors = checks.check_trace(cfg, bad, oracle)
    assert errors and errors[0].startswith("hop result differs")
    assert "throttled_cycles" in errors[0]


def test_invariants_flag_lost_lines():
    cfg = _small_system()
    trace = M.run_system(cfg)
    bad = dataclasses.replace(trace, total_granted=trace.total_granted + 1)
    errors = checks.invariant_errors(cfg, bad)
    assert any("total_granted" in e for e in errors)


def test_tail_rank_keeps_ten_ops_above():
    assert run.tail(list(range(21))) is None      # rank 11 is the median
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert (pct, value) == (75, 30.0)


def test_benchmark_names_are_well_formed():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    bench = _benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run("bursty", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        declared = {m["name"]: m["unit"] for m in bench[key]}
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == declared
        for name in printed:
            assert NAME.match(name), name
