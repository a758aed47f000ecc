"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload once at a tiny size, untraced and traced, and
   asserts that each prints exactly the metrics of ``BENCHMARK.json``
   with their units, and that the traced runs attribute time to layers.
2. Feeds the output checks deliberately corrupted records, CSVs and
   digests and asserts that each one is rejected, which proves that a
   wrong result shows up in ``failed``.
3. Checks the traced run's share of ``imcis.*`` against the share of the
   ``optimize`` phase in the program's own run profile on the same sweep.

Exits 0 when every assertion holds; takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))


def run_tiny(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "2",
            "--trace", str(trace),
            "--tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_tiny_runs() -> None:
    from perfbench.serving import TINY_STUDIES
    from perfbench.workloads import MATRIX_ESTIMATORS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            if workload in MATRIX_ESTIMATORS:
                # One operation per cell and one for the digest cell, however
                # many sweeps the window held.
                cells = len(TINY_STUDIES) * len(MATRIX_ESTIMATORS[workload])
                assert result["attempted"] == cells + 1, (workload, trace, result["attempted"])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}, (workload, trace, units)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                assert all(value > 0 for value in values.values()), (workload, values)
            elif workload == "service-mixed":
                for name in ("store.get_s", "store.put_s", "models.prepare_s",
                             "service.execute_s", "service.queue_wait_s", "service.http_s"):
                    assert values[name] > 0, (name, values[name])
            else:
                assert values["experiments.runner_s"] > 0 and values["smc.simulate_s"] > 0
            print(f"ok  {workload} --trace {trace}: {len(values)} metrics with units")


def check_corruption_is_rejected() -> None:
    import repro.experiments.matrix as matrix
    from perfbench import checks
    from perfbench.workloads import QUICK, Outcome, _check_jobs

    config = matrix.MatrixConfig(
        studies=("knuth-yao",), estimators=("is",), seed=5, workers=1, **QUICK
    )
    result = matrix.run_matrix(config)
    record = result.records()[0]
    assert checks.cell_failures([record]) == [], record
    shifted = dict(record, ci_high=record["gamma_true"] * 0.5)
    assert len(checks.cell_failures([shifted])) == 1
    flag_only = dict(record, within_ci=False)
    assert len(checks.cell_failures([flag_only])) == 1
    # A zero-width interval a few ULPs from γ covers it, as the program says.
    gamma = record["gamma_true"]
    above = math.nextafter(math.nextafter(gamma, math.inf), math.inf)
    degenerate = dict(record, ci_low=above, ci_high=above, within_ci=True)
    assert checks.cell_failures([degenerate]) == [], degenerate

    text = result.to_csv_text()
    corrupted = text.replace(repr(record["estimate_mean"]), repr(record["estimate_mean"] * 1.001))
    assert corrupted != text
    assert checks.csv_mismatch("cell", text, text) == []
    assert len(checks.csv_mismatch("cell", text, corrupted)) == 1

    payload = {"study": "knuth-yao", "estimator": "is", "seed": 5, **QUICK}
    jobs = [
        {"kind": "cold", "payload": payload, "state": "complete", "csv": corrupted},
        {"kind": "warm", "payload": payload, "state": "complete", "csv": corrupted},
        {"kind": "cold", "payload": dict(payload, seed=6), "state": "rejected"},
    ]
    outcome = Outcome()
    _check_jobs(outcome, jobs)
    assert outcome.attempted == 3 and outcome.failed == 2 and len(outcome.broken) == 1, outcome

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        state = Path(scratch) / "digests.json"
        assert checks.repeat_digest(state, "k", checks.digest([text])) == []
        assert checks.repeat_digest(state, "k", checks.digest([text])) == []
        assert len(checks.repeat_digest(state, "k", checks.digest([corrupted]))) == 1
    print("ok  corrupted records, CSVs, jobs and digests are all rejected")


def check_profile_agreement() -> None:
    import repro.experiments.matrix as matrix
    from perfbench.layers import Tracer, instrument
    from perfbench.workloads import QUICK
    from repro.obs import trace as obs_trace
    from repro.obs.runprofile import RunProfile

    config = matrix.MatrixConfig(
        studies=("birth-death",), estimators=("imcis",), seed=9, workers=1, **QUICK
    )
    obs_trace.configure(enabled=True)
    obs_trace.reset()
    try:
        matrix.run_matrix(config)
        profile = RunProfile.from_events(obs_trace.events(clear=True))
    finally:
        obs_trace.configure(enabled=False)
    optimize_share = profile.phases["optimize"].self_s / profile.wall_s

    tracer = Tracer()
    undo = instrument(tracer)
    try:
        tracer.active = True
        matrix.run_matrix(config)
        tracer.active = False
    finally:
        undo()
    wall = sum(end - start for _s, parent, _n, start, end, _t in tracer.spans if parent < 0)
    imcis_share = sum(v for k, v in tracer.self_times().items() if k.startswith("imcis.")) / wall
    assert abs(imcis_share - optimize_share) < 0.1, (imcis_share, optimize_share)
    print(f"ok  imcis.* share {imcis_share:.1%} vs run-profile optimize share {optimize_share:.1%}")


def main() -> int:
    check_corruption_is_rejected()
    check_profile_agreement()
    check_tiny_runs()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
