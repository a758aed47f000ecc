"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload matrix-imcis --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``. A report with the environment, the check results
and (when traced) every span goes under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
#: Fresh interpreters timed per run; ``setup_s`` is the median of their
#: set-up times at the reference speed.
SETUP_REPEATS = 5


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("matrix-imcis", "matrix-sim", "service-mixed")
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="two small studies only (the self-test's size)"
    )
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, tiny: bool) -> "list[dict[str, float]]":
    """Set-up seconds and reference loop time of *SETUP_REPEATS* fresh
    interpreters, one after another."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "setup_probe.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", str(OUT),
    ] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> "dict[str, object]":
    """What the numbers depend on besides the code: numbers taken on the
    NumPy kernel fallback must not be compared with numba numbers."""
    import numpy

    from repro.smc.kernels import kernel_runtime_info

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": kernel_runtime_info(),
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_file.is_file():
        print(
            f"error: {SRC / 'repro'} or {spec_file} is missing; "
            "run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    from perfbench.reference import REFERENCE_S
    from perfbench.workloads import run_workload

    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed, args.tiny)

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, SRC, OUT
    )
    if args.trace:
        values = dict(outcome.layers)
    else:
        values = {
            "setup_s": statistics.median(
                sample["setup_s"] * REFERENCE_S / sample["reference_s"]
                for sample in setup_samples
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **outcome.end_to_end,
        }
    if set(values) != {metric["name"] for metric in wanted}:
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {[m['name'] for m in wanted]}"
        )
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not outcome.broken,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    report = {
        "args": vars(args),
        "environment": env,
        "setup_samples": setup_samples,
        "failures": outcome.failures,
        **outcome.report,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace and outcome.tracer is not None:
        outcome.tracer.write(OUT / f"{stem}.spans")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for note in outcome.notes:
        print(note)
    if setup_samples:
        print(
            "setup samples (s, raw / at the reference speed): "
            + ", ".join(
                f"{s['setup_s']:.3f} / {s['setup_s'] * REFERENCE_S / s['reference_s']:.3f}"
                for s in setup_samples
            )
        )
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"error_rate {error_rate:.4f} ({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures[:20]:
        print(f"  failed: {failure}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
