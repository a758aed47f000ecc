"""Time one workload's set-up in a fresh interpreter.

Set-up runs from the first line of this script up to the point where the
workload could start its first timed operation: import ``repro`` and
prepare the quick studies (matrix workloads), or import ``repro``, boot
the service over a fresh store and get an answer from ``/healthz``
(service). Then it runs :func:`perfbench.reference.reference` 100 times
and prints ``{"setup_s": ..., "reference_s": <median loop time>}``.

    python3 perfbench/setup_probe.py --workload matrix-imcis --seed 1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))

from perfbench.serving import TINY_STUDIES, booted_server  # noqa: E402


def matrix_setup(seed: int, tiny: bool) -> float:
    import repro.experiments.matrix  # noqa: F401 — the module the sweeps run
    from repro.models.registry import REGISTRY

    studies = TINY_STUDIES if tiny else REGISTRY.quick_studies()
    for name in studies:
        REGISTRY.make_study(name, rng=seed, quick=True)
    return time.perf_counter() - START


def service_setup(out_dir: Path) -> float:
    with booted_server(out_dir):
        return time.perf_counter() - START


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.workload == "service-mixed":
        setup_s = service_setup(args.out)
    else:
        setup_s = matrix_setup(args.seed, args.tiny)
    from perfbench.reference import reference

    loops = sorted(reference() for _ in range(100))
    print(json.dumps({"setup_s": setup_s, "reference_s": loops[len(loops) // 2]}))


if __name__ == "__main__":
    main()
