"""patchmoe benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds nothing: the package is
imported from the checkout's src/. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. Environment, failed checks and trace files go to
standard error and .perfbench/ in the checkout.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before numpy and patchmoe are imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads() -> None:
    """One BLAS thread per CPU this process may run on, whatever the caller's
    environment says. Must happen before numpy is imported."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = nproc


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "patchmoe" / "__init__.py").is_file():
        print(f"perfbench: no patchmoe sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    set_blas_threads()
    sys.path.insert(0, str(src))
    import patchmoe
    import patchmoe.cli  # noqa: F401  (imports every patchmoe module)
    if Path(patchmoe.__file__).resolve().parent != (src / "patchmoe").resolve():
        print(f"perfbench: imported patchmoe from {patchmoe.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from bench import Run
    import_s = time.perf_counter() - START
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
              {m["name"]: m["unit"] for m in metrics}, import_s)
    print(json.dumps(run.execute()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
