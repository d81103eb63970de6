"""Benchmark entry point: one workload, one seed, one process.

    python3 benchmarks/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

BLAS, OpenMP and MKL are pinned to one thread before numpy is imported. The
package is imported from ``src/`` of the checkout this file sits in; without
it the run fails before printing a result. The last line of stdout is the
JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The line before it records the machine.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["desk-train", "wide-train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intentcf" / "__init__.py").is_file():
        print(f"error: intentcf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    machine, result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
