"""Run one pdmm benchmark workload; the last line of stdout is its result.

    python3 bench/run.py --workload instantiate|multiply|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from its `src`
directory, never from an installed copy. The result is one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
per-layer metrics traced). The same object, a per-round record and, when
traced, the spans are written under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_threads() -> int:
    """Limit BLAS/OpenMP pools to the CPUs this process may run on.

    Must run before numpy is imported; a lower cap already set is kept.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), cpus) if current.isdigit() and int(current) > 0 else cpus
        os.environ[var] = str(cap)
    return cpus


def host_info(cpus: int) -> dict:
    import numpy

    uname = platform.uname()
    return {
        "cpus": cpus,
        "system": f"{uname.system} {uname.release} {uname.machine}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("instantiate", "multiply", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = cap_threads()
    src = REPO / "src"
    if not (src / "pdmm" / "__init__.py").is_file():
        print(f"error: no pdmm sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import pdmm

    if not Path(pdmm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: pdmm imported from {pdmm.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    out_dir = OUT_DIR / args.workload
    result, detail, spans = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    detail["host"] = host_info(cpus)
    detail["result"] = result
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
