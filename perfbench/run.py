"""lgsqe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mnist-default --seed 1 --seconds 55 --trace 0

Run it from the root of an lgsqe checkout; it runs the code in ``src/``. The
last line of standard output is the result as JSON: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``. The full record, environment included, is written to
``.perfbench/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="Run one lgsqe benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "lgsqe" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of an lgsqe checkout (src/lgsqe and BENCHMARK.json)", file=sys.stderr)
        return 2
    # The package under test is the checkout's own; bench imports it.
    sys.path.insert(0, str(root / "src"))
    import bench
    import lgsqe
    from workloads import WORKLOADS

    if not Path(lgsqe.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported lgsqe from {lgsqe.__file__}, not from this checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = root / ".perfbench"
    record = bench.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, work, spec, started
    )
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:52s} {metric['value']:14.6g} {metric['unit']}")
    print(f"record: {out.relative_to(root)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
