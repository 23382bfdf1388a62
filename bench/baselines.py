"""Re-measure the ROADMAP open-items baselines from traced runs.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload galois --seed 1 --seconds 20 --trace 1
    python3 bench/baselines.py 1

For each baseline it prints the untraced best-of-passes latency of the
operation and its median latency in the traced passes.
"""

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"

# ROADMAP baseline -> (workload, operation key)
BASELINES = (
    ("enumerate_splittings(X^3 - X^2), cubic algebra over Z/3", "census", "cubic:3|X^3 - X^2|all_splittings"),
    ("enumerate_splittings(X^3 - X^2), cubic algebra over Z/5", "census", "cubic:5|X^3 - X^2|all_splittings"),
    ("enumerate_splittings(X^3 - X^2), cubic algebra over Z/7", "census", "cubic:7|X^3 - X^2|all_splittings"),
    ("enumerate_splittings(X^3 - X) over Mat:2:Zmod:3", "census", "Mat:2:Zmod:3|X^3 - X|all_splittings"),
    ("endo.full_suite(5)", "galois", "full_suite:5"),
)


def main(seed):
    print(f"{'baseline':58s} {'untraced':>10s} {'traced':>10s}")
    for label, workload, key in BASELINES:
        data = json.loads((OUT_DIR / f"trace-{workload}-{seed}.json").read_text())
        traced_ms = [rec[1] * 1000 for p in data["traced"] for rec in p["ops"] if rec[0] == key]
        print(
            f"{label:58s} {data['untraced_best_s'][key] * 1000:8.0f}ms"
            f" {statistics.median(traced_ms):8.0f}ms"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
