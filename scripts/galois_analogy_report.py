#!/usr/bin/env python3
"""Print the whole Galois-style apparatus of the cubic splitting algebra.

For each requested prime p this runs the full endomorphism battery over
Z/p and prints the images table, the composition table, both action
tables and the minimal-polynomial table, followed by the pass/fail
summary and the composition-order evidence.
"""

from __future__ import annotations

import argparse
import json

from cyclesplit import endo


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", nargs="*", type=int, default=[2, 3])
    ap.add_argument("--json", action="store_true", help="emit the raw report JSON")
    args = ap.parse_args()

    for p in args.primes:
        print(f"\n===== Z/{p} =====")
        report = endo.full_suite(p)
        if args.json:
            print(json.dumps(report.to_json(), sort_keys=True, indent=2))
            continue
        for name in ("images", "monoid", "action-roots", "action-cycles", "minpoly"):
            headers, rows = endo.TABLE_BUILDERS[name](p)
            print(f"\n-- {name} --")
            print(endo.format_table(headers, rows))
        print("\nsummary:")
        print(f"  endomorphisms: {report.monoid.endo_count}")
        print(f"  automorphisms: {report.monoid.automorphism_count}")
        print(f"  root records / distinct roots: "
              f"{report.cycles.root_record_count} / {report.cycles.distinct_root_count}")
        print(f"  cycle classes: {report.cycles.cycle_class_count}")
        print(f"  order evidence: {report.monoid.evidence()}")
        print(f"  all checks passed: {report.passed}")


if __name__ == "__main__":
    main()
