"""Record the benchmark's oracle from the library as it is now.

    PYTHONPATH=src python3 bench/record_oracle.py

Writes ``bench/data/cubic-Zmod-<p>.json`` (the bundled cubic algebra, as
``cyclesplit export --table descriptor`` prints it) and ``bench/oracle.json``:
census counts and witness-set digests for every task unshifted, the galois
report and table digests, and the stdout sha256 and exit code of every cli
case. The committed files were recorded at the commit that added the
benchmark; re-record only when a documented output changes on purpose.
"""

import hashlib
import io
import json
import os
import subprocess
import sys

import workloads
from workloads import BENCH_DIR, digest

ROOT = BENCH_DIR.parent


def record_descriptors():
    from cyclesplit import cli

    for p in (2, 3, 5, 7):
        buf = io.StringIO()
        if cli.run(["export", "--table", "descriptor", "--base", f"Zmod:{p}"], out=buf) != 0:
            raise SystemExit(f"descriptor export failed for Z/{p}")
        path = BENCH_DIR / "data" / f"cubic-Zmod-{p}.json"
        path.write_text(json.dumps(json.loads(buf.getvalue()), sort_keys=True) + "\n")


def record_census():
    return {op.key: op.check(op.call()) for op in workloads.census_ops(0, None, shifted=False)}


def record_galois():
    return {op.key: op.check(op.call()) for op in workloads.galois_ops(0, None)}


def record_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for name, argv, _code in workloads.CLI_CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "cyclesplit", *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        out[name] = {
            "exit_code_at_record": proc.returncode,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        }
    return out


def main():
    record_descriptors()
    oracle = {"census": record_census(), "galois": record_galois(), "cli": record_cli()}
    (BENCH_DIR / "oracle.json").write_text(json.dumps(oracle, sort_keys=True, indent=1) + "\n")
    print(f"recorded {sum(len(v) for v in oracle.values())} oracle entries; digest {digest(oracle)[:16]}")


if __name__ == "__main__":
    main()
