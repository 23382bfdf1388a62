"""The cyclesplit benchmark. Run from the root of a checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh interpreter, one pass at a time
(a closed loop with one client), so no cache outlives a pass and every pass
pays set-up as a script or CLI user does. Passes repeat while another one
still fits in ``--seconds`` (at least two run). Every result is checked
exactly against ``bench/oracle.json`` and against the other passes.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer metrics, taken from traced passes that alternate with untraced
ones. Lines before it are a readable summary. ``bench/README.md`` explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES_PER_PASS = 2  # set-up-only processes, spread through the run
MIN_PASSES = 2
DEADLINE_S = 170  # no process is started or left running past this
CLI_CASE_TIMEOUT_S = 30
CLI_SETUP = "import json, time, cyclesplit.cli; print(json.dumps({'t_ready': time.monotonic()}))"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def best_of_passes(passes):
    """Each operation's lowest latency over the passes of a run."""
    best = {}
    for p in passes:
        for key, seconds, *_ in p["ops"]:
            best[key] = min(best.get(key, seconds), seconds)
    return best


def tail_percentile(samples, pct):
    """The pct-th percentile, or None unless at least ten samples lie beyond
    it (so p90 needs 100 samples, p99 needs 1000)."""
    if len(samples) * (100 - pct) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[pct - 1]


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spawned:
    """A finished child: stdout, exit code, wall time, peak RSS."""

    stdout: bytes
    code: int
    t_spawn: float
    wall_s: float
    rss_kb: int
    stderr_tail: str


class Runner:
    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.stderr_path = OUT_DIR / "child-stderr.log"
        self.child = [sys.executable, str(BENCH_DIR / "child.py")]

    def spawn(self, argv, timeout=None):
        """Run one child to completion; ``os.wait4`` gives its own peak RSS."""
        limit = self.deadline - time.monotonic()
        if timeout is not None:
            limit = min(limit, timeout)
        if limit <= 0:
            raise BenchError("out of time before starting a process")
        with open(self.stderr_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t_end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = self.stderr_path.read_bytes()[-2000:].decode(errors="replace")
        return Spawned(stdout, proc.returncode, t_spawn, t_end - t_spawn, usage.ru_maxrss, tail)

    def child_json(self, argv):
        res = self.spawn(argv)
        if res.code != 0:
            raise BenchError(f"{' '.join(argv[1:])} exited {res.code}:\n{res.stderr_tail}")
        return res, json.loads(res.stdout.decode().splitlines()[-1])

    def setup_probe(self):
        if self.workload == "cli":
            # what every cyclesplit invocation pays before its command runs
            argv = [sys.executable, "-c", CLI_SETUP]
        else:
            argv = self.child + ["setup", self.workload, str(self.seed)]
        res, data = self.child_json(argv)
        return data["t_ready"] - res.t_spawn

    def live_layers(self):
        return set(self.child_json(self.child + ["layers"])[1]["layers"])

    def run_pass(self, traced):
        if self.workload == "cli":
            return self._cli_pass(traced)
        res, data = self.child_json(self.child + ["trace" if traced else "pass", self.workload, str(self.seed)])
        p = {
            "wall_s": res.wall_s,
            "setup_s": data["t_ready"] - res.t_spawn,
            "rss_kb": res.rss_kb,
            "ops": data["ops"],
            "tally": data.get("tally"),
        }
        if traced:
            p["trace"] = data["trace"]
            p["layers"] = finish_layers(layer_sums(data, res), res.wall_s)
        return p

    def _cli_pass(self, traced):
        oracle = workloads.load_oracle()["cli"]
        cases = list(workloads.CLI_CASES)
        random.Random(self.seed).shuffle(cases)
        trace_path = OUT_DIR / "cli-trace.json"
        p = {"wall_s": 0.0, "setup_s": None, "rss_kb": 0, "ops": [], "tally": None}
        raw, traces = {}, []
        for name, argv, want_code in cases:
            if traced:
                cmd = self.child + ["cli-trace", str(trace_path), *argv]
            else:
                cmd = [sys.executable, "-m", "cyclesplit", *argv]
            res = self.spawn(cmd, timeout=CLI_CASE_TIMEOUT_S)
            sha = hashlib.sha256(res.stdout).hexdigest()
            want_sha = oracle[name]["stdout_sha256"]
            ok = res.code == want_code and sha == want_sha
            error = None if ok else f"exit {res.code} (documented {want_code}), stdout sha256 {'ok' if sha == want_sha else 'differs'}"
            p["ops"].append([name, res.wall_s, ok, f"{res.code}:{sha}", error])
            p["wall_s"] += res.wall_s
            p["rss_kb"] = max(p["rss_kb"], res.rss_kb)
            if traced:
                data = json.loads(trace_path.read_text())
                traces.append({"case": name, **data})
                for k, v in layer_sums(data, res).items():
                    raw[k] = raw.get(k, 0) + v
        if traced:
            p["trace"] = traces
            p["layers"] = finish_layers(raw, p["wall_s"])
        return p


# ---------------------------------------------------------------------------
# per-layer numbers from a trace
# ---------------------------------------------------------------------------


def layer_sums(data, res):
    """Additive per-process numbers: calls and self time per name, counters,
    and the time before the first span (interpreter start, harness imports)
    and after the last (trace output, interpreter shutdown)."""
    out = {
        "bench.spawn.self_s": data["t_root"] - res.t_spawn,
        "bench.exit.self_s": res.t_spawn + res.wall_s - data["t_end"],
    }
    for name, t in data["trace"]["totals"].items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]
    out.update(data["trace"]["counts"])
    return out


def finish_layers(sums, wall_s):
    """Ratios over a whole pass, once its per-process sums are added up."""
    out = dict(sums)
    divisions = sums.get("search.divisions", 0)
    out["search.survival_ratio"] = sums.get("search.divisions.zero_remainder", 0) / divisions if divisions else 0.0
    covered = sum(v for k, v in sums.items() if k.endswith(".self_s"))
    out["trace.coverage"] = covered / wall_s
    out["cli.import_s"] = sums.get("cli.import.self_s", 0.0)
    return out


def layer_of(metric):
    """The wrap-target layer a per-layer metric depends on."""
    if metric.startswith("search.divisions") or metric == "search.survival_ratio":
        return "ncpoly.right_divide"
    if metric == "endo.census.calls":
        return "search.enumerate"
    for suffix in (".calls", ".self_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def check_passes(passes):
    """Mark failed every operation whose digest differs from its first
    passing run. Returns (attempted, failed, unexpected failures, notes)."""
    first = {}
    attempted = failed = unexpected = 0
    notes = []
    for p in passes:
        for rec in p["ops"]:
            key, _s, ok, digest, error = rec
            if ok and first.setdefault(key, digest) != digest:
                rec[2], rec[4] = False, "non-deterministic: digest differs from an earlier pass"
            attempted += 1
            if not rec[2]:
                failed += 1
                unexpected += key not in workloads.KNOWN_DEFECTS
                notes.append(f"{key}: {rec[4]}")
    tallies = {p["tally"] for p in passes}
    if len(tallies) > 1:
        unexpected += 1
        notes.append(f"per-pass tally differs between passes: {sorted(tallies)}")
    return attempted, failed, unexpected, notes


def run(workload, seed, seconds, trace):
    OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t0 = time.monotonic()
    runner = Runner(workload, seed, t0 + DEADLINE_S)

    runner.setup_probe()  # unmeasured: the first start on a fresh checkout is cold
    setups = []
    t_measure = time.monotonic()
    plain, traced = [], []
    while True:
        t_cycle = time.monotonic()
        setups += [runner.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
        plain.append(runner.run_pass(traced=False))
        if trace:
            traced.append(runner.run_pass(traced=True))
        now = time.monotonic()
        # stop when another cycle like this one would end past --seconds
        if len(plain) >= MIN_PASSES and now + (now - t_cycle) - t_measure > seconds:
            break
    setups += [p["setup_s"] for p in plain + traced if p["setup_s"] is not None]

    attempted, failed, unexpected, notes = check_passes(plain + traced)
    op_s = [rec[1] for p in plain for rec in p["ops"]]
    best = best_of_passes(plain)
    walls = [p["wall_s"] for p in plain]
    # the pass as if every operation ran at its best: the sum of the
    # operations' best latencies plus the least non-operation time of a pass
    # (spawn, import, set-up, checks, exit)
    overhead = min(p["wall_s"] - sum(rec[1] for rec in p["ops"]) for p in plain)
    values = {
        "wall_s": sum(best.values()) + overhead,
        "op_ms_p50": median(best.values()) * 1000,
        "setup_s": median(setups),
        "peak_rss_mb": median([p["rss_kb"] for p in plain]) / 1024,
    }
    p90 = tail_percentile(op_s, 90)

    print(f"workload {workload}  seed {seed}  {len(plain)} untraced passes, {len(traced)} traced passes")
    print(f"  wall_s       {values['wall_s']:.4f} s   from {len(walls)} passes (best pass {min(walls):.4f} s, median {median(walls):.4f} s)")
    print(f"  op_ms_p50    {values['op_ms_p50']:.4f} ms  median over {len(best)} operations of each one's best of {len(plain)} passes")
    if p90 is None:
        print(f"  op_ms_p90    not reported: {len(op_s)} samples, fewer than 10 beyond p90")
    else:
        print(f"  op_ms_p90    {p90 * 1000:.4f} ms  over all {len(op_s)} samples")
    print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(setups)} set-ups")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.2f} MB  median of {len(plain)} passes")
    print(f"  fail_frac    {failed / attempted:.4f}     {failed} of {attempted} operations failed")
    if plain[0]["tally"] is not None:
        print(f"  hypothesis hits per pass: {plain[0]['tally']}")
    for note in sorted(set(notes)):
        print(f"  FAILED {note}")

    if trace:
        metrics = per_layer_metrics(spec, runner.live_layers(), plain, traced)
        out = OUT_DIR / f"trace-{workload}-{seed}.json"
        out.write_text(
            json.dumps(
                {
                    "workload": workload,
                    "seed": seed,
                    "untraced_best_s": best,
                    "traced": [{"ops": p["ops"], "wall_s": p["wall_s"], "trace": p["trace"]} for p in traced],
                }
            )
        )
        print(f"  trace written to {out.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    return {"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer_metrics(spec, live, plain, traced):
    overhead = median([p["wall_s"] for p in traced]) / median([p["wall_s"] for p in plain]) - 1
    metrics = {}
    absent = []
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace_overhead_frac":
            value = overhead
        elif layer_of(name) in tracer.LAYER_NAMES and layer_of(name) not in live:
            absent.append(name)
            continue
        else:
            value = median([p["layers"].get(name, 0) for p in traced])
        metrics[name] = {"value": value, "unit": m["unit"]}
    if absent:
        print(f"  absent (wrap target gone): {', '.join(absent)}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description="the cyclesplit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cyclesplit" / "__init__.py").is_file():
        print(f"error: no cyclesplit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
