"""The process side of the benchmark: one pass in a fresh interpreter.

    python3 bench/child.py pass  <workload> <seed>    run every operation once
    python3 bench/child.py trace <workload> <seed>    the same, with layer tracing
    python3 bench/child.py setup <workload> <seed>    set up, report, exit
    python3 bench/child.py layers                     list live wrap targets
    python3 bench/child.py cli-trace <trace file> <cyclesplit args...>

``<workload>`` is census, galois or lawsweep; a cli pass is the command's
own processes. ``bench/run.py`` starts these one at a time with ``src`` on
``PYTHONPATH`` and reads the single JSON line each prints last
(``cli-trace`` passes the command's own stdout through and writes its trace
to the named file).
Timestamps that cross the process boundary use ``time.monotonic``: the
parent turns them into the spawn-to-first-span and last-span-to-exit times.
"""

import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import tracer
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_library(workload):
    import cyclesplit

    if not Path(cyclesplit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cyclesplit was imported from {cyclesplit.__file__}, not from {SRC}")
    if workload == "galois":
        import cyclesplit.endo  # noqa: F401
    if workload == "cli":
        import cyclesplit.cli  # noqa: F401


def run_pass(workload, seed, tr, setup_only=False):
    span = tr.span if tr is not None else (lambda name: nullcontext())
    records = []
    tally_of = workloads.TALLIES.get(workload)
    tally = 0
    with span("bench.pass"):
        t_root = time.monotonic()
        with span("bench.import"):
            _import_library(workload)
        with span("bench.setup"):
            ops = workloads.OPS[workload](seed, workloads.load_oracle())
        t_ready = time.monotonic()
        if setup_only:
            ops = []
        for op in ops:
            error = None
            with span("bench.op"):
                t0 = time.perf_counter()
                try:
                    with tr.installed() if tr is not None else nullcontext():
                        result = op.call()
                except Exception as exc:  # an operation that raises is a failed operation
                    error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
            digest = None
            if error is None:
                try:
                    digest = workloads.digest(op.check(result))
                    if tally_of is not None:
                        tally += bool(tally_of(result))
                except Exception as exc:  # a wrong answer, or a result of the wrong shape
                    error = f"{type(exc).__name__}: {exc}"
            records.append([op.key, seconds, error is None, digest, error])
    out = {"t_root": t_root, "t_ready": t_ready, "t_end": time.monotonic(), "ops": records}
    if tally_of is not None:
        out["tally"] = tally
    if tr is not None:
        out["trace"] = tr.to_json()
    return out


def cli_trace(trace_path, argv):
    """One traced ``cyclesplit`` invocation: stdout is the command's own."""
    tr = tracer.Tracer()
    with tr.span("bench.pass"):
        t_root = time.monotonic()
        with tr.span("cli.import"):
            import cyclesplit.cli
        with tr.installed():
            code = cyclesplit.cli.run(argv)
    t_end = time.monotonic()
    sys.stdout.flush()
    Path(trace_path).write_text(json.dumps({"t_root": t_root, "t_end": t_end, "trace": tr.to_json()}))
    return code


def main(argv):
    mode = argv[1]
    if mode == "cli-trace":
        return cli_trace(argv[2], argv[3:])
    if mode == "layers":
        _import_library("galois")
        _import_library("cli")
        print(json.dumps({"layers": tracer.available_layers()}))
        return 0
    workload, seed = argv[2], int(argv[3])
    tr = tracer.Tracer() if mode == "trace" else None
    print(json.dumps(run_pass(workload, seed, tr, setup_only=(mode == "setup"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
