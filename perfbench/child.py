"""One benchmark pass in a fresh Python process.

Started by run.py; not meant to be run by hand.  A pass imports the package
from the checkout's ``src/``, writes the workload's configs, runs its CLI
commands one after another through ``ofdm_isac.cli.main``, checks what they
wrote and stores a JSON result.  With ``--trace 1`` it also records spans
(see tracing.py) and writes them when the pass ends.  With ``--invariance``
it instead runs the workload's reduced commands at 1 and 2 threads and
compares the artifact bytes; with ``--setup-only`` it stops once set up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from ofdm_isac import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ofdm_isac imported from {cli.__file__}, not from {src}")
    return cli


def _run(cli, argv: list[str]) -> int:
    """Run one CLI command, keeping its stdout out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            traceback.print_exc()
            return -1


def _artifacts(out: Path) -> tuple[int, int]:
    files = [p for p in out.iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _pass(args) -> dict:
    cli = _import_cli()
    import numpy
    import scipy

    import workloads

    commands = workloads.make_commands(args.workload, args.seed, args.workdir, args.nproc)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launch
    if args.setup_only:
        return {"setup_s": setup_s}

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = []
    for cmd in commands:
        span = tracer.span(f"cmd.{cmd.name}") if tracer else contextlib.nullcontext()
        start, cpu = time.perf_counter(), time.process_time()
        with span:
            code = _run(cli, cmd.argv)
        records.append({"command": cmd.name, "threads": cmd.threads, "s": time.perf_counter() - start,
                        "cpu_s": time.process_time() - cpu, "exit": code, "items": cmd.items})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.unpatch()

    for cmd, rec in zip(commands, records):
        rec["errors"] = workloads.check_output(cmd) if rec["exit"] == 0 else [f"{cmd.name}: exit {rec['exit']}"]
        rec["artifacts"], rec["artifact_bytes"] = _artifacts(cmd.out)

    result = {
        "setup_s": setup_s,
        "commands": records,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": _blas(numpy)},
    }
    if tracer:
        result["trace"] = tracing.summarize(tracer.spans, tracer.main_thread)
        result["baseline_ms"] = tracing.baseline_samples(tracer.spans)
        tracing.write_spans(args.workdir / "spans.json", tracer.spans)
    return result


def _blas(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _invariance(args) -> dict:
    cli = _import_cli()
    import workloads

    mismatches = []
    checked = []
    for name, cfg, seed in workloads.invariance_commands(args.workload, args.seed, args.workdir):
        cfg_path = args.workdir / f"{name}_reduced.json"
        args.workdir.mkdir(parents=True, exist_ok=True)
        cfg_path.write_text(json.dumps(cfg))
        outs = {}
        for threads in (1, 2):
            out = args.workdir / f"{name}_t{threads}"
            code = _run(cli, [name, "--config", str(cfg_path), "--seed", seed, "--out", str(out),
                              "--threads", str(threads)])
            if code != 0:
                mismatches.append(f"{name} --threads {threads}: exit {code}")
            outs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if outs[1] != outs[2]:
            differ = sorted(k for k in outs[1].keys() | outs[2].keys() if outs[1].get(k) != outs[2].get(k))
            mismatches.append(f"{name}: artifacts differ between 1 and 2 threads: {differ}")
        checked.append(f"{name}: {len(outs[1])} files")
    return {"checked": checked, "mismatches": mismatches}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launch", type=float, required=True, help="CLOCK_MONOTONIC at launch")
    parser.add_argument("--nproc", type=int, default=1)
    parser.add_argument("--invariance", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help="stop once set up")
    args = parser.parse_args()
    result = _invariance(args) if args.invariance else _pass(args)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
