"""Benchmark of the ofdm-isac CLI.

    python3 perfbench/run.py --workload {sensing,shaping,tradeoff} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass is a fresh Python process
(child.py), a closed loop with one client that runs the workload's CLI
commands one after another on configs generated from ``--seed``; no cache of
one pass can serve another.  Passes repeat for about ``--seconds`` seconds.
Wall and CPU time are the sum over the workload's commands of each command's
median over the passes; peak memory is the median over passes, and
``setup_s`` the median of at least five set-ups.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced pass, then traced passes,
and reports the per-layer metrics.  The last stdout line is the JSON result;
the full record (environment, per-pass figures, checks) is written to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0  # the whole run, children included, ends well inside 180 s
MIN_TRACED = 2  # traced passes in a --trace 1 run, so their counts can be compared
MIN_SETUPS = 5  # set-ups timed in a --trace 0 run; set-up-only processes make up the count
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ------------------------------------------------------------ per-layer metrics


def _calls(name):
    return lambda t: t["names"].get(name, {}).get("calls", 0)


def _count(name, key):
    return lambda t: t["names"].get(name, {}).get("counts", {}).get(key, 0)


def _self(name):
    return lambda t: t["names"].get(name, {}).get("self_s", 0.0)


def _total(name):
    return lambda t: t["names"].get(name, {}).get("s", 0.0)


def _module_self(module):
    return lambda t: t["module_self_s"].get(module, 0.0)


def _busy_frac(t):
    """Worker busy time over (threads x detection wall); 1 when detection ran on one thread."""
    wall = _total("detection.detection_probability")(t)
    if wall == 0.0:
        return 0.0
    busy = t["names"].get("detection.worker", {}).get("busy_s", 0.0)
    return busy / (t["threads"] * wall) if busy else 1.0


# (name, unit, extractor from one traced pass's summary).  Names follow
# <module>.<function>.<quantity>; counts must repeat exactly between passes.
PER_LAYER = (
    ("constellation.draw_symbols.calls", "count", _calls("constellation.draw_symbols")),
    ("constellation.draw_symbols.symbols", "count", _count("constellation.draw_symbols", "symbols")),
    ("constellation.draw_symbols.self_s", "s", _self("constellation.draw_symbols")),
    ("channel.complex_normal.calls", "count", _calls("channel.complex_normal")),
    ("channel.complex_normal.samples", "count", _count("channel.complex_normal", "samples")),
    ("channel.complex_normal.self_s", "s", _self("channel.complex_normal")),
    ("filtering.dd_transform.calls", "count", _calls("filtering.dd_transform")),
    ("filtering.dd_transform.frames", "count", _count("filtering.dd_transform", "frames")),
    ("filtering.dd_transform.self_s", "s", _self("filtering.dd_transform")),
    ("filtering.point_gain.calls", "count", _calls("filtering.point_gain")),
    ("filtering.point_gain.entries", "count", _count("filtering.point_gain", "entries")),
    ("filtering.point_gain.self_s", "s", _self("filtering.point_gain")),
    ("metrics.identity_checks.s", "s", _total("metrics.identity_checks")),
    ("metrics.empirical_dd_profile.s", "s", _total("metrics.empirical_dd_profile")),
    ("metrics.batches", "count", _count("metrics.batch_plan", "batches")),
    ("metrics.self_s", "s", _module_self("metrics")),
    ("detection.detection_probability.s", "s", _total("detection.detection_probability")),
    ("detection.cfar_thresholds.calls", "count", _calls("detection.cfar_thresholds")),
    ("detection.cfar_thresholds.self_s", "s", _self("detection.cfar_thresholds")),
    ("detection.self_s", "s", _module_self("detection")),
    ("detection.busy_frac", "frac", _busy_frac),
    ("pcs.mba_solve.s", "s", _total("pcs.mba_solve")),
    ("pcs.iters", "count", _count("pcs.mba_solve", "iters")),
    ("pcs.posterior.calls", "count", _calls("pcs.posterior")),
    ("pcs.posterior.self_s", "s", _self("pcs.posterior")),
    ("pcs.multiplier.calls", "count", _calls("pcs.multiplier")),
    ("pcs.multiplier.self_s", "s", _self("pcs.multiplier")),
    ("pcs.bank.calls", "count", _calls("pcs.bank")),
    ("pcs.bounds.calls", "count", _calls("pcs.bounds")),
    ("pcs.self_s", "s", _module_self("pcs")),
    ("air.air_estimate.calls", "count", _calls("air.air_estimate")),
    ("air.air_estimate.samples", "count", _count("air.air_estimate", "samples")),
    ("air.air_estimate.mixture_terms", "count", _count("air.air_estimate", "mixture_terms")),
    ("air.air_estimate.s", "s", _total("air.air_estimate")),
    ("cli.artifacts", "count", lambda t: t["artifacts"]),
    ("cli.artifact_bytes", "B", lambda t: t["artifact_bytes"]),
    ("cli.write.self_s", "s", _self("cli.write")),
)
REPEAT_NAMED = ("filtering.dd_transform.calls", "constellation.draw_symbols.symbols", "pcs.iters",
                "pcs.bounds.calls", "air.air_estimate.samples")


# ------------------------------------------------------------ environment


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(nproc: int) -> dict:
    """Machine and source description recorded with every result."""
    git_sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = size
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "blas_threads_env": {k: "1" for k in BLAS_ENV},
    }


# ------------------------------------------------------------ passes


class Runner:
    def __init__(self, workload: str, seed: int, nproc: int):
        self.workload, self.seed, self.nproc = workload, seed, nproc
        self.workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.start = time.monotonic()
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update({k: "1" for k in BLAS_ENV})
        self.env.update({"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"})

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def child(self, *extra: str) -> dict:
        """Run child.py once and return its JSON result."""
        self.count += 1
        pdir = self.workdir / f"pass{self.count:02d}"
        pdir.mkdir(parents=True)
        result = pdir / "result.json"
        log = pdir / "stderr.log"
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before the run's minimum passes completed")
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(pdir), "--result", str(result),
                "--nproc", str(self.nproc), *extra]
        with open(log, "w", encoding="utf-8") as err:
            argv += ["--launch", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
            try:
                proc = subprocess.run(argv, cwd=ROOT, env=self.env, stdout=err, stderr=err, timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"pass {self.count} exceeded the {DEADLINE_S:.0f} s run deadline") from exc
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace")[-3000:]
            raise BenchError(f"pass {self.count} exited {proc.returncode}:\n{tail}")
        return json.loads(result.read_text()) | {"dir": str(pdir)}

    def passes(self, trace: int, seconds: float, minimum: int) -> list[dict]:
        """Repeat passes until about ``seconds`` have gone by, at least ``minimum`` times."""
        out: list[dict] = []
        durations: list[float] = []
        t0 = self.elapsed()
        while len(out) < minimum or self.elapsed() - t0 + 0.5 * statistics.median(durations) < seconds:
            began = self.elapsed()
            out.append(self.child("--trace", str(trace)))
            durations.append(self.elapsed() - began)
        return out


def _wall(p: dict) -> float:
    return sum(c["s"] for c in p["commands"])


def _slot_sum(passes: list[dict], key: str, only_items: bool = False) -> float:
    """Sum over the workload's commands of each command's median ``key`` across passes.

    A slowdown of the shared host that hits different commands in different
    passes moves a median of pass totals but not these per-command medians.
    """
    slots = zip(*(p["commands"] for p in passes))
    return sum(statistics.median(c[key] for c in slot) for slot in slots
               if not only_items or slot[0]["items"])


def _items_per_s(passes: list[dict]) -> float:
    return sum(c["items"] for c in passes[0]["commands"]) / _slot_sum(passes, "s", only_items=True)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": _slot_sum(passes, "s"), "unit": "s"},
        "cpu_s": {"value": _slot_sum(passes, "cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        "items_per_s": {"value": _items_per_s(passes), "unit": "1/s"},
    }


def command_medians(passes: list[dict]) -> dict:
    """Untraced median seconds per command kind (pcs: per solve) and the sensing frame rate."""
    per: dict[str, list[float]] = {}
    for p in passes:
        kinds: dict[str, list[float]] = {}
        for c in p["commands"]:
            kinds.setdefault(c["command"], []).append(c["s"])
        for kind, times in kinds.items():
            per.setdefault(kind, []).append(statistics.median(times) if kind == "pcs" else sum(times))
    out = {f"{kind}_s": statistics.median(v) for kind, v in per.items()}
    if any(c["command"] in ("verify", "profiles") for c in passes[0]["commands"]):
        out["frames_per_s"] = _items_per_s(passes)
        out["frame_sizes"] = "verify 64x32; profiles 16x16 and 64x32"
    commands = [c for p in passes for c in p["commands"]]
    out["fail_frac"] = sum(1 for c in commands if c["errors"]) / len(commands)
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str], dict]:
    """Per-layer medians over the traced passes, the checks on them, and notes for the record."""
    rows = []
    for p in traced:
        t = dict(p["trace"])
        t["threads"] = max(c["threads"] for c in p["commands"])
        t["artifacts"] = sum(c["artifacts"] for c in p["commands"])
        t["artifact_bytes"] = sum(c["artifact_bytes"] for c in p["commands"])
        rows.append({name: fn(t) for name, _, fn in PER_LAYER})
    metrics = {name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
               for name, unit, _ in PER_LAYER}
    overhead = statistics.median(_wall(p) for p in traced) - statistics.median(_wall(p) for p in untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    problems = []
    for name, unit, _ in PER_LAYER:
        values = {r[name] for r in rows}
        if unit in ("count", "B") and len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")
    for p in traced:
        for cmd in p["trace"]["commands"]:
            if abs(cmd["self_s"] + cmd["children_s"] - cmd["s"]) > 1e-9 * max(1.0, cmd["s"]):
                problems.append(f"spans of {cmd['command']} do not add up to its time")
    repeat = {name: sorted({r[name] for r in rows}) for name in REPEAT_NAMED}
    return metrics, problems, {"repeat_counts": repeat, "overhead_s": overhead}


def baseline_table(traced: list[dict]) -> list[str]:
    """Harness per-call times beside the hand-measured ROADMAP baseline."""
    lines = ["per-call ms (first four: one WF 256-frame 64x32 batch in profiles): "
             "harness median / min vs ROADMAP"]
    for name, _, _, roadmap in tracing.BASELINE:
        samples = [v for p in traced for v in p["baseline_ms"][name]]
        if samples:
            lines.append(f"  {name:28s} n={len(samples):4d} median={statistics.median(samples):8.2f} "
                         f"min={min(samples):8.2f}  roadmap={roadmap:7.1f}")
        else:
            lines.append(f"  {name:28s} not run by this workload           roadmap={roadmap:7.1f}")
    iters = [p["trace"]["names"].get("pcs.mba_solve", {}) for p in traced]
    if iters[0]:
        per_solve = statistics.median(i["counts"]["iters"] / i["calls"] for i in iters)
        lines.append(f"  mba_solve iterations per solve: {per_solve:.1f} (ROADMAP figure: 3 iterations)")
    return lines


def command_accounting(p: dict) -> list[str]:
    t = p["trace"]
    lines = ["span accounting (last traced pass): command s = self + child spans; module self s"]
    for cmd in t["commands"]:
        lines.append(f"  {cmd['command']:9s} {cmd['s']:8.3f} = {cmd['self_s']:.3f} + {cmd['children_s']:.3f}")
    modules = sorted(t["module_self_s"].items(), key=lambda kv: -kv[1])
    lines.append("  " + ", ".join(f"{m}={s:.3f}" for m, s in modules))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ofdm_isac" / "cli.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'ofdm_isac'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = len(os.sched_getaffinity(0))
    runner = Runner(args.workload, args.seed, nproc)
    try:
        if args.trace:
            untraced = runner.passes(0, 0.0, 1)
            traced = runner.passes(1, args.seconds - runner.elapsed(), MIN_TRACED)
        else:
            untraced, traced = runner.passes(0, args.seconds, 1), []
        done = untraced + traced
        setups = [p["setup_s"] for p in done]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(runner.child("--setup-only")["setup_s"])
        invariance = runner.child("--invariance")
        spans = Path(traced[-1]["dir"]) / "spans.json" if traced else None
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans:
            shutil.copyfile(spans, results / f"{stem}-spans.json")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    env = environment(nproc)
    env["versions"] = done[0]["versions"]
    env["threads"] = {c["command"]: c["threads"] for c in done[0]["commands"]}
    failed = [e for p in done for c in p["commands"] for e in c["errors"]]
    problems = list(invariance["mismatches"])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "passes": len(done), "run_s": runner.elapsed(),
              "commands": command_medians(done), "invariance": invariance,
              "setups_s": setups,
              "per_pass": [{"trace": "trace" in p, "wall_s": _wall(p),
                            "cpu_s": sum(c["cpu_s"] for c in p["commands"]),
                            "peak_rss_mb": p["peak_rss_mb"]} for p in done]}
    if args.trace:
        metrics, trace_problems, notes = per_layer(untraced, traced)
        problems += trace_problems
        record["trace_notes"] = notes
        lines = baseline_table(traced) + command_accounting(traced[-1])
        lines.append(f"tracing overhead: {notes['overhead_s']:+.3f} s (traced minus untraced wall_s)")
    else:
        metrics = end_to_end(done, setups)
        lines = []
    attempted = sum(len(p["commands"]) for p in done)
    n_failed = sum(1 for p in done for c in p["commands"] if c["errors"])
    result = {"correct": n_failed == 0 and not problems, "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    record.update({"failures": failed, "problems": problems, "result": result})
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(done)} passes in {runner.elapsed():.1f} s")
    for line in lines:
        print(line)
    for msg in (failed + problems)[:20]:
        print(f"CHECK FAILED: {msg}")
    print("commands " + json.dumps(record["commands"]))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
