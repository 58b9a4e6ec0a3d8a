"""In-memory span tracer for one benchmark pass.

Spans are recorded by wrapping the package's layer functions where their
callers import them (for example ``ofdm_isac.metrics.dd_transform`` and
``ofdm_isac.pcs.logsumexp``), so ``src/`` is never edited.  Each span keeps
(id, parent id, name, thread, start, end, counts); nothing is written until
the pass ends.  A span started on a pool worker with no open span of its own
takes the main thread's innermost open span as its parent, which is exact
because the main thread waits inside that span while the pool runs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self.main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _begin(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent, stack = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end, None))

    def traced(self, fn, name: str, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` gives the span's work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, stack = self._begin()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end,
                               count(args, result) if count else None))
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, count=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.traced(original, name, count))

    def unpatch(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _size(key):
    return lambda args, result: {key: int(result.size)}


def _frames(args, result):
    return {"frames": int(result.size // (result.shape[-2] * result.shape[-1])),
            "entries": int(result.size)}


def _air(args, result):
    shaped, cfg = args[0], args[1]
    return {"samples": cfg.mc_samples, "mixture_terms": cfg.mc_samples * shaped.order}


class _JsonProxy:
    """Stands in for ``cli.json`` so the CLI's ``json.dump`` calls become write spans."""

    def __init__(self, tracer):
        import json as real

        self._real = real
        self.dump = tracer.traced(real.dump, "cli.write")

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function at each module that imports it."""
    from ofdm_isac import air, channel, cli, constellation, detection, filtering, metrics, pcs, verification

    for mod in (constellation, metrics, detection, air):
        tracer.patch(mod, "draw_symbols", "constellation.draw_symbols", _size("symbols"))
    for mod in (channel, metrics, detection, air):
        tracer.patch(mod, "complex_normal", "channel.complex_normal", _size("samples"))
    for mod in (filtering, metrics, detection):
        tracer.patch(mod, "dd_transform", "filtering.dd_transform", _frames)
    for mod in (filtering, constellation, metrics, detection):
        tracer.patch(mod, "point_gain", "filtering.point_gain", _size("entries"))

    tracer.patch(cli, "run_verification", "verification.run_verification")
    tracer.patch(verification, "identity_checks", "metrics.identity_checks")
    tracer.patch(cli, "empirical_dd_profile", "metrics.empirical_dd_profile")
    tracer.patch(cli, "expected_dd_power", "metrics.expected_dd_power")
    for mod in (cli, pcs, verification):
        tracer.patch(mod, "closed_form_metrics", "metrics.closed_form_metrics")
    tracer.patch(metrics, "_simulate_batch", "metrics.simulate_batch")
    tracer.patch(metrics, "_batch_plan", "metrics.batch_plan", lambda a, r: {"batches": len(r)})

    tracer.patch(cli, "detection_probability", "detection.detection_probability",
                 lambda a, r: {"trials": int(a[5])})
    tracer.patch(detection, "cfar_thresholds", "detection.cfar_thresholds")

    class TracedPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            return super().map(tracer.traced(fn, "detection.worker"), *iterables, **kwargs)

    tracer._patched.append((detection, "ThreadPoolExecutor", detection.ThreadPoolExecutor))
    detection.ThreadPoolExecutor = TracedPool

    for mod in (cli, pcs):
        tracer.patch(mod, "mba_solve", "pcs.mba_solve", lambda a, r: {"iters": r.outer_iters})
    tracer.patch(cli, "tradeoff_sweep", "pcs.tradeoff_sweep")
    tracer.patch(pcs, "logsumexp", "pcs.posterior")
    tracer.patch(pcs, "brentq", "pcs.multiplier")
    tracer.patch(pcs, "complex_normal", "pcs.bank", _size("samples"))
    for mod, attr in ((cli, "c0_bounds"), (pcs, "c0_bounds"), (pcs, "effective_budget")):
        tracer.patch(mod, attr, "pcs.bounds")
    tracer.patch(pcs, "air_estimate", "air.air_estimate", _air)

    tracer.patch(cli, "_write_table", "cli.write")
    tracer.patch(cli, "save_codebook", "cli.write")
    tracer._patched.append((cli, "json", cli.json))
    cli.json = _JsonProxy(tracer)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[tuple], main_thread: int) -> dict:
    """Per-name and per-module totals, self times, counts and per-command accounting.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it.  ``busy_s`` sums worker-thread span time.
    """
    children: dict[int, list[tuple]] = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    names: dict[str, dict] = {}
    modules: dict[str, float] = {}
    commands = []
    for sid, _parent, name, thread, start, end, counts in spans:
        kids = [(max(k[4], start), min(k[5], end)) for k in children.get(sid, ())]
        covered = _union([iv for iv in kids if iv[1] > iv[0]])
        self_s = (end - start) - covered
        rec = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "busy_s": 0.0, "counts": {}})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += self_s
        if thread != main_thread:
            rec["busy_s"] += end - start
        for key, value in (counts or {}).items():
            rec["counts"][key] = rec["counts"].get(key, 0) + value
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s
        if name.startswith("cmd."):
            commands.append({"command": name[4:], "s": end - start, "self_s": self_s, "children_s": covered})
    return {"names": names, "module_self_s": modules, "commands": commands, "spans": len(spans)}


# Per-call timings to set beside the hand-measured ROADMAP baseline (ms): layer
# span name, the counts that pick a 256-frame 64x32 batch, the command whose
# spans are used (profiles runs WF only, as the ROADMAP measurement did), and
# the ROADMAP figure.
BATCH = 256 * 64 * 32
BASELINE = (
    ("constellation.draw_symbols", {"symbols": BATCH}, "cmd.profiles", 34.0),
    ("channel.complex_normal", {"samples": BATCH}, "cmd.profiles", 24.0),
    ("filtering.dd_transform", {"frames": 256, "entries": BATCH}, "cmd.profiles", 10.6),
    ("filtering.point_gain", {"entries": BATCH}, "cmd.profiles", 6.1),
    ("air.air_estimate", {"samples": 200_000}, None, 590.0),
    ("pcs.mba_solve", {}, None, 700.0),
)


def baseline_samples(spans: list[tuple]) -> dict[str, list[float]]:
    """Durations in ms of the spans that match each ROADMAP baseline row."""
    windows: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s[2].startswith("cmd."):
            windows.setdefault(s[2], []).append((s[4], s[5]))
    out: dict[str, list[float]] = {name: [] for name, _, _, _ in BASELINE}
    for _sid, _parent, name, _thread, start, end, counts in spans:
        for row_name, want, command, _ in BASELINE:
            if name != row_name or any((counts or {}).get(k) != v for k, v in want.items()):
                continue
            if command is None or any(a <= start and end <= b for a, b in windows.get(command, ())):
                out[name].append(1e3 * (end - start))
    return out


def write_spans(path, spans: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "thread", "start", "end", "counts"],
                   "spans": spans}, fh)
