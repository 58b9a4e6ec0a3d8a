"""Reproducible experiment runner.

Subcommands: verify | dr-sweep | profiles | pcs | tradeoff | codebook.
Every command reads an optional JSON config, takes an explicit seed
(never the wall clock), and writes CSV/JSON artifacts whose bytes depend only
on (config, seed). CSV files start with '#' provenance lines naming units,
provenance (closed-form vs empirical), trials, and the seed. A command's config
fields, with their defaults and casts, are its table in ``_TABLES``; a field
that is not in the table is an error.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import inspect
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .air import GH_NODES
from .channel import FrameDims, Scene, Target, steering_vectors, target_cell
from .constellation import Family, ShapedConstellation, make_shaped, make_uniform, save_codebook
from .detection import CfarConfig, cfar_thresholds, default_tradeoff_scene, detection_cell, detection_probability
from .filtering import MF, RF, FilterKind, wiener
from .metrics import closed_form_metrics, empirical_dd_profile, expected_dd_power
from .pcs import BANK_NODES, PcsConfig, SolverError, c0_bounds, mba_solve, tradeoff_sweep
from .verification import run_verification

_UNUSED = object()  # table entry of a field accepted, as earlier versions read it, but warned about
MAX_SWEEP_ROWS = 10**6  # dr-sweep rows; a step that asks for more is refused, not run for hours


class ConfigError(Exception):
    """Malformed, unknown or conflicting configuration field; the message names it."""


class _Derived(NamedTuple):
    """A table entry built from the command's fields; what ``build`` rejects is reported as bad ``field``."""

    field: str
    build: Callable[[dict], Any]


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    if not (x := _finite(value)) > 0:
        raise ValueError(f"must be > 0, got {x}")
    return x


def _integer(value) -> int:
    """An integer: a bool, or a number with a fractional part, is refused rather than truncated."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _count(value) -> int:
    if (n := _integer(value)) < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _level_db(value) -> float:
    """A power level in dB whose linear value and its reciprocal are finite and > 0."""
    db = _finite(value)
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not (0.0 < linear < math.inf and 1.0 / linear < math.inf):
        raise ValueError(f"must be a dB level whose linear power and its reciprocal are finite and > 0, got {db}")
    return db


def _below_0_db(value) -> float:
    if (db := _level_db(value)) >= 0:
        raise ValueError(f"must be < 0, so that the target at weak_delay_bin is the weaker one, got {db}")
    return db


def _list_of(cast: Callable) -> Callable:
    """The cast of a non-empty JSON list whose every entry passes ``cast``."""

    def apply(value) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError(f"must be a non-empty list, got {value!r}")
        return [cast(entry) for entry in value]

    return apply


def _filter_kind(name: str, snr_in: float) -> FilterKind:
    kind = {"mf": MF, "rf": RF, "wf": wiener(snr_in)}.get(name.lower())
    if kind is None:
        raise ValueError(f"unknown kind {name.lower()!r}")
    return kind


def _snr_range(v: dict) -> None:
    if v["snr_db_start"] > v["snr_db_stop"]:
        raise ValueError(f"must be <= snr_db_stop ({v['snr_db_stop']}), got {v['snr_db_start']}")


def _snr_step(v: dict) -> None:
    edge = max(abs(v["snr_db_start"]), abs(v["snr_db_stop"]) + 1e-9)  # the largest |db| the sweep visits
    if v["snr_db_step"] < math.ulp(edge):  # a step of at least its float spacing moves every db
        raise ValueError(f"must be >= {math.ulp(edge):g}, the float spacing at {edge:g} dB, got {v['snr_db_step']}")
    span = v["snr_db_stop"] + 1e-9 - v["snr_db_start"]  # the sweep has floor(span / step) + 1 rows
    if span / v["snr_db_step"] >= MAX_SWEEP_ROWS:
        raise ValueError(f"must be > {span / MAX_SWEEP_ROWS:g} dB, so that the sweep has at most "
                         f"{MAX_SWEEP_ROWS} rows, got {v['snr_db_step']}")


def _cfar(v: dict) -> CfarConfig:
    cfar = CfarConfig(v["detection.cfar.guard"], v["detection.cfar.train"], v["detection.cfar.pfa"])
    cfar_thresholds(np.zeros(v["dims"].n_subcarriers), cfar)  # the delay profile must outspan the window
    return cfar


def _detection_scene(v: dict) -> Scene:
    scene = default_tradeoff_scene(v["noise_var"], v["detection.weak_delay_bin"], v["detection.weak_rel_power_db"])
    for target in scene.targets:  # checked before the solves, not after them
        steering_vectors(v["dims"], target)
    detection_cell(v["dims"], scene)
    return scene


def _codebook(v: dict) -> ShapedConstellation:
    c = v["alphabet"]
    if v["probs_file"] is None:
        return c
    with open(v["probs_file"], encoding="utf-8") as fh:  # a missing file or invalid JSON is a bad probs_file
        return make_shaped(c.family, c.order, json.load(fh))


def _problem(v: dict, c0: float) -> PcsConfig:
    """The shaping problem that the solver fields describe, at budget ``c0``."""
    return PcsConfig(v["family"], v["order"], v["filt"], v["dims"], v["gain_var"], v["noise_var"],
                     v["comm.noise_var"], c0, tol=v["tol"], max_outer_iters=v["max_outer_iters"])


def _defaults(obj) -> dict:
    """The keyword defaults of a library function or dataclass, so that no table restates them."""
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()}


# Every command's order, input SNR and frame default to those of the verification suite.
_VERIFY = _defaults(run_verification)
_ALPHABET = {
    "family": (Family.QAM, Family),
    "order": (_VERIFY["order"], _integer),
    "alphabet": _Derived("order", lambda v: make_uniform(v["family"], v["order"])),
}
_FRAME = {
    "dims.N": (_VERIFY["dims"].n_subcarriers, _integer),
    "dims.M": (_VERIFY["dims"].n_symbols, _integer),
    "dims": _Derived("dims", lambda v: FrameDims(v["dims.N"], v["dims.M"])),
}
_LINK = {  # input SNR, target gain and the receive filter they set
    "snr_in_db": (_VERIFY["snr_in_db"], _level_db),
    "gain_var": (1.0, _positive),
    "snr": _Derived("snr_in_db", lambda v: 10.0 ** (v["snr_in_db"] / 10.0)),
    "noise_var": _Derived("gain_var", lambda v: _positive(v["gain_var"] / v["snr"])),
    "filt": _Derived("filter", lambda v: _filter_kind(v["filter"], v["snr"])),
}
_SOLVE = {
    **_ALPHABET,
    **_FRAME,
    **_LINK,
    "filter": ("wf", str),
    "comm.noise_var": (0.1, _positive),
    "comm.mc_samples": _UNUSED,
    "bank_samples_per_point": _UNUSED,
    "tol": (_defaults(PcsConfig)["tol"], _positive),
    "max_outer_iters": (_defaults(PcsConfig)["max_outer_iters"], _count),
    "bounds": _Derived("order", lambda v: c0_bounds(
        v["order"], v["filt"], v["dims"], v["gain_var"], v["noise_var"], v["family"])),
}
_TABLES: dict[str, dict] = {
    "verify": {
        "order": _ALPHABET["order"],
        # verify runs QAM and PSK of this order; QAM's are the stricter
        "qam": _Derived("order", lambda v: make_uniform(Family.QAM, v["order"])),
        **_FRAME,
        "snr_in_db": _LINK["snr_in_db"],
        "trials": (_VERIFY["trials"], _count),
    },
    "dr-sweep": {
        **_ALPHABET,
        **_FRAME,
        "gain_var": _LINK["gain_var"],
        "snr_db_start": (-10.0, _level_db),
        "snr_db_stop": (30.0, _level_db),
        "snr_db_step": (0.25, _positive),
        "snr_range": _Derived("snr_db_start", _snr_range),
        "snr_step": _Derived("snr_db_step", _snr_step),
    },
    "profiles": {
        **_ALPHABET,
        **_LINK,
        "filter": ("mf", str),
        "trials": (2000, _count),
        "target.delay_bin": (0.0, _finite),
        "target.doppler_bin": (0.0, _finite),
        "dims_list": ([FrameDims(16, 16), FrameDims(64, 32)], _list_of(lambda nm: FrameDims(*map(_integer, nm)))),
        # the target must lie inside every frame, checked before the first frame's Monte Carlo
        "target": _Derived("target", lambda v: [steering_vectors(dims, Target(
            v["gain_var"], v["target.delay_bin"], v["target.doppler_bin"])) for dims in v["dims_list"]]),
    },
    "pcs": {**_SOLVE, "c0": (None, _finite), "c0_fraction": (1.0, _finite)},
    "tradeoff": {
        **_SOLVE,
        "c0_grid": (None, _list_of(_finite)),
        "n_grid": (8, _count),
        "grid": _Derived("n_grid", lambda v: v["c0_grid"] or np.linspace(*v["bounds"], v["n_grid"]).tolist()),
        "detection.trials": (500, _count),
        "detection.weak_delay_bin": (_defaults(default_tradeoff_scene)["weak_delay_bin"], _integer),
        "detection.weak_rel_power_db": (_defaults(default_tradeoff_scene)["weak_rel_power_db"], _below_0_db),
        "detection.cfar.guard": (_defaults(CfarConfig)["guard_cells"], _integer),
        "detection.cfar.train": (_defaults(CfarConfig)["train_cells"], _integer),
        "detection.cfar.pfa": (_defaults(CfarConfig)["pfa"], _finite),
        "cfar": _Derived("detection.cfar", _cfar),
        "scene": _Derived("detection.weak_delay_bin", _detection_scene),
    },
    "codebook": {**_ALPHABET, "probs_file": (None, str), "codebook": _Derived("probs_file", _codebook)},
}
_FIELDS = {name: [path for path, entry in table.items() if not isinstance(entry, _Derived)]
           for name, table in _TABLES.items()}


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _covers(fields: list[str], path: str) -> bool:
    return any(f == path or f.startswith(path + ".") for f in fields)


def _unknown_field(command: str, path: str) -> ConfigError:
    takers = [name for name, fields in _FIELDS.items() if _covers(fields, path)]
    if takers:
        return ConfigError(f"config field '{path}' does not apply to {command}, only to {', '.join(takers)}")
    every = sorted(set().union(*_FIELDS.values()))
    close = difflib.get_close_matches(path, _FIELDS[command], n=1) or difflib.get_close_matches(path, every, n=1)
    hint = f"; did you mean '{close[0]}'?" if close else ""
    return ConfigError(f"unknown config field '{path}' for {command}{hint}")


def _flatten(command: str, node: dict, prefix: str = "") -> dict:
    """The config's values by dotted path; a field that ``command`` does not read is a ConfigError."""
    fields, flat = _FIELDS[command], {}
    for key, value in node.items():
        path = prefix + key
        if path in fields:
            flat[path] = value
        elif not _covers(fields, path):
            raise _unknown_field(command, path)
        elif not isinstance(value, dict):
            raise ConfigError(f"bad config field '{path}': must be a JSON object, got {value!r}")
        else:
            flat.update(_flatten(command, value, path + "."))
    return flat


def _apply(path: str, func: Callable, arg):
    try:
        return func(arg)
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"bad config field '{path}': {exc}") from exc


def _resolve(command: str, cfg: dict) -> dict:
    """Apply ``command``'s table to ``cfg``: each field cast, or its default where absent, then each
    derived entry built in table order. Both fields of an exclusive pair are a ConfigError."""
    flat, table = _flatten(command, cfg), _TABLES[command]
    for pair in (("c0", "c0_fraction"), ("c0_grid", "n_grid")):
        if all(path in flat for path in pair):
            raise ConfigError(f"bad config field '{pair[0]}': set '{pair[0]}' or '{pair[1]}', not both")
    unused = [path for path in _FIELDS[command] if table[path] is _UNUSED and path in flat]
    if unused:
        warnings.warn(f"config fields not used: {', '.join(map(repr, unused))}; "
                      "the solver's bank and its AIR are Gauss-Hermite quadratures", stacklevel=2)
    values = {key: _apply(key, entry[1], flat[key]) if key in flat else entry[0]
              for key, entry in table.items() if not isinstance(entry, _Derived) and entry is not _UNUSED}
    for key, entry in table.items():
        if isinstance(entry, _Derived):
            values[key] = _apply(entry.field, entry.build, values)
    return values


def _write_table(path_base: Path, fmt: str, comments: list[str], columns: list[str], rows) -> Path:
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
    else:
        path = path_base.with_suffix(".json")
        _write_json(path, {"meta": comments, "columns": columns, "rows": [list(r) for r in rows]})
    return path


def _json_value(value):
    """``value`` with each non-finite float as the CSV spells it (``"nan"``, ``"inf"``, ``"-inf"``): JSON has no NaN."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_value(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


# ---------------------------------------------------------------- commands


def _cmd_verify(args, v: dict) -> int:
    checks = run_verification(dims=v["dims"], order=v["order"], snr_in_db=v["snr_in_db"], trials=v["trials"],
                              seed=args.seed, threads=args.threads)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: residual={check.residual:.3e} tol={check.tolerance:.1e}")
    report = {"all_pass": all(c.passed for c in checks), "checks": [c.as_dict() for c in checks]}
    path = args.out / "verify_report.json"
    _write_json(path, report)
    print(f"report written to {path}")
    return 0 if report["all_pass"] else 1


def _cmd_dr_sweep(args, v: dict) -> int:
    c, dims, gain_var = v["alphabet"], v["dims"], v["gain_var"]
    rows, db = [], v["snr_db_start"]
    while db <= v["snr_db_stop"] + 1e-9:
        snr = 10.0 ** (db / 10.0)
        drs = [closed_form_metrics(c, f, dims, gain_var, gain_var / snr).dr for f in (MF, RF, wiener(snr))]
        rows.append((round(db, 10), snr, *drs, *(_db(x) for x in drs)))
        db += v["snr_db_step"]
    path = _write_table(args.out / "dr_sweep", args.format, [
        "units: snr_in_db and dr_*_db in dB; snr_in_linear and dr_* linear power ratios",
        "provenance: closed-form",
        f"constellation: uniform {c.order}-{c.family.value}",
        f"dims: N={dims.n_subcarriers} M={dims.n_symbols}",
    ], ["snr_in_db", "snr_in_linear", "dr_mf", "dr_rf", "dr_wf", "dr_mf_db", "dr_rf_db", "dr_wf_db"], rows)
    print(f"wrote {path}")
    return 0


def _profile_rows(expected: np.ndarray, empirical: np.ndarray):
    e_peak, m_peak = expected.max(), empirical.max()
    return [(k, _db(expected[k] / e_peak), _db(empirical[k] / m_peak), expected[k], empirical[k])
            for k in range(len(expected))]


def _cmd_profiles(args, v: dict) -> int:
    c, f, trials = v["alphabet"], v["filt"], v["trials"]
    gain_var, noise_var = v["gain_var"], v["noise_var"]
    delay_bin, doppler_bin = v["target.delay_bin"], v["target.doppler_bin"]
    for dims in v["dims_list"]:
        scene = Scene((Target(gain_var, delay_bin, doppler_bin),), noise_var)
        mean_map = empirical_dd_profile(c, f, dims, scene, trials, args.seed, threads=args.threads)
        tk, tp = target_cell(dims, scene.targets[0])
        comments = [
            "units: *_norm_db in dB below the slice peak; *_power linear",
            f"provenance: expected closed-form (dirichlet kernel); empirical trials={trials} seed={args.seed}",
            f"constellation: uniform {c.order}-{c.family.value}; filter={f.kind.value}; snr_in_db={v['snr_in_db']}",
            f"dims: N={dims.n_subcarriers} M={dims.n_symbols}; target=({delay_bin},{doppler_bin})",
        ]
        ks, ps = np.arange(dims.n_subcarriers), np.arange(dims.n_symbols)
        for axis, k, p, empirical in (
            ("delay", ks, np.full(ks.shape, float(tp)), mean_map[:, tp]),
            ("doppler", np.full(ps.shape, float(tk)), ps, mean_map[tk, :]),
        ):
            expected = expected_dd_power(k, p, (delay_bin, doppler_bin), c, f, dims, gain_var, noise_var)
            path = _write_table(
                args.out / f"profile_{axis}_{dims.n_subcarriers}x{dims.n_symbols}", args.format, comments,
                [f"{axis}_bin", "expected_norm_db", "empirical_norm_db", "expected_power", "empirical_power"],
                _profile_rows(expected, empirical),
            )
            print(f"wrote {path}")
    return 0


_QUADRATURE_PROVENANCE = f"bank=gauss-hermite {BANK_NODES}x{BANK_NODES} air=gauss-hermite {GH_NODES}x{GH_NODES}"


def _cmd_pcs(args, v: dict) -> int:
    c_lo, c_hi = v["bounds"]
    pcfg = _problem(v, c_lo + v["c0_fraction"] * (c_hi - c_lo) if v["c0"] is None else v["c0"])
    try:
        sol = mba_solve(pcfg)
    except SolverError as exc:
        path = args.out / "pcs_error.json"
        _write_json(path, {"error": str(exc), "diagnostics": exc.diagnostics})
        print(f"solver failed: {exc} (diagnostics in {path})", file=sys.stderr)
        return 1
    shaped = make_shaped(pcfg.family, pcfg.order, sol.probs)
    codebook_path = args.out / "codebook.json"
    save_codebook(codebook_path, shaped, snr_in=pcfg.gain_var / pcfg.noise_var, filter_kind=pcfg.filt.kind.value,
                  c0=sol.c0_effective, provenance=f"mba_solve iters={sol.outer_iters} converged={sol.converged} "
                  f"air_bits={sol.air_bits:.6f} sensing_mse={sol.sensing_mse:.6g} {_QUADRATURE_PROVENANCE}")
    trace_path = _write_table(args.out / "pcs_trace", args.format, [
        "units: objective_nats in nats; mse linear power; power linear",
        f"provenance: solver trace; {_QUADRATURE_PROVENANCE}",
        f"problem: {pcfg.order}-{pcfg.family.value} filter={pcfg.filt.kind.value} "
        f"snr_in={pcfg.gain_var / pcfg.noise_var:g} c0={pcfg.c0:g}",
    ], ["iter", "objective_nats", "mse", "power", "lambda1", "lambda2"], sol.trace_rows)
    print(f"{'solved' if sol.converged else 'not converged'}: air={sol.air_bits:.4f} bits, "
          f"mse={sol.sensing_mse:.6g} (budget {sol.c0_effective:.6g}), iters={sol.outer_iters}")
    print(f"wrote {codebook_path} and {trace_path}")
    return 0 if sol.converged else 3  # artifacts written; solver hit max_outer_iters


def _cmd_tradeoff(args, v: dict) -> int:
    grid, cfar, det_trials = v["grid"], v["cfar"], v["detection.trials"]
    pcfg = _problem(v, grid[0])  # tradeoff_sweep sets each solve's own budget
    sweep = tradeoff_sweep(pcfg, grid)
    solved = {i: sol for i, (_, sol) in enumerate(sweep) if not isinstance(sol, SolverError)}
    shaped = {i: make_shaped(pcfg.family, pcfg.order, sol.probs) for i, sol in solved.items()}
    # one call, so every budget's pd comes from the same trial set
    pds = detection_probability(
        pcfg.dims, v["scene"], list(shaped.values()), pcfg.filt, cfar, det_trials, args.seed, threads=args.threads
    ) if shaped else ()
    pd_of = dict(zip(shaped, pds))
    rows, unconverged = [], sum(not sol.converged for sol in solved.values())
    for i, (c0, sol) in enumerate(sweep):
        if i not in solved:
            rows.append((c0, math.nan, math.nan, math.nan, str(sol)))
            continue
        pd, status = pd_of[i], "" if sol.converged else f"not converged after {sol.outer_iters} iterations"
        rows.append((c0, sol.air_bits, sol.sensing_mse, pd, status))
        save_codebook(args.out / f"codebook_{i:02d}.json", shaped[i], snr_in=pcfg.gain_var / pcfg.noise_var,
                      filter_kind=pcfg.filt.kind.value, c0=sol.c0_effective,
                      provenance=f"tradeoff point {i}: air_bits={sol.air_bits:.6f}")
    path = _write_table(args.out / "tradeoff", args.format, [
        "units: c0 and sensing_mse linear power; air_bits bits/symbol; pd probability",
        f"provenance: empirical pd trials={det_trials} seed={args.seed}; "
        f"cfar guard={cfar.guard_cells} train={cfar.train_cells} pfa={cfar.pfa:g}",
        f"problem: {pcfg.order}-{pcfg.family.value} filter={pcfg.filt.kind.value} "
        f"snr_in={pcfg.gain_var / pcfg.noise_var:g}",
    ], ["c0", "air_bits", "sensing_mse", "pd", "error"], rows)
    print(f"wrote {path}")
    if unconverged:
        print(f"not converged: {unconverged} of {len(sweep)} budgets (see the error column)")
        return 3  # artifacts written; some solves hit max_outer_iters
    return 0


def _cmd_codebook(args, v: dict) -> int:
    path = args.out / "codebook.json"
    provenance = "uniform" if v["probs_file"] is None else f"probs from {v['probs_file']}"
    save_codebook(path, v["codebook"], provenance=provenance)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdm-isac", description="OFDM ISAC sensing-metric and constellation-shaping experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "verify": (_cmd_verify, "run the identity and invariant self-checks"),
        "dr-sweep": (_cmd_dr_sweep, "closed-form dynamic range vs input SNR sweep"),
        "profiles": (_cmd_profiles, "expected and empirical delay/Doppler profiles"),
        "pcs": (_cmd_pcs, "solve one shaping problem and export the codebook"),
        "tradeoff": (_cmd_tradeoff, "budget sweep with detection probability per point"),
        "codebook": (_cmd_codebook, "export a codebook JSON for a constellation"),
    }
    for name, (func, help_text) in handlers.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=0, help="seed of every Monte Carlo draw (>= 0)")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        sp.add_argument("--threads", type=int, default=1, help="threads, the caller's included (>= 1)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be an integer >= 1, got {args.threads}")
    if args.seed < 0:
        parser.error(f"argument --seed: must be an integer >= 0, got {args.seed}")
    try:
        values = _resolve(args.command, _load_config(args.config))
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    return args.func(args, values)


if __name__ == "__main__":
    sys.exit(main())
