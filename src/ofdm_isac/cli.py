"""Reproducible experiment runner.

Subcommands: verify | dr-sweep | profiles | pcs | tradeoff | codebook.
Every command reads an optional JSON config, takes an explicit master seed
(never the wall clock), and writes CSV/JSON artifacts whose bytes depend only
on (config, seed). CSV files start with '#' provenance lines naming units,
provenance (closed-form vs empirical), trials, and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .air import GH_NODES, AirConfig
from .channel import FrameDims, Scene, Target
from .constellation import Family, ShapedConstellation, make_shaped, make_uniform, save_codebook
from .detection import CfarConfig, cfar_thresholds, default_tradeoff_scene, detection_cell, detection_probability
from .filtering import MF, RF, FilterKind, wiener
from .metrics import closed_form_metrics, empirical_dd_profile, expected_dd_power
from .pcs import PcsConfig, SolverError, c0_bounds, mba_solve, tradeoff_sweep
from .verification import run_verification

_MISSING = object()


class ConfigError(Exception):
    """Malformed or missing configuration field; message carries the field path."""


def _cfg_get(cfg: dict, path: str, default=_MISSING, cast=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"missing config field '{path}'")
            return default
        node = node[part]
    if cast is not None:
        try:
            return cast(node)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config field '{path}': {exc}") from exc
    return node


@contextlib.contextmanager
def _rejected_as(path: str):
    """Report a value the library rejects while a config is built as a bad ``path`` field."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"bad config field '{path}': {exc}") from exc


def _count(value) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _positive(value) -> float:
    x = float(value)
    if not x > 0:  # also rejects nan
        raise ValueError(f"must be > 0, got {x}")
    return x


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _level_db(value) -> float:
    """A power level in dB whose linear value and its reciprocal are finite and > 0."""
    db = float(value)
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not (0.0 < linear < math.inf and 1.0 / linear < math.inf):  # also rejects nan
        raise ValueError(f"must be a dB level whose linear power and its reciprocal are finite and > 0, got {db}")
    return db


def _threads(text: str) -> int:
    try:
        return _count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from exc


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


def _dims(cfg: dict, default=(64, 32)) -> FrameDims:
    with _rejected_as("dims"):
        return FrameDims(_cfg_get(cfg, "dims.N", default[0], int), _cfg_get(cfg, "dims.M", default[1], int))


def _alphabet(cfg: dict) -> ShapedConstellation:
    """The uniform constellation named by the ``family`` and ``order`` fields."""
    family = _cfg_get(cfg, "family", Family.QAM, Family)
    order = _cfg_get(cfg, "order", 64, int)
    with _rejected_as("order"):
        return make_uniform(family, order)


def _filter_kind(name: str, snr_in: float) -> FilterKind:
    name = name.lower()
    if name == "mf":
        return MF
    if name == "rf":
        return RF
    if name == "wf":
        return wiener(snr_in)
    raise ConfigError(f"bad config field 'filter': unknown kind {name!r}")


def _master_seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    return _cfg_get(cfg, "master_seed", 0, int)


def _derived_seeds(master: int, count: int = 8) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(master).generate_state(count)]


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
        payload = {"meta": comments, "columns": columns, "rows": [list(r) for r in rows]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return path


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


# ---------------------------------------------------------------- commands


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    order = _cfg_get(cfg, "order", 64, int)
    with _rejected_as("order"):
        make_uniform(Family.QAM, order)  # verify runs QAM and PSK of this order; QAM's are the stricter
    checks = run_verification(
        dims=_dims(cfg),
        order=order,
        snr_in_db=_cfg_get(cfg, "snr_in_db", 4.0, _level_db),
        trials=_cfg_get(cfg, "trials", 10_000, _count),
        seed=_master_seed(cfg, args),
        threads=args.threads,
    )
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: residual={check.residual:.3e} tol={check.tolerance:.1e}")
    report = {"all_pass": all(c.passed for c in checks), "checks": [c.as_dict() for c in checks]}
    path = args.out / "verify_report.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {path}")
    return 0 if report["all_pass"] else 1


def _cmd_dr_sweep(args) -> int:
    cfg = _load_config(args.config)
    c = _alphabet(cfg)
    dims = _dims(cfg)
    gain_var = _cfg_get(cfg, "gain_var", 1.0, _positive)
    start = _cfg_get(cfg, "snr_db_start", -10.0, _level_db)
    stop = _cfg_get(cfg, "snr_db_stop", 30.0, _level_db)
    step = _cfg_get(cfg, "snr_db_step", 0.25, _finite)
    if step <= 0:
        raise ConfigError("bad config field 'snr_db_step': must be > 0")
    rows = []
    db = start
    while db <= stop + 1e-9:
        snr = 10.0 ** (db / 10.0)
        noise_var = gain_var / snr
        drs = [
            closed_form_metrics(c, f, dims, gain_var, noise_var).dr
            for f in (MF, RF, wiener(snr))
        ]
        rows.append((round(db, 10), snr, *drs, *(_db(v) for v in drs)))
        db += step
    path = _write_table(
        args.out / "dr_sweep",
        args.format,
        [
            "units: snr_in_db and dr_*_db in dB; snr_in_linear and dr_* linear power ratios",
            "provenance: closed-form",
            f"constellation: uniform {c.order}-{c.family.value}",
            f"dims: N={dims.n_subcarriers} M={dims.n_symbols}",
        ],
        ["snr_in_db", "snr_in_linear", "dr_mf", "dr_rf", "dr_wf", "dr_mf_db", "dr_rf_db", "dr_wf_db"],
        rows,
    )
    print(f"wrote {path}")
    return 0


def _profile_rows(expected: np.ndarray, empirical: np.ndarray):
    e_peak = expected.max()
    m_peak = empirical.max()
    return [
        (
            k,
            _db(expected[k] / e_peak),
            _db(empirical[k] / m_peak),
            expected[k],
            empirical[k],
        )
        for k in range(len(expected))
    ]


def _cmd_profiles(args) -> int:
    cfg = _load_config(args.config)
    c = _alphabet(cfg)
    snr_db = _cfg_get(cfg, "snr_in_db", 4.0, _level_db)
    gain_var = _cfg_get(cfg, "gain_var", 1.0, _positive)
    trials = _cfg_get(cfg, "trials", 2000, _count)
    kernel = _cfg_get(cfg, "kernel", "dirichlet", str)
    snr = 10.0 ** (snr_db / 10.0)
    noise_var = gain_var / snr
    f = _filter_kind(_cfg_get(cfg, "filter", "mf", str), snr)
    delay_bin = _cfg_get(cfg, "target.delay_bin", 0.0, float)
    doppler_bin = _cfg_get(cfg, "target.doppler_bin", 0.0, float)
    with _rejected_as("dims_list"):
        dims_list = [FrameDims(int(n), int(m)) for n, m in _cfg_get(cfg, "dims_list", [[16, 16], [64, 32]])]
    seed = _derived_seeds(_master_seed(cfg, args))[0]
    for dims in dims_list:
        scene = Scene((Target(gain_var, delay_bin, doppler_bin),), noise_var)
        mean_map = empirical_dd_profile(c, f, dims, scene, trials, seed, threads=args.threads)
        tk = int(round(delay_bin)) % dims.n_subcarriers
        tp = int(round(doppler_bin)) % dims.n_symbols
        comments = [
            "units: *_norm_db in dB below the slice peak; *_power linear",
            f"provenance: expected closed-form ({kernel} kernel); empirical trials={trials} seed={seed}",
            f"constellation: uniform {c.order}-{c.family.value}; filter={f.kind.value}; snr_in_db={snr_db}",
            f"dims: N={dims.n_subcarriers} M={dims.n_symbols}; target=({delay_bin},{doppler_bin})",
        ]
        ks, ps = np.arange(dims.n_subcarriers), np.arange(dims.n_symbols)
        for axis, k, p, empirical in (
            ("delay", ks, np.full(ks.shape, float(tp)), mean_map[:, tp]),
            ("doppler", np.full(ps.shape, float(tk)), ps, mean_map[tk, :]),
        ):
            expected = expected_dd_power(k, p, (delay_bin, doppler_bin), c, f, dims, gain_var, noise_var, kernel)
            path = _write_table(
                args.out / f"profile_{axis}_{dims.n_subcarriers}x{dims.n_symbols}",
                args.format,
                comments,
                [f"{axis}_bin", "expected_norm_db", "empirical_norm_db", "expected_power", "empirical_power"],
                _profile_rows(expected, empirical),
            )
            print(f"wrote {path}")
    return 0


def _pcs_config(cfg: dict, args) -> PcsConfig:
    uniform = _alphabet(cfg)
    family, order = uniform.family, uniform.order
    dims = _dims(cfg)
    gain_var = _cfg_get(cfg, "gain_var", 1.0, _positive)
    snr_db = _cfg_get(cfg, "snr_in_db", 4.0, _level_db)
    snr = 10.0 ** (snr_db / 10.0)
    noise_var = gain_var / snr
    filt = _filter_kind(_cfg_get(cfg, "filter", "wf", str), snr)
    if _cfg_get(cfg, "comm.mc_samples", None) is not None:
        warnings.warn(
            "config field 'comm.mc_samples' is not used: the solver's AIR is by Gauss-Hermite quadrature",
            stacklevel=2,
        )
    comm = AirConfig(
        comm_noise_var=_cfg_get(cfg, "comm.noise_var", 0.1, _positive),
        channel_gain=complex(
            _cfg_get(cfg, "comm.channel_gain_re", 1.0, float),
            _cfg_get(cfg, "comm.channel_gain_im", 0.0, float),
        ),
    )
    c_lo, c_hi = c0_bounds(order, filt, dims, gain_var, noise_var, family)
    c0 = _cfg_get(cfg, "c0", None, float)
    if c0 is None:
        fraction = _cfg_get(cfg, "c0_fraction", 1.0, float)
        c0 = c_lo + fraction * (c_hi - c_lo)
    return PcsConfig(
        family=family,
        order=order,
        filt=filt,
        dims=dims,
        gain_var=gain_var,
        noise_var=noise_var,
        comm=comm,
        c0=c0,
        tol=_cfg_get(cfg, "tol", 1e-5, _positive),
        max_outer_iters=_cfg_get(cfg, "max_outer_iters", 500, _count),
        bank_samples_per_point=_cfg_get(cfg, "bank_samples_per_point", 200, _count),
        bank_seed=_derived_seeds(_master_seed(cfg, args))[1],
    )


_AIR_PROVENANCE = f"air=gauss-hermite {GH_NODES}x{GH_NODES}"


def _trace_comments(cfg: PcsConfig) -> list[str]:
    return [
        "units: objective_nats in nats; mse linear power; power linear",
        f"provenance: solver trace; bank_samples_per_point={cfg.bank_samples_per_point} "
        f"bank_seed={cfg.bank_seed} {_AIR_PROVENANCE}",
        f"problem: {cfg.order}-{Family(cfg.family).value} filter={cfg.filt.kind.value} "
        f"snr_in={cfg.gain_var / cfg.noise_var:g} c0={cfg.c0:g}",
    ]


def _cmd_pcs(args) -> int:
    cfg = _load_config(args.config)
    pcfg = _pcs_config(cfg, args)
    try:
        sol = mba_solve(pcfg)
    except SolverError as exc:
        path = args.out / "pcs_error.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"error": str(exc), "diagnostics": exc.diagnostics}, fh, indent=2)
        print(f"solver failed: {exc} (diagnostics in {path})", file=sys.stderr)
        return 1
    shaped = make_shaped(pcfg.family, pcfg.order, sol.probs)
    codebook_path = args.out / "codebook.json"
    save_codebook(
        codebook_path,
        shaped,
        snr_in=pcfg.gain_var / pcfg.noise_var,
        filter_kind=pcfg.filt.kind.value,
        c0=sol.c0_effective,
        provenance=(
            f"mba_solve iters={sol.outer_iters} converged={sol.converged} "
            f"air_bits={sol.air_bits:.6f} sensing_mse={sol.sensing_mse:.6g} "
            f"bank_seed={pcfg.bank_seed} {_AIR_PROVENANCE}"
        ),
    )
    trace_path = _write_table(
        args.out / "pcs_trace",
        args.format,
        _trace_comments(pcfg),
        ["iter", "objective_nats", "mse", "power", "lambda1", "lambda2"],
        sol.trace_rows,
    )
    print(
        f"{'solved' if sol.converged else 'not converged'}: air={sol.air_bits:.4f} bits, "
        f"mse={sol.sensing_mse:.6g} (budget {sol.c0_effective:.6g}), iters={sol.outer_iters}"
    )
    print(f"wrote {codebook_path} and {trace_path}")
    return 0 if sol.converged else 3  # artifacts written; solver hit max_outer_iters


def _cmd_tradeoff(args) -> int:
    cfg = _load_config(args.config)
    pcfg = _pcs_config(cfg, args)
    c_lo, c_hi = c0_bounds(
        pcfg.order, pcfg.filt, pcfg.dims, pcfg.gain_var, pcfg.noise_var, pcfg.family
    )
    grid = _cfg_get(cfg, "c0_grid", None)
    if grid is None:
        n_points = _cfg_get(cfg, "n_grid", 8, _count)
        grid = np.linspace(c_lo, c_hi, n_points).tolist()
    elif not (isinstance(grid, list) and grid and all(isinstance(v, (int, float)) for v in grid)):
        raise ConfigError("bad config field 'c0_grid': must be a non-empty list of budgets")
    guard = _cfg_get(cfg, "detection.cfar.guard", 2, int)
    train = _cfg_get(cfg, "detection.cfar.train", 16, int)
    pfa = _cfg_get(cfg, "detection.cfar.pfa", 1e-4, float)
    with _rejected_as("detection.cfar"):
        cfar = CfarConfig(guard_cells=guard, train_cells=train, pfa=pfa)
        cfar_thresholds(np.zeros(pcfg.dims.n_subcarriers), cfar)  # the delay profile must outspan the window
    det_trials = _cfg_get(cfg, "detection.trials", 500, _count)
    scene = default_tradeoff_scene(
        pcfg.noise_var,
        weak_delay_bin=_cfg_get(cfg, "detection.weak_delay_bin", 5, int),
        weak_rel_power_db=_cfg_get(cfg, "detection.weak_rel_power_db", -15.0, _level_db),
    )
    with _rejected_as("detection.weak_delay_bin"):
        detection_cell(pcfg.dims, scene)  # checked before the solves, not after them
    det_seed = _derived_seeds(_master_seed(cfg, args))[3]
    points = tradeoff_sweep(pcfg, grid)
    shaped = {i: make_shaped(pcfg.family, pcfg.order, pt.probs) for i, pt in enumerate(points) if pt.error is None}
    # one call, so every budget's pd comes from the same trial set
    pds = detection_probability(
        pcfg.dims, scene, list(shaped.values()), pcfg.filt, cfar, det_trials, det_seed, threads=args.threads
    ) if shaped else ()
    pd_of = dict(zip(shaped, pds))
    rows = []
    unconverged = 0
    for i, pt in enumerate(points):
        if pt.error is not None:
            rows.append((pt.c0, math.nan, math.nan, math.nan, pt.error))
            continue
        status = ""
        if not pt.converged:
            unconverged += 1
            status = f"not converged after {pt.outer_iters} iterations"
        pd = pd_of[i]
        rows.append((pt.c0, pt.air_bits, pt.sensing_mse, pd, status))
        save_codebook(
            args.out / f"codebook_{i:02d}.json",
            shaped[i],
            snr_in=pcfg.gain_var / pcfg.noise_var,
            filter_kind=pcfg.filt.kind.value,
            c0=pt.c0,
            provenance=f"tradeoff point {i}: air_bits={pt.air_bits:.6f} pd={pd:.4f}",
        )
    path = _write_table(
        args.out / "tradeoff",
        args.format,
        [
            "units: c0 and sensing_mse linear power; air_bits bits/symbol; pd probability",
            f"provenance: empirical pd trials={det_trials} seed={det_seed}; "
            f"cfar guard={cfar.guard_cells} train={cfar.train_cells} pfa={cfar.pfa:g}",
            f"problem: {pcfg.order}-{Family(pcfg.family).value} filter={pcfg.filt.kind.value} "
            f"snr_in={pcfg.gain_var / pcfg.noise_var:g}",
        ],
        ["c0", "air_bits", "sensing_mse", "pd", "error"],
        rows,
    )
    print(f"wrote {path}")
    if unconverged:
        print(f"not converged: {unconverged} of {len(points)} budgets (see the error column)")
        return 3  # artifacts written; some solves hit max_outer_iters
    return 0


def _cmd_codebook(args) -> int:
    cfg = _load_config(args.config)
    c = _alphabet(cfg)
    probs_file = _cfg_get(cfg, "probs_file", None)
    if probs_file is not None:
        with open(probs_file, encoding="utf-8") as fh:
            probs = json.load(fh)
        with _rejected_as("probs_file"):
            c = make_shaped(c.family, c.order, probs)
        provenance = f"probs from {probs_file}"
    else:
        provenance = "uniform"
    path = args.out / "codebook.json"
    save_codebook(path, c, provenance=provenance)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdm-isac",
        description="OFDM ISAC sensing-metric and constellation-shaping experiments",
    )
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
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        sp.add_argument("--threads", type=_threads, default=1, help="worker thread cap (>= 1)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
