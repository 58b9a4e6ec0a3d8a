"""Workload definitions: the configs each workload generates from its seed,
the CLI commands it runs, and the output checks on what those commands write.

The checks use only this file's own arithmetic (QAM enumeration, closed-form
filter moments, a linear program for the budget floor and a Gauss-Hermite
mutual-information estimate), never the package under test, and none of them
depends on the random stream: a change that redraws symbols or noise
differently must still pass them.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

WORKLOADS = ("sensing", "shaping", "tradeoff")

# Shared problem: uniform or shaped 64-QAM, 64x32 frame, 4 dB input SNR.
ORDER = 64
DIMS = (64, 32)
SNR_DB = 4.0
COMM_NOISE_VAR = 0.02
MC_SAMPLES = 200_000

# sensing: verify runs 3 filters x VERIFY_TRIALS frames, the CLI default: its
# Monte Carlo mse_relation tolerance (2 %) is set for that many trials, and
# at 1024 trials the MF residual reaches 2-5 % on some seeds.  profiles runs
# PROFILE_TRIALS frames at each of PROFILE_DIMS; the 256-frame batch is about
# 1 MiB per complex array at 16x16 and 8 MiB at 64x32, on either side of a
# 2 MiB L2.
VERIFY_TRIALS = 10_000
PROFILE_TRIALS = 2048
PROFILE_DIMS = ((16, 16), (64, 32))

# shaping: independent solves, one master seed each.
SHAPING_SOLVES = tuple((f, frac) for f in ("wf", "rf") for frac in (0.2, 0.5, 0.8))

# tradeoff: the CLI's default n_grid=8 WF sweep, detection at this many trials.
N_GRID = 8
TRADEOFF_THREADS = 2
DETECTION_TRIALS = 2048

# Output-check tolerances.
PEDESTAL_REL_TOL = 0.05  # far-region mean power against the closed form
CROSSOVER_DB_TOL = 0.05  # MF/RF crossing read off the 0.25 dB sweep grid
AIR_BITS_TOL = 0.01  # 200k-sample Monte Carlo AIR against Gauss-Hermite (sd ~0.0015)
AIR_MONOTONE_TOL = 0.003  # AIR may not fall by more than this as the budget loosens
POWER_TOL = 1e-8
BUDGET_REL_TOL = 1e-9
CLAMP_MARGIN = 1e-3  # the solver clamps a too-tight budget to floor * (1 + 1e-3)
GH_NODES = 16


@dataclass
class Command:
    """One CLI invocation and what it is expected to write."""

    name: str
    argv: list[str]
    out: Path
    config: dict
    threads: int
    # Work items behind items_per_s: Monte Carlo frames for verify and
    # profiles, one per pcs solve, one per budget point for tradeoff.
    items: int


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_commands(workload: str, seed: int, workdir: Path, nproc: int) -> list[Command]:
    """Write the workload's configs under ``workdir`` and return its commands in order."""
    workdir.mkdir(parents=True, exist_ok=True)
    commands: list[Command] = []

    def add(name, config, cmd_seed, threads, items):
        index = len(commands)
        cfg_path = workdir / f"{index:02d}_{name}.json"
        cfg_path.write_text(json.dumps(config, indent=1))
        out = workdir / f"{index:02d}_{name}"
        argv = [name, "--config", str(cfg_path), "--seed", str(cmd_seed),
                "--out", str(out), "--threads", str(threads)]
        commands.append(Command(name, argv, out, config, threads, items))

    if workload == "sensing":
        rng = random.Random(seed)
        target = {"delay_bin": rng.randrange(16), "doppler_bin": rng.randrange(16)}
        add("dr-sweep", {"family": "qam", "order": ORDER, "dims": {"N": DIMS[0], "M": DIMS[1]},
                         "snr_db_start": -10.0, "snr_db_stop": 30.0, "snr_db_step": 0.25}, seed, 1, 0)
        add("verify", {"order": ORDER, "snr_in_db": SNR_DB, "dims": {"N": DIMS[0], "M": DIMS[1]},
                       "trials": VERIFY_TRIALS}, seed, 1, 3 * VERIFY_TRIALS)
        add("profiles", _profiles_config(PROFILE_TRIALS, target), seed, 1,
            len(PROFILE_DIMS) * PROFILE_TRIALS)
    elif workload == "shaping":
        for (filt, frac), solve_seed in zip(SHAPING_SOLVES, derived_seeds(seed, len(SHAPING_SOLVES))):
            add("pcs", _pcs_config(filt, c0_fraction=frac), solve_seed, 1, 1)
    elif workload == "tradeoff":
        cfg = _pcs_config("wf")
        cfg["detection"] = {"weak_delay_bin": 5, "weak_rel_power_db": -15.0,
                            "trials": DETECTION_TRIALS,
                            "cfar": {"guard": 2, "train": 16, "pfa": 1e-4}}
        add("tradeoff", cfg, seed, min(TRADEOFF_THREADS, nproc), N_GRID)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return commands


def invariance_commands(workload: str, seed: int, workdir: Path) -> list[tuple[str, dict, str]]:
    """Reduced runs whose artifacts must be byte-identical at --threads 1 and 2.

    Returns (command, config, seed) triples; empty where the workload's
    commands take no thread count that matters.
    """
    if workload == "sensing":
        return [("profiles", _profiles_config(512, {"delay_bin": 1, "doppler_bin": 2}), str(seed))]
    if workload == "tradeoff":
        cfg = _pcs_config("wf")
        cfg.update({"n_grid": 2, "bank_samples_per_point": 50})
        cfg["comm"]["mc_samples"] = 20_000
        cfg["detection"] = {"trials": 384}
        return [("tradeoff", cfg, str(seed))]
    return []


def _profiles_config(trials: int, target: dict) -> dict:
    return {"family": "qam", "order": ORDER, "filter": "wf", "snr_in_db": SNR_DB,
            "dims_list": [list(d) for d in PROFILE_DIMS], "trials": trials, "target": target}


def _pcs_config(filt: str, **extra) -> dict:
    cfg = {"family": "qam", "order": ORDER, "filter": filt, "dims": {"N": DIMS[0], "M": DIMS[1]},
           "snr_in_db": SNR_DB, "comm": {"noise_var": COMM_NOISE_VAR, "mc_samples": MC_SAMPLES},
           "bank_samples_per_point": 200, "tol": 1e-5, "max_outer_iters": 500}
    cfg.update(extra)
    return cfg


# ------------------------------------------------------------ reference math


def qam_points(order: int) -> np.ndarray:
    """Square QAM grid in the package's point order, scaled to unit mean power."""
    side = math.isqrt(order)
    levels = 2 * np.arange(side) - (side - 1)
    re, im = np.meshgrid(levels, levels, indexing="ij")
    grid = (re + 1j * im).reshape(-1).astype(np.complex128)
    return grid / math.sqrt(np.mean(np.abs(grid) ** 2))


def psk_points(order: int) -> np.ndarray:
    return np.exp(2j * np.pi * (np.arange(order) + 0.5) / order)


def filter_moments(points: np.ndarray, probs: np.ndarray, filt: str, snr: float) -> dict:
    """Var chi, E (chi-1)^2 and E|g|^2 of the entrywise filter on an alphabet."""
    sq = np.abs(points) ** 2
    if filt == "mf":
        chi, g_sq = sq, sq
    elif filt == "rf":
        chi, g_sq = np.ones_like(sq), 1.0 / sq
    else:
        chi, g_sq = sq / (sq + 1.0 / snr), sq / (sq + 1.0 / snr) ** 2
    mean_chi = float(probs @ chi)
    return {
        "var_chi": float(probs @ (chi - mean_chi) ** 2),
        "err_sq": float(probs @ (chi - 1.0) ** 2),
        "g_sq": float(probs @ g_sq),
    }


def closed_form_mse(points, probs, filt, snr, nm) -> float:
    """NM (gain_var E(chi-1)^2 + noise_var E|g|^2) with gain_var = 1."""
    m = filter_moments(points, probs, filt, snr)
    return nm * (m["err_sq"] + m["g_sq"] / snr)


def normalized_penalty(points: np.ndarray, filt: str, snr: float) -> np.ndarray:
    """Per-point sensing-MSE penalty divided by NM * noise_var (WF or RF)."""
    sq = np.abs(points) ** 2
    return 1.0 / sq if filt == "rf" else 1.0 / (sq + 1.0 / snr)


def shaped_mse(probs: np.ndarray, filt: str, snr: float, nm: int) -> float:
    """Sensing MSE of a distribution on the unit-power QAM grid (gain_var = 1)."""
    return nm / snr * float(probs @ normalized_penalty(qam_points(ORDER), filt, snr))


def budget_floor(filt: str, snr: float, nm: int) -> float:
    """Least sensing MSE any distribution on the QAM grid reaches at unit power (LP)."""
    pts = qam_points(ORDER)
    pen = normalized_penalty(pts, filt, snr)
    res = linprog(pen, A_eq=np.vstack([np.ones(ORDER), np.abs(pts) ** 2]), b_eq=[1.0, 1.0],
                  bounds=[(0, None)] * ORDER, method="highs")
    if not res.success:
        raise RuntimeError(f"budget-floor LP failed: {res.message}")
    return nm * (1.0 / snr) * float(res.fun)


def gauss_hermite_air(probs: np.ndarray, noise_var: float, nodes: int = GH_NODES) -> float:
    """Mutual information in bits of shaped 64-QAM over CN(0, noise_var), by product quadrature."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    noise = math.sqrt(noise_var) * (t[:, None] + 1j * t[None, :]).reshape(-1)
    weights = (w[:, None] * w[None, :]).reshape(-1) / math.pi
    keep = probs > 0
    p = probs[keep]
    pts = qam_points(ORDER)
    pts = pts / math.sqrt(float(probs @ np.abs(pts) ** 2))
    centers = pts[keep]
    y = centers[:, None] + noise[None, :]
    lse = logsumexp(np.log(p)[None, None, :]
                    - np.abs(y[:, :, None] - centers[None, None, :]) ** 2 / noise_var, axis=2)
    return (-float(p @ (lse @ weights)) - 1.0) / math.log(2.0)


def entropy_bits(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(-(p * np.log2(p)).sum())


# ------------------------------------------------------------ output checks


def read_table(path: Path) -> dict[str, list[float]]:
    """Columns of a CLI CSV artifact ('#' provenance lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    return {name: [r[i] if name == "error" else float(r[i]) for r in body]
            for i, name in enumerate(header)}


def check_output(cmd: Command) -> list[str]:
    """Return the failed output checks of one finished command (empty when all hold)."""
    try:
        return {"dr-sweep": _check_dr_sweep, "verify": _check_verify, "profiles": _check_profiles,
                "pcs": _check_pcs, "tradeoff": _check_tradeoff}[cmd.name](cmd)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{cmd.name}: unreadable output ({type(exc).__name__}: {exc})"]


def _check_dr_sweep(cmd: Command) -> list[str]:
    t = read_table(cmd.out / "dr_sweep.csv")
    diff = np.array(t["dr_mf_db"]) - np.array(t["dr_rf_db"])
    snr_db = np.array(t["snr_in_db"])
    cross = np.flatnonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    if cross.size != 1:
        return [f"dr-sweep: expected one MF/RF crossing, found {cross.size}"]
    i = int(cross[0])
    got = snr_db[i] + (snr_db[i + 1] - snr_db[i]) * diff[i] / (diff[i] - diff[i + 1])
    sq = np.abs(qam_points(ORDER)) ** 2
    want = 10.0 * math.log10((np.mean(1.0 / sq) - 1.0) / (np.mean(sq**2) - 1.0))
    if abs(got - want) > CROSSOVER_DB_TOL:
        return [f"dr-sweep: MF/RF crossing at {got:.3f} dB, closed form {want:.3f} dB"]
    return []


def _check_verify(cmd: Command) -> list[str]:
    report = json.loads((cmd.out / "verify_report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if not report["all_pass"] or failed:
        return [f"verify: all_pass={report['all_pass']} failed={failed}"]
    return []


def _check_profiles(cmd: Command) -> list[str]:
    cfg = cmd.config
    snr = 10.0 ** (cfg["snr_in_db"] / 10.0)
    pts = qam_points(ORDER)
    m = filter_moments(pts, np.full(ORDER, 1.0 / ORDER), cfg["filter"], snr)
    pedestal = m["var_chi"] + m["g_sq"] / snr  # gain_var = 1
    target = (cfg["target"]["delay_bin"], cfg["target"]["doppler_bin"])
    errors = []
    for n, mm in cfg["dims_list"]:
        for axis, label, length in ((0, "delay", n), (1, "doppler", mm)):
            t = read_table(cmd.out / f"profile_{label}_{n}x{mm}.csv")
            emp = np.array(t["empirical_power"])
            exp = np.array(t["expected_power"])
            peak = target[axis] % length
            if int(np.argmax(emp)) != peak:
                errors.append(f"profiles {n}x{mm} {label}: peak at {int(np.argmax(emp))}, target {peak}")
            dist = np.abs(np.arange(length) - peak)
            far = np.minimum(dist, length - dist) >= 4
            rel = float(emp[far].mean()) / pedestal - 1.0
            if abs(rel) > PEDESTAL_REL_TOL:
                errors.append(f"profiles {n}x{mm} {label}: far pedestal off the closed form by {rel:+.3f}")
            if float(np.max(np.abs(exp[far] / pedestal - 1.0))) > 1e-9:
                errors.append(f"profiles {n}x{mm} {label}: expected far power is not the pedestal")
    return errors


def _read_codebook(path: Path) -> tuple[np.ndarray, dict]:
    data = json.loads(path.read_text())
    return np.array(data["probs"], dtype=np.float64), data


def _check_distribution(label, probs, filt, snr, nm, air_bits, budget) -> list[str]:
    """Simplex, unit power, MSE budget and AIR oracle for one solved distribution."""
    errors = []
    if probs.shape != (ORDER,) or np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        errors.append(f"{label}: probs are not on the simplex")
        return errors
    power = float(probs @ np.abs(qam_points(ORDER)) ** 2)
    if abs(power - 1.0) > POWER_TOL:
        errors.append(f"{label}: mean power {power:.12f} (unit power required)")
    mse = shaped_mse(probs, filt, snr, nm)
    if mse > budget * (1.0 + BUDGET_REL_TOL):
        errors.append(f"{label}: sensing_mse {mse:.6f} above budget {budget:.6f}")
    if not 0.0 <= air_bits <= entropy_bits(probs) + 1e-12:
        errors.append(f"{label}: air_bits {air_bits} outside [0, H(p)]")
    oracle = gauss_hermite_air(probs, COMM_NOISE_VAR)
    if abs(air_bits - oracle) > AIR_BITS_TOL:
        errors.append(f"{label}: air_bits {air_bits:.5f} vs Gauss-Hermite {oracle:.5f}")
    return errors


def _check_pcs(cmd: Command) -> list[str]:
    cfg = cmd.config
    snr = 10.0 ** (cfg["snr_in_db"] / 10.0)
    nm = DIMS[0] * DIMS[1]
    probs, book = _read_codebook(cmd.out / "codebook.json")
    prov = dict(item.split("=", 1) for item in book["provenance"].split() if "=" in item)
    label = f"pcs {cfg['filter']} c0_fraction={cfg['c0_fraction']}"
    errors = []
    if prov.get("converged") != "True":
        errors.append(f"{label}: not converged ({book['provenance']})")
    trace = read_table(cmd.out / "pcs_trace.csv")
    if abs(trace["power"][-1] - 1.0) > POWER_TOL:
        errors.append(f"{label}: final trace power {trace['power'][-1]}")
    errors += _check_distribution(label, probs, cfg["filter"], snr, nm,
                                  float(prov["air_bits"]), float(book["c0"]))
    return errors


def _check_tradeoff(cmd: Command) -> list[str]:
    cfg = cmd.config
    snr = 10.0 ** (cfg["snr_in_db"] / 10.0)
    nm = DIMS[0] * DIMS[1]
    filt = cfg["filter"]
    t = read_table(cmd.out / "tradeoff.csv")
    c_lo = closed_form_mse(psk_points(ORDER), np.full(ORDER, 1.0 / ORDER), filt, snr, nm)
    c_hi = closed_form_mse(qam_points(ORDER), np.full(ORDER, 1.0 / ORDER), filt, snr, nm)
    floor = budget_floor(filt, snr, nm)
    n_grid = cfg.get("n_grid", N_GRID)
    errors = []
    if len(t["c0"]) != n_grid:
        return [f"tradeoff: {len(t['c0'])} rows, expected {n_grid}"]
    if np.max(np.abs(np.array(t["c0"]) / np.linspace(c_lo, c_hi, n_grid) - 1.0)) > 1e-9:
        errors.append("tradeoff: budget grid differs from linspace(c_lo, c_hi)")
    for i, (c0, air, mse, pd, err) in enumerate(zip(t["c0"], t["air_bits"], t["sensing_mse"],
                                                      t["pd"], t["error"])):
        label = f"tradeoff row {i} (c0={c0:.2f})"
        if err:
            errors.append(f"{label}: solver error {err}")
            continue
        if not 0.0 <= pd <= 1.0:
            errors.append(f"{label}: pd {pd} outside [0, 1]")
        # A budget under the alphabet floor is clamped up to just above it.
        budget = min(max(c0, floor * (1.0 + CLAMP_MARGIN)), c_hi)
        if mse < floor * (1.0 - BUDGET_REL_TOL):
            errors.append(f"{label}: sensing_mse {mse:.6f} below the alphabet floor {floor:.6f}")
        probs, _ = _read_codebook(cmd.out / f"codebook_{i:02d}.json")
        if abs(shaped_mse(probs, filt, snr, nm) - mse) > 1e-9 * mse:
            errors.append(f"{label}: row sensing_mse does not match its codebook")
        errors += _check_distribution(label, probs, filt, snr, nm, air, budget)
    air = np.array(t["air_bits"])
    if np.any(np.diff(air) < -AIR_MONOTONE_TOL):
        errors.append(f"tradeoff: AIR decreases as the budget loosens: {np.round(air, 4).tolist()}")
    return errors
