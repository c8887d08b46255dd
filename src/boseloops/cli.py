"""Command-line front end.

Subcommands: thermo, mu-solve, rdm, profile, loops, aniso-check.  Each reads
a JSON config (--config), evaluates over the configured kappa ladder or grid
and writes a ResultTable as CSV ('#'-prefixed metadata lines, header row,
17-significant-digit floats) or JSON.  Output is deterministic: identical
configs produce byte-identical files.  Rows are computed one after another;
--threads is still accepted but has no effect.

Exit codes: 0 success, 2 config/domain error, 3 convergence error, 4 IO.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .aniso import (additional_q2d, classify, meso_q1d, meso_q1d_prediction,
                    q2d_additional_limit, q2d_chi_split)
from .errors import BoseloopsError, BracketError, DomainError
from .kernels import Isotropic, Quasi1D, Quasi2D, TrapModel, ground_energy
from .rdm import (condensate_density, loop_decompose, local_density_scaled,
                  noncondensate, rdm_loops, rdm_rescaled, scaled_density_limit)
from .specfun import PhysicalConstants, SeriesControl
from .thermo import (CanonicalTarget, Equilibrium, _nu_critical_trap,
                     gap_asymptotic, gbec_band_sum, nu_m, nu_rescaled,
                     occupation)

log = logging.getLogger("boseloops")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration parsed from a JSON document."""

    model: str
    kappas: tuple[float, ...]
    beta: float
    nu: float | None
    mu: float | None
    d: int = 3
    kappa_c: float = 1.0
    omega1: float = 1.0
    omega_perp: float = 1.0
    units: str = "natural"
    consts: PhysicalConstants = field(default=PhysicalConstants())
    ctl: SeriesControl = field(default=SeriesControl())
    extra: dict = field(default_factory=dict)


@dataclass
class ResultTable:
    """Rectangular result set: column names, row-major data, metadata.

    Divergent quantities are carried as 'divergent:<law>' string cells,
    never as floating-point infinities.
    """

    columns: list
    rows: list
    metadata: dict

    def _cell(self, v) -> str:
        if isinstance(v, float):
            if not math.isfinite(v):
                raise DomainError("non-finite value reached serialization")
            return f"{v:.17g}"
        return str(v)

    def to_csv(self) -> str:
        lines = [f"# {k} = {self._cell(v)}" for k, v in sorted(self.metadata.items())]
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise DomainError("ragged result table")
            lines.append(",".join(self._cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": {k: self._cell(v) for k, v in sorted(self.metadata.items())},
            "columns": self.columns,
            "rows": [[self._cell(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# command-specific config keys, read by the subcommands from RunConfig.extra
_EXTRA_KEYS = {"x", "y", "epsilon", "grid", "delta", "rescaled"}


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    model = doc.get("model", "isotropic")
    if model not in ("isotropic", "quasi1d", "quasi2d"):
        raise DomainError(f"unknown model '{model}'")
    if "kappa" in doc and "kappa_ladder" in doc:
        raise DomainError("give either kappa or kappa_ladder, not both")
    if "kappa_ladder" in doc:
        kappas = tuple(float(k) for k in doc["kappa_ladder"])
        if len(kappas) == 0:
            raise DomainError("kappa_ladder must be non-empty")
        if any(b >= a for a, b in zip(kappas, kappas[1:])):
            raise DomainError("kappa_ladder must be strictly decreasing")
    elif "kappa" in doc:
        kappas = (float(doc["kappa"]),)
    else:
        raise DomainError("config requires kappa or kappa_ladder")
    if ("nu" in doc) == ("mu" in doc):
        raise DomainError("exactly one of nu/mu must be given")
    beta = float(doc.get("beta", 1.0))
    nu = float(doc["nu"]) if "nu" in doc else None
    mu = float(doc["mu"]) if "mu" in doc else None
    if nu is not None and nu <= 0:
        raise DomainError("nu must be positive")
    if beta <= 0:
        raise DomainError("beta must be positive")

    units = doc.get("units", "natural")
    if units == "natural":
        consts = PhysicalConstants()
    elif isinstance(units, dict):
        consts = PhysicalConstants(float(units.get("hbar", 1.0)),
                                   float(units.get("mass", 1.0)),
                                   float(units.get("omega0", 1.0)))
        units = "explicit"
    else:
        raise DomainError("units must be 'natural' or an object")

    series = doc.get("series", {})
    if not isinstance(series, dict):
        raise DomainError("series must be an object")
    unknown = sorted(set(series) - {"rel_tol", "abs_tol", "sigma", "sigma2"})
    if unknown:
        raise DomainError(f"unknown series key(s): {', '.join(unknown)}")
    ctl = SeriesControl(
        rel_tol=float(series.get("rel_tol", 1e-10)),
        abs_tol=float(series.get("abs_tol", 1e-12)),
        sigma=float(series.get("sigma", 1.25)),
        sigma2=float(series.get("sigma2", 0.0)),
    )
    known = {"model", "kappa", "kappa_ladder", "beta", "nu", "mu", "d",
             "kappa_c", "omega1", "omega_perp", "units", "series"}
    extra = {k: v for k, v in doc.items() if k not in known}
    unknown = sorted(set(extra) - _EXTRA_KEYS)
    if unknown:
        raise DomainError(f"unknown config key(s): {', '.join(unknown)}")
    return RunConfig(model=model, kappas=kappas, beta=beta, nu=nu, mu=mu,
                     d=int(doc.get("d", 3)), kappa_c=float(doc.get("kappa_c", 1.0)),
                     omega1=float(doc.get("omega1", 1.0)),
                     omega_perp=float(doc.get("omega_perp", 1.0)),
                     units=units, consts=consts, ctl=ctl, extra=extra)


def build_trap(cfg: RunConfig, kappa: float) -> TrapModel:
    if cfg.model == "isotropic":
        return Isotropic(cfg.d, kappa, cfg.consts)
    cls = Quasi1D if cfg.model == "quasi1d" else Quasi2D
    return cls(kappa, cfg.kappa_c, cfg.omega1, cfg.omega_perp, cfg.consts)


def _base_metadata(cfg: RunConfig) -> dict:
    meta = {"software_version": __version__, "model": cfg.model,
            "units": cfg.units, "beta": cfg.beta}
    if cfg.nu is not None:
        meta["nu"] = cfg.nu
    else:
        meta["mu"] = cfg.mu
    return meta


def _point(cfg: RunConfig, key: str, dim: int) -> np.ndarray:
    raw = cfg.extra.get(key, [0.0] * dim)
    p = np.atleast_1d(np.asarray(raw, dtype=float))
    if p.shape != (dim,):
        raise DomainError(f"{key} must have dimension {dim}")
    return p


def cmd_thermo(cfg: RunConfig) -> ResultTable:
    columns = ["kappa", "mu", "gap", "nu", "occupation0", "gbec_band_sum",
               "nu_c"]
    if cfg.model == "quasi1d":
        columns.append("nu_m")
    epsilon = float(cfg.extra.get("epsilon", 0.05))

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        if cfg.nu is not None:
            eq = Equilibrium.solve(CanonicalTarget(cfg.beta, cfg.nu), trap,
                                   cfg.ctl)
            mu, nu = ground_energy(trap) - eq.gap, cfg.nu
        else:
            mu = cfg.mu
            eq = Equilibrium(cfg.beta, trap, cfg.ctl, ground_energy(trap) - mu)
            nu = nu_rescaled(eq)
        nu_c = _nu_critical_trap(cfg.beta, trap, cfg.ctl)
        row = [kappa, mu, eq.gap, nu, occupation(eq, (0,) * trap.dim),
               gbec_band_sum(eq, epsilon),
               "divergent:d1-no-critical-number" if math.isinf(nu_c) else nu_c]
        if cfg.model == "quasi1d":
            row.append(nu_m(cfg.beta, trap, cfg.ctl))
        return row

    rows = [one(kappa) for kappa in cfg.kappas]
    meta = _base_metadata(cfg)
    meta["epsilon"] = epsilon
    return ResultTable(columns, rows, meta)


def cmd_mu_solve(cfg: RunConfig) -> ResultTable:
    if cfg.nu is None:
        raise DomainError("mu-solve requires nu in the config")
    target = CanonicalTarget(cfg.beta, cfg.nu)

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        gap = Equilibrium.solve(target, trap, cfg.ctl).gap
        pred_gap = gap_asymptotic(target, trap, cfg.ctl)
        rel = abs(gap - pred_gap) / abs(pred_gap)
        return [kappa, ground_energy(trap) - gap, gap, pred_gap, rel]

    rows = [one(kappa) for kappa in cfg.kappas]
    return ResultTable(["kappa", "mu", "gap", "gap_asymptotic", "rel_deviation"],
                       rows, _base_metadata(cfg))


def cmd_rdm(cfg: RunConfig) -> ResultTable:
    if cfg.nu is None:
        raise DomainError("rdm requires nu in the config")
    target = CanonicalTarget(cfg.beta, cfg.nu)

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        x = _point(cfg, "x", trap.dim)
        y = _point(cfg, "y", trap.dim)
        eq = Equilibrium.solve(target, trap, cfg.ctl)
        return [kappa, rdm_loops(x, y, eq), rdm_rescaled(x, y, eq),
                noncondensate(x, y, eq)]

    rows = [one(kappa) for kappa in cfg.kappas]
    return ResultTable(["kappa", "rdm", "rdm_rescaled", "noncondensate"],
                       rows, _base_metadata(cfg))


def cmd_profile(cfg: RunConfig) -> ResultTable:
    if cfg.nu is None:
        raise DomainError("profile requires nu in the config")
    if cfg.model != "isotropic":
        raise DomainError("profile requires the isotropic model")
    if len(cfg.kappas) != 1:
        raise DomainError("profile runs at a single kappa")
    grid = cfg.extra.get("grid", [])
    if not isinstance(grid, list) or len(grid) == 0:
        raise DomainError("profile requires a non-empty grid")
    delta = float(cfg.extra.get("delta", 1.0))
    rescaled = bool(cfg.extra.get("rescaled", False))
    target = CanonicalTarget(cfg.beta, cfg.nu)
    trap = build_trap(cfg, cfg.kappas[0])
    eq = Equilibrium.solve(target, trap, cfg.ctl)

    def one(r) -> list:
        x = np.zeros(trap.dim)
        x[0] = float(r)
        val = local_density_scaled(x, delta, eq, rescaled)
        pred = scaled_density_limit(x, delta, target, trap.dim, cfg.consts,
                                    cfg.ctl, rescaled)
        if pred is None:
            return [float(r), val, "no-limit-claimed", "n/a"]
        if math.isinf(pred):
            return [float(r), val, "divergent:power-law-in-kappa", "n/a"]
        dev = abs(val - pred) / abs(pred) if pred != 0.0 else abs(val)
        return [float(r), val, pred, dev]

    rows = [one(r) for r in grid]
    meta = _base_metadata(cfg)
    meta.update({"kappa": cfg.kappas[0], "delta": delta,
                 "rescaled": int(rescaled)})
    return ResultTable(["x", "value", "prediction", "rel_deviation"], rows, meta)


def cmd_loops(cfg: RunConfig) -> ResultTable:
    if cfg.nu is None:
        raise DomainError("loops requires nu in the config")
    target = CanonicalTarget(cfg.beta, cfg.nu)

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        x = _point(cfg, "x", trap.dim)
        y = _point(cfg, "y", trap.dim)
        dec = loop_decompose(x, y, Equilibrium.solve(target, trap, cfg.ctl))
        scale = trap.kappa_abs ** (trap.dim / 2.0)
        pred = condensate_density(cfg.beta, cfg.nu, trap.dim,
                                  replace(cfg.consts, omega0=trap.omega0),
                                  cfg.ctl)
        macro_cut = dec.macro_cutoff
        return [kappa, dec.short_cutoff,
                macro_cut if math.isfinite(macro_cut) else "divergent:beyond-2^62",
                dec.short_sum, dec.meso_sum, dec.macro_sum, dec.total,
                scale * dec.macro_sum, pred]

    rows = [one(kappa) for kappa in cfg.kappas]
    return ResultTable(["kappa", "short_cutoff", "macro_cutoff", "short_sum",
                        "meso_sum", "macro_sum", "total",
                        "macro_rescaled", "condensate_prediction"],
                       rows, _base_metadata(cfg))


def cmd_aniso_check(cfg: RunConfig) -> ResultTable:
    if cfg.model == "isotropic":
        raise DomainError("aniso-check requires an anisotropic model")
    if cfg.nu is None:
        raise DomainError("aniso-check requires nu in the config")
    target = CanonicalTarget(cfg.beta, cfg.nu)

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        x = _point(cfg, "x", trap.dim)
        y = _point(cfg, "y", trap.dim)
        regime = classify(target, trap, cfg.ctl)
        if cfg.model == "quasi1d":
            if regime.tag == "subcritical":
                return [kappa, regime.tag, regime.eta, "n/a", "n/a", "n/a"]
            logv = meso_q1d(x, y, Equilibrium.solve(target, trap, cfg.ctl))
            pred = meso_q1d_prediction(target, trap, cfg.ctl)
            return [kappa, regime.tag, regime.eta, logv, pred.exponent,
                    pred.log_prefactor]
        eq = Equilibrium.solve(target, trap, cfg.ctl)
        add = additional_q2d(x, y, eq)
        limit = q2d_additional_limit(cfg.beta, trap)
        split = q2d_chi_split(x, y, eq)
        return [kappa, regime.tag, regime.eta, add, limit,
                split.first_half, split.second_half]

    rows = [one(kappa) for kappa in cfg.kappas]
    if cfg.model == "quasi1d":
        columns = ["kappa", "regime", "eta", "log_meso", "exponent_prediction",
                   "log_prefactor_prediction"]
    else:
        columns = ["kappa", "regime", "eta", "additional", "additional_limit",
                   "chi_split_first", "chi_split_second"]
    return ResultTable(columns, rows, _base_metadata(cfg))


_COMMANDS = {
    "thermo": cmd_thermo,
    "mu-solve": cmd_mu_solve,
    "rdm": cmd_rdm,
    "profile": cmd_profile,
    "loops": cmd_loops,
    "aniso-check": cmd_aniso_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boseloops",
        description="Loop-series thermodynamics and reduced density matrices "
                    "of harmonically trapped ideal Bose gases.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--output", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=1,
                       help="ignored: rows are computed one after another")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BOSELOOPS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            print(f"boseloops: IO error: {exc}", file=sys.stderr)
            return 4
        except json.JSONDecodeError as exc:
            print(f"boseloops: config parse error: {exc}", file=sys.stderr)
            return 2
        cfg = parse_config(doc)
        log.info("running %s over %d kappa value(s)", args.command,
                 len(cfg.kappas))
        table = _COMMANDS[args.command](cfg)
        text = table.to_csv() if args.format == "csv" else table.to_json()
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"boseloops: IO error: {exc}", file=sys.stderr)
                return 4
        return 0
    except BracketError as exc:
        print(f"boseloops: convergence error: {exc}", file=sys.stderr)
        return 3
    except (BoseloopsError, ValueError, TypeError) as exc:
        print(f"boseloops: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
