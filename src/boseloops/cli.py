"""Command-line front end.

Commands: thermo, mu-solve, rdm, profile, loops, aniso-check, the one
positional argument of a single parser; every command takes the same
options and every command but thermo needs nu.  `parse_config` alone reads
the JSON config (--config) and checks every key, even one the command
ignores.  Each command evaluates over the kappa ladder or grid and writes
a ResultTable as CSV ('#'-prefixed metadata lines, header row,
17-significant-digit floats) or JSON, byte-identical for identical
configs.  Rows are computed one after another; --threads has no effect.

Exit codes: 0 success, 2 config/domain error (also arithmetic beyond the
float range), 3 convergence error, 4 IO.
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
from .rdm import (condensate_density, divergence_law, loop_decompose,
                  local_density_scaled, rdm_columns, scaled_density_profile)
from .specfun import PhysicalConstants, SeriesControl
from .thermo import (CanonicalTarget, Equilibrium, _nu_critical_trap,
                     gap_asymptotic, gbec_band_sum, nu_m, nu_rescaled,
                     occupation)

log = logging.getLogger("boseloops")


@dataclass(frozen=True)
class RunConfig:
    """The keys of a JSON config, typed and checked by `parse_config`."""

    model: str
    kappas: tuple[float, ...]
    beta: float = 1.0
    nu: float | None = None
    mu: float | None = None
    d: int = 3
    kappa_c: float = 1.0
    omega1: float = 1.0
    omega_perp: float = 1.0
    units: str = "natural"
    consts: PhysicalConstants = field(default=PhysicalConstants())
    ctl: SeriesControl = field(default=SeriesControl())
    x: tuple[float, ...] | None = None  # None: the origin
    y: tuple[float, ...] | None = None
    epsilon: float = 0.05
    grid: tuple[float, ...] = ()
    delta: float = 1.0
    rescaled: bool = False

    @property
    def dim(self) -> int:
        """The trap's dimension: d if isotropic, else 3."""
        return self.d if self.model == "isotropic" else 3

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y as arrays; the origin where absent."""
        return tuple(np.zeros(self.dim) if p is None else np.array(p)
                     for p in (self.x, self.y))


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


_NUMBERS = ("beta", "nu", "mu", "d", "kappa_c", "omega1", "omega_perp",
            "epsilon", "delta")
_LISTS = ("x", "y", "grid")
_KEYS = {*_NUMBERS, *_LISTS, "model", "kappa", "kappa_ladder", "units",
         "series", "rescaled"}


def _invalid(key: str, expected: str, value) -> DomainError:
    return DomainError(f"{key} must be {expected}, not "
                       f"{json.dumps(value, default=str)}")


def _number(value, key: str) -> float:
    """A config value as a finite float: a number or a numeric string, but
    not a boolean, NaN or an infinity."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise _invalid(key, "a finite number", value)


def _numbers(value, key: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise _invalid(key, "a list of numbers", value)
    return tuple(_number(v, f"{key}[{i}]") for i, v in enumerate(value))


def _object(value, key: str, keys: tuple[str, ...]) -> dict:
    """The object under key, with no key outside keys and numbers only."""
    if not isinstance(value, dict):
        raise DomainError(f"{key} must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise DomainError(f"unknown {key} key(s): {', '.join(unknown)}")
    return {k: _number(v, f"{key}.{k}") for k, v in value.items()}


def parse_config(doc: dict) -> RunConfig:
    """The run configuration of a JSON document, read here and only here.
    An unknown key, a NaN or infinity or a value of the wrong type raises a
    DomainError naming the key; an absent key takes its field's default."""
    if not isinstance(doc, dict):
        raise DomainError("config must be a JSON object")
    unknown = sorted(set(doc) - _KEYS)
    if unknown:
        raise DomainError(f"unknown config key(s): {', '.join(unknown)}")
    model = doc.get("model", "isotropic")
    if model not in ("isotropic", "quasi1d", "quasi2d"):
        raise DomainError(f"unknown model '{model}'")
    if "kappa" in doc and "kappa_ladder" in doc:
        raise DomainError("give either kappa or kappa_ladder, not both")
    if "kappa_ladder" in doc:
        kappas = _numbers(doc["kappa_ladder"], "kappa_ladder")
        if len(kappas) == 0:
            raise DomainError("kappa_ladder must be non-empty")
        if any(b >= a for a, b in zip(kappas, kappas[1:])):
            raise DomainError("kappa_ladder must be strictly decreasing")
    elif "kappa" in doc:
        kappas = (_number(doc["kappa"], "kappa"),)
    else:
        raise DomainError("config requires kappa or kappa_ladder")
    if ("nu" in doc) == ("mu" in doc):
        raise DomainError("exactly one of nu/mu must be given")
    numbers = {k: _number(doc[k], k) for k in _NUMBERS if k in doc}
    d = numbers.setdefault("d", 3)
    if d not in (1, 2, 3):
        raise _invalid("d", "1, 2 or 3", doc["d"])
    numbers["d"] = int(d)
    units = doc.get("units", "natural")
    if units == "natural":
        consts = PhysicalConstants()
    elif isinstance(units, dict):
        consts = PhysicalConstants(**_object(units, "units",
                                             ("hbar", "mass", "omega0")))
        units = "explicit"
    else:
        raise DomainError("units must be 'natural' or an object")
    ctl = SeriesControl(**_object(doc.get("series", {}), "series",
                                  ("rel_tol", "sigma", "sigma2")))
    rescaled = doc.get("rescaled", False)
    if not isinstance(rescaled, bool):
        raise _invalid("rescaled", "true or false", rescaled)
    cfg = RunConfig(model, kappas, units=units, consts=consts, ctl=ctl,
                    rescaled=rescaled, **numbers,
                    **{k: _numbers(doc[k], k) for k in _LISTS if k in doc})
    if cfg.nu is not None and cfg.nu <= 0:
        raise DomainError("nu must be positive")
    if cfg.beta <= 0:
        raise DomainError("beta must be positive")
    for key, point in (("x", cfg.x), ("y", cfg.y)):
        if point is not None and len(point) != cfg.dim:
            raise DomainError(f"{key} must have dimension {cfg.dim}")
    return cfg


def build_trap(cfg: RunConfig, kappa: float) -> TrapModel:
    if cfg.model == "isotropic":
        return Isotropic(cfg.d, kappa, cfg.consts)
    cls = Quasi1D if cfg.model == "quasi1d" else Quasi2D
    return cls(kappa, cfg.kappa_c, cfg.omega1, cfg.omega_perp, cfg.consts)


def _base_metadata(cfg: RunConfig) -> dict:
    target = {"nu": cfg.nu} if cfg.nu is not None else {"mu": cfg.mu}
    return {"software_version": __version__, "model": cfg.model,
            "units": cfg.units, "beta": cfg.beta, **target}


def cmd_thermo(cfg: RunConfig) -> ResultTable:
    columns = ["kappa", "mu", "gap", "nu", "occupation0", "gbec_band_sum",
               "nu_c"]
    if cfg.model == "quasi1d":
        columns.append("nu_m")

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
        nu_c = _nu_critical_trap(cfg.beta, trap)
        row = [kappa, mu, eq.gap, nu, occupation(eq, (0,) * trap.dim),
               gbec_band_sum(eq, cfg.epsilon),
               "divergent:d1-no-critical-number" if math.isinf(nu_c) else nu_c]
        if cfg.model == "quasi1d":
            row.append(nu_m(cfg.beta, trap))
        return row

    rows = [one(kappa) for kappa in cfg.kappas]
    meta = _base_metadata(cfg)
    meta["epsilon"] = cfg.epsilon
    return ResultTable(columns, rows, meta)


def cmd_mu_solve(cfg: RunConfig) -> ResultTable:
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
    target = CanonicalTarget(cfg.beta, cfg.nu)
    x, y = cfg.points()

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        eq = Equilibrium.solve(target, trap, cfg.ctl)
        return [kappa, *rdm_columns(x, y, eq)]

    rows = [one(kappa) for kappa in cfg.kappas]
    return ResultTable(["kappa", "rdm", "rdm_rescaled", "noncondensate"],
                       rows, _base_metadata(cfg))


def cmd_profile(cfg: RunConfig) -> ResultTable:
    if cfg.model != "isotropic":
        raise DomainError("profile requires the isotropic model")
    if len(cfg.kappas) != 1:
        raise DomainError("profile runs at a single kappa")
    if not cfg.grid:
        raise DomainError("profile requires a non-empty grid")
    target = CanonicalTarget(cfg.beta, cfg.nu)
    trap = build_trap(cfg, cfg.kappas[0])
    eq = Equilibrium.solve(target, trap, cfg.ctl)
    law = divergence_law(cfg.beta, cfg.nu, trap.dim, cfg.consts)
    limit = scaled_density_profile(cfg.delta, target, trap.dim, cfg.consts,
                                   cfg.ctl, cfg.rescaled)

    def one(r: float) -> list:
        x = np.zeros(trap.dim)
        x[0] = r
        val = local_density_scaled(x, cfg.delta, eq, cfg.rescaled)
        pred = limit(x)
        if pred is None:
            return [r, val, "no-limit-claimed", "n/a"]
        if math.isinf(pred):
            return [r, val, f"divergent:{law}", "n/a"]
        dev = abs(val - pred) / abs(pred) if pred != 0.0 else abs(val)
        return [r, val, pred, dev]

    rows = [one(r) for r in cfg.grid]
    meta = _base_metadata(cfg)
    meta.update({"kappa": cfg.kappas[0], "delta": cfg.delta,
                 "rescaled": int(cfg.rescaled)})
    return ResultTable(["x", "value", "prediction", "rel_deviation"], rows, meta)


def cmd_loops(cfg: RunConfig) -> ResultTable:
    target = CanonicalTarget(cfg.beta, cfg.nu)
    x, y = cfg.points()

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        dec = loop_decompose(x, y, Equilibrium.solve(target, trap, cfg.ctl))
        scale = trap.kappa_abs ** (trap.dim / 2.0)
        pred = condensate_density(cfg.beta, cfg.nu, trap.dim,
                                  replace(cfg.consts, omega0=trap.omega0))
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
    target = CanonicalTarget(cfg.beta, cfg.nu)
    x, y = cfg.points()

    def one(kappa: float) -> list:
        trap = build_trap(cfg, kappa)
        regime = classify(target, trap)
        if cfg.model == "quasi1d":
            if regime.tag == "subcritical":
                return [kappa, regime.tag, regime.eta, "n/a", "n/a", "n/a"]
            logv = meso_q1d(x, y, Equilibrium.solve(target, trap, cfg.ctl))
            pred = meso_q1d_prediction(target, trap)
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


_COMMANDS = {"thermo": cmd_thermo, "mu-solve": cmd_mu_solve, "rdm": cmd_rdm,
             "profile": cmd_profile, "loops": cmd_loops,
             "aniso-check": cmd_aniso_check}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boseloops",
        description="Loop-series thermodynamics and reduced density matrices "
                    "of harmonically trapped ideal Bose gases.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--output", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: rows are computed one after another")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BOSELOOPS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = parse_config(doc)
        if cfg.nu is None and args.command != "thermo":
            raise DomainError(f"{args.command} requires nu in the config")
        log.info("running %s over %d kappa value(s)", args.command,
                 len(cfg.kappas))
        table = _COMMANDS[args.command](cfg)
        text = table.to_csv() if args.format == "csv" else table.to_json()
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        return 0
    except OSError as exc:
        print(f"boseloops: IO error: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"boseloops: config parse error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"boseloops: convergence error: {exc}", file=sys.stderr)
        return 3
    except (BoseloopsError, ValueError, TypeError) as exc:
        print(f"boseloops: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"boseloops: arithmetic beyond the float range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
