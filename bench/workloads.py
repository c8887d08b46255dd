"""The benchmark's workloads and their seeded inputs.

Each workload is one kappa-ladder config run through one CLI subcommand
(beta = 1, kappa_c = 1, default `series`).  The seed jitters every kappa of
the ladder multiplicatively by at most JITTER.  That band keeps each point on
the same side of the 2*10^6 direct-sum cap of `thermo._split_axes` and of the
window caps of `rdm`, so a seed changes the inputs but never the code path
(even at five times the band the nearest threshold stays 5% away:
`iso-loops-deep` kappa=3e-6, short cutoff against the relaxation length).
The band is narrow because the work of some points is steep in kappa: the
direct-sum length grows like kappa^-(1 + 2/kappa^2) at the quasi-1D points
(17-fold at 0.35) and like kappa^-4.5 at the `q2d-cliff` kappa=0.02 point,
and seed-to-seed changes in work count as run-to-run spread.

Only VARIANTS distinct jitters exist, chosen by seed % VARIANTS, so that
every input has a reference output captured at the seed commit (see
capture_reference.py); the CLI's own --seed flag is never passed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.001
VARIANTS = 16
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    ladder: tuple[float, ...]
    config: dict
    threads: int
    # spans that must record calls in a traced run; zero means a lost binding
    expect_spans: tuple[str, ...]


_CORE = ("cli.parse_config", "cli.serialize", "specfun.polylog",
         "thermo.solve_gap")

WORKLOADS = {w.name: w for w in (
    Workload(
        "q1d-thermo", "thermo", (0.4, 0.35, 0.3, 0.25),
        {"model": "quasi1d", "beta": 1.0, "kappa_c": 1.0, "nu": 4.0}, 1,
        _CORE + ("thermo.gbec_band_sum", "scipy.quad")),
    Workload(
        "q2d-cliff", "mu-solve", (0.05, 0.02, 0.01, 0.005),
        {"model": "quasi2d", "beta": 1.0, "kappa_c": 1.0, "nu": 2.0}, 1,
        _CORE + ("thermo.gap_asymptotic",)),
    Workload(
        "iso-loops-deep", "loops", (1e-5, 5e-6, 3e-6, 2e-6, 1e-6, 5e-7),
        {"model": "isotropic", "d": 3, "beta": 1.0, "nu": 2.4,
         "x": [1.0, 0.5, 0.0], "y": [0.0, 0.0, 0.0]}, 1,
        _CORE + ("rdm.loop_decompose", "scipy.quad")),
    Workload(
        "q2d-aniso-t2", "aniso-check", (0.03, 0.01, 0.005, 0.0035),
        {"model": "quasi2d", "beta": 1.0, "kappa_c": 1.0, "nu": 2.0,
         "x": [0.5, 0.0, 0.0], "y": [0.0, 0.0, 0.0]}, 2,
        _CORE + ("aniso.classify", "aniso.additional_q2d",
                 "aniso.q2d_chi_split", "scipy.quad")),
)}


def variant(seed: int) -> int:
    return seed % VARIANTS


def make_config(workload: Workload, seed: int) -> dict:
    """The config document for this workload and seed."""
    rng = random.Random(f"{workload.name}/{variant(seed)}")
    kappas = [float(f"{k * (1.0 + JITTER * rng.uniform(-1.0, 1.0)):.6g}")
              for k in workload.ladder]
    return dict(workload.config, kappa_ladder=kappas)


def cli_argv(workload: Workload, config_path: str, output_path: str) -> list:
    """Arguments for boseloops.cli.main; the program sees only the config."""
    argv = [workload.command, "--config", config_path, "--output",
            output_path, "--format", "csv"]
    if workload.threads > 1:
        argv += ["--threads", str(workload.threads)]
    return argv
