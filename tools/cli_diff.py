"""Compare the CLI output of two source trees, cell by cell.

    python3 tools/cli_diff.py PARENT_SRC CHANGE_SRC

Each argument is a checkout or its `src` directory.  Both trees run the
same configs, each tree all of them in one fresh interpreter:

  - every bench workload's command on each of its seeded variants (the
    configs and the argv of `bench/workloads.py` beside this script);
  - rdm, profile at delta = 1 and at delta = 1/2 rescaled, thermo given mu,
    a subcritical mu-solve, a quasi-1D aniso-check and a quasi-2D loops;
  - rdm, loops and a quasi-1D aniso-check in explicit units.

The script prints every cell that differs with its relative change, and one
summary line, which names the largest relative change of a differing
numeric cell and the config it came from.  It exits 1 when a natural-units
output differs in any byte (or a command's exit code does), else 0;
explicit-units differences are printed but do not fail the check.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import VARIANTS, WORKLOADS, cli_argv, make_config  # noqa: E402

_POINT = {"x": [0.5, 0.2, 0.0], "y": [0.1, 0.0, 0.0]}
_UNITS = {"units": {"hbar": 3.0, "mass": 2.0, "omega0": 1.5}, "beta": 0.4}
_Q1D = {"model": "quasi1d", "kappa_c": 1.0, "nu": 4.0}
_Q2D = {"model": "quasi2d", "kappa_c": 1.0, "nu": 2.0}
_PROFILE = {"model": "isotropic", "d": 3, "nu": 2.4, "kappa": 1e-3,
            "grid": [0.25, 0.5, 1.0, 2.0, 4.0]}

# (name, command, config) beyond the bench workloads; a name starting
# "units-" is in explicit units
EXTRA = [
    ("rdm-q1d", "rdm", {**_Q1D, **_POINT, "kappa_ladder": [0.4, 0.3]}),
    ("rdm-iso", "rdm", {"model": "isotropic", "d": 3, "nu": 2.4,
                        "kappa_ladder": [0.1, 1e-3], **_POINT}),
    ("profile-thermal", "profile", {**_PROFILE, "delta": 1.0}),
    ("profile-condensate", "profile",
     {**_PROFILE, "delta": 0.5, "rescaled": True}),
    ("thermo-mu", "thermo", {"model": "quasi1d", "kappa_c": 1.0, "mu": 0.1,
                             "kappa_ladder": [0.4, 0.3]}),
    ("mu-solve-subcritical", "mu-solve",
     {"model": "isotropic", "d": 3, "nu": 0.5,
      "kappa_ladder": [0.1, 0.01, 1e-3]}),
    ("aniso-check-q1d", "aniso-check",
     {**_Q1D, "x": [0.5, 0.0, 0.0], "kappa_ladder": [0.4, 0.35, 0.3]}),
    ("loops-q2d", "loops", {**_Q2D, **_POINT, "kappa_ladder": [0.03, 0.01]}),
    ("units-rdm", "rdm", {"model": "isotropic", "d": 3, "nu": 2.4,
                          "kappa_ladder": [0.1, 1e-3], **_POINT, **_UNITS}),
    ("units-loops", "loops",
     {**_Q2D, **_POINT, **_UNITS, "kappa_ladder": [0.03, 0.01]}),
    ("units-aniso-check-q1d", "aniso-check",
     {**_Q1D, **_UNITS, "x": [0.5, 0.0, 0.0],
      "kappa_ladder": [0.4, 0.35, 0.3]}),
]

# runs in each tree's interpreter: argv[1] holds [name, cli argv] pairs,
# argv[2] receives {name: exit code}
_RUNNER = """
import contextlib, io, json, pathlib, sys
import boseloops.cli as cli
jobs, codes = json.loads(pathlib.Path(sys.argv[1]).read_text()), {}
for name, argv in jobs:
    with contextlib.redirect_stderr(io.StringIO()):
        codes[name] = cli.main(argv)
pathlib.Path(sys.argv[2]).write_text(json.dumps(codes))
"""


def _source(path: str) -> Path:
    tree = Path(path).resolve()
    for src in (tree, tree / "src"):
        if (src / "boseloops" / "__init__.py").is_file():
            return src
    sys.exit(f"cli_diff: no boseloops package under {tree}")


def _jobs(work: Path) -> list:
    """(name, workload or command, config path) of every compared config;
    the configs are written under work."""
    jobs = [(f"{w.name}/v{seed:02d}", w, make_config(w, seed))
            for w in WORKLOADS.values() for seed in range(VARIANTS)]
    jobs += EXTRA
    out = []
    for name, how, config in jobs:
        path = work / "configs" / f"{name.replace('/', '-')}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config), encoding="utf-8")
        out.append((name, how, str(path)))
    return out


def _run(src: Path, jobs: list, out_dir: Path) -> dict:
    """Run every job under the tree src; returns {name: (exit code, text)}."""
    out_dir.mkdir(parents=True)
    argvs = []
    for name, how, config in jobs:
        output = str(out_dir / f"{name.replace('/', '-')}.csv")
        if isinstance(how, str):
            argv = [how, "--config", config, "--output", output,
                    "--format", "csv"]
        else:
            argv = cli_argv(how, config, output)
        argvs.append((name, argv))
    job_file, code_file = out_dir / "jobs.json", out_dir / "codes.json"
    job_file.write_text(json.dumps(argvs), encoding="utf-8")
    subprocess.run([sys.executable, "-c", _RUNNER, str(job_file),
                    str(code_file)], cwd=out_dir, check=True,
                   env=dict(os.environ, PYTHONPATH=str(src)))
    codes = json.loads(code_file.read_text(encoding="utf-8"))
    results = {}
    for name, argv in argvs:
        output = Path(argv[argv.index("--output") + 1])
        text = output.read_text(encoding="utf-8") if output.exists() else ""
        results[name] = (codes[name], text)
    return results


def _relative(old: str, new: str) -> float | None:
    """|new - old| / |old| of two numeric cells (inf from 0), or None when
    either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def _cell_diffs(old: str, new: str) -> tuple[list[str], float | None]:
    """One line per differing cell of two CSV texts, and the largest
    relative change among the differing numeric cells (None if there is
    none)."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"  {len(old_lines)} lines -> {len(new_lines)} lines"], None
    out, worst = [], None
    for row, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a == b:
            continue
        cells_a, cells_b = a.split(","), b.split(",")
        if len(cells_a) != len(cells_b):
            out.append(f"  line {row}: {a!r} -> {b!r}")
            continue
        for col, (x, y) in enumerate(zip(cells_a, cells_b), start=1):
            if x == y:
                continue
            rel = _relative(x, y)
            if rel is None:
                shown = "text"
            else:
                shown = "from 0" if rel == math.inf else f"{rel:.2e}"
                worst = rel if worst is None else max(worst, rel)
            out.append(f"  line {row} cell {col}: {x} -> {y} "
                       f"(relative {shown})")
    return out, worst


def _summary(configs: int, moved: int, failed: int, worst) -> str:
    """The last line: how many configs are identical and how many
    natural-units outputs differ, and worst, the largest relative change of
    a numeric cell with the config it came from, as (change, name) or
    None."""
    line = (f"cli_diff: {configs} configs, {configs - moved} identical, "
            f"{failed} natural-units outputs differ")
    if worst is not None:
        line += f"; largest relative change {worst[0]:.2e} ({worst[1]})"
    return line


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    parent, change = (_source(a) for a in args)
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        work = Path(tmp)
        jobs = _jobs(work)
        before = _run(parent, jobs, work / "parent")
        after = _run(change, jobs, work / "change")
    failed = moved = 0
    worst = None
    errors = sorted(name for name, (code, _) in after.items() if code != 0)
    for name, _, _ in jobs:
        (code_a, text_a), (code_b, text_b) = before[name], after[name]
        if code_a == code_b and text_a == text_b:
            continue
        moved += 1
        natural = not name.startswith("units-")
        failed += natural
        print(f"{name}: {'differs' if natural else 'differs (explicit units)'}"
              + (f", exit {code_a} -> {code_b}" if code_a != code_b else ""))
        lines, rel = _cell_diffs(text_a, text_b)
        for line in lines:
            print(line)
        if rel is not None and (worst is None or rel > worst[0]):
            worst = (rel, name)
    if errors:
        print(f"exited nonzero under CHANGE_SRC: {', '.join(errors)}")
    print(_summary(len(jobs), moved, failed, worst))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
