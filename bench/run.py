"""Benchmark of the boseloops CLI on fixed kappa-ladder workloads.

    python3 bench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it measures the library under `src/`.
Every execution is a fresh single-threaded interpreter (bench/child.py) that
runs one workload config through `boseloops.cli.main`.  The run

  1. writes the config for (workload, seed) and warms the interpreter and
     byte-code caches with one untimed set-up;
  2. runs the CLI untraced, at least MIN_EXECUTIONS times and then again
     while another execution as long as the last one still ends within
     --seconds, and checks each CSV against the reference output;
  3. tops up fresh set-ups until it has SETUP_SAMPLES set-up times;
  4. with --trace 1, runs the CLI once more under the layer tracer
     (bench/tracer.py) and checks that output too.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json (medians over the run's executions) with --trace 0, the
per-layer metrics with --trace 1.  `attempted` counts kappa rows; a row is
failed when the CLI did not produce it or it does not match the reference
(numeric cells within 1e-9 relative, zero and tag cells exactly).  A line
starting `# env` before it records the machine and the measured code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, DEFAULT_SEED, cli_argv, make_config, variant

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_EXECUTIONS = 2     # a median of two even for q2d-cliff's 12-15 s executions
RUN_BUDGET_S = 170.0   # a run must end within 180 s
REL_TOL = 1e-9         # loosest tolerance the library runs with (rdm quadrature)


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def reference_path(workload: str, seed: int) -> Path:
    return BENCH / "reference" / workload / f"v{variant(seed):02d}.csv"


def _split_csv(text: str):
    meta, table = [], []
    for line in text.splitlines():
        (meta if line.startswith("#") else table).append(line)
    return meta, table[:1], [row.split(",") for row in table[1:]]


def _cell_ok(got: str, want: str) -> bool:
    try:
        w = float(want)
    except ValueError:
        return got == want
    try:
        g = float(got)
    except ValueError:
        return False
    if w == 0.0:
        return g == 0.0
    return math.isfinite(g) and abs(g - w) <= REL_TOL * abs(w)


def _meta_ok(got: list, want: list) -> bool:
    def parse(lines):
        return dict(line[1:].strip().split(" = ", 1) for line in lines)
    g, w = parse(got), parse(want)
    # the version string is not a computed output
    g.pop("software_version", None)
    w.pop("software_version", None)
    return g.keys() == w.keys() and all(_cell_ok(g[k], w[k]) for k in w)


def rows_ok(output: str | None, reference: str) -> int:
    """Number of reference rows the output reproduces."""
    if output is None:
        return 0
    meta, header, rows = _split_csv(output)
    ref_meta, ref_header, ref_rows = _split_csv(reference)
    if header != ref_header or not _meta_ok(meta, ref_meta):
        return 0
    return sum(1 for got, want in zip(rows, ref_rows)
               if len(got) == len(want) and all(map(_cell_ok, got, want)))


def child_env() -> dict:
    """Environment of a CLI process: the checkout's sources, one BLAS thread,
    and byte-code caching on, as for an installed package, whatever the
    caller's environment says."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               BOSELOOPS_LOG="WARNING")
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    return env


class Runner:
    """Spawns the children of one run and keeps the run inside its budget."""

    def __init__(self, workdir: Path, workload, deadline: float):
        self.workdir = workdir
        self.workload = workload
        self.deadline = deadline
        self.count = 0
        self.config = workdir / "config.json"
        self.env = child_env()

    def child(self, mode: str):
        """Run one child; returns (result dict or None, the CSV it wrote or
        None when the CLI failed)."""
        self.count += 1
        result = self.workdir / f"result{self.count}.json"
        output = self.workdir / f"out{self.count}.csv"
        argv = cli_argv(self.workload, str(self.config), str(output))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode, str(result),
                 *argv], cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"# {mode} child timed out", file=sys.stderr)
            return None, None
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr)
            if mode == "trace":
                raise BenchError(f"{mode} child failed ({proc.returncode})")
            return None, None
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        res = json.loads(result.read_text(encoding="utf-8"))
        module = Path(res["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise BenchError(f"measured {module}, not the checkout's src/")
        produced = res.get("rc") == 0 and output.exists()
        return res, output.read_text(encoding="utf-8") if produced else None


def environment(seed: int, versions: dict) -> dict:
    """Machine, interpreter and measured source, recorded with every result."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boseloops").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "variant": variant(seed),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **versions}


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Run the workload; returns (rows attempted, rows ok, samples,
    per-layer metrics or None, environment)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = reference_path(workload.name, seed).read_text(encoding="utf-8")
    n_rows = len(workload.ladder)
    runner = Runner(workdir, workload, deadline)
    runner.config.write_text(json.dumps(make_config(workload, seed)),
                             encoding="utf-8")

    runner.child("setup")  # fills byte-code and page caches; not timed
    samples = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    attempted = ok = 0
    versions = {}
    start = time.monotonic()
    last = 0.0
    while (len(samples["wall_s"]) < MIN_EXECUTIONS
           or time.monotonic() - start + last <= seconds):
        t0 = time.monotonic()
        res, text = runner.child("run")
        last = time.monotonic() - t0
        attempted += n_rows
        if res is None:
            break
        ok += rows_ok(text, reference)
        for key in samples:
            samples[key].append(res[key])
        versions = res["versions"]
    if not samples["wall_s"]:
        raise BenchError("no execution completed")
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        res, _ = runner.child("setup")
        if res is None:
            raise BenchError("set-up child failed")
        samples["setup_s"].append(res["setup_s"])

    layers = None
    if trace:
        res, text = runner.child("trace")
        if res is None:
            raise BenchError("traced child timed out")
        attempted += n_rows
        ok += rows_ok(text, reference)
        layers = res["trace"]
        idle = [s for s in workload.expect_spans if layers[f"{s}.calls"] == 0]
        if idle:
            raise BenchError(f"traced spans recorded no calls: {idle}")
        layers["trace.overhead_frac"] = \
            res["wall_s"] / statistics.median(samples["wall_s"]) - 1.0
    return attempted, ok, samples, layers, environment(seed, versions)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boseloops" / "cli.py").is_file():
        print(f"bench: no boseloops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        attempted, ok, samples, layers, env = measure(
            workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps(samples))
    if layers is None:
        values = {key: statistics.median(v) for key, v in samples.items()}
        values["ok_frac"] = ok / attempted
        wanted = spec["end_to_end"]
    else:
        values = layers
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": ok == attempted, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
