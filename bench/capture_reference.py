"""Capture the reference CSV of every workload variant from the library
under `src/`.

    python3 bench/capture_reference.py

Writes bench/reference/<workload>/vNN.csv for NN in 0..VARIANTS-1, running
two CLI processes at a time, and bench/reference/manifest.json naming the
source it was captured from.  Run it only at a commit whose outputs are known
good; the benchmark checks every later commit against these files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import BENCH, ROOT, child_env, environment, reference_path
from workloads import DEFAULT_SEED, VARIANTS, WORKLOADS, cli_argv, make_config


def capture(workload, seed: int, workdir: Path) -> None:
    config = workdir / f"{workload.name}-{seed}.json"
    config.write_text(json.dumps(make_config(workload, seed)), encoding="utf-8")
    out = reference_path(workload.name, seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "boseloops.cli",
                    *cli_argv(workload, str(config), str(out))],
                   cwd=ROOT, env=child_env(), check=True)
    print(f"captured {out.relative_to(BENCH)}", flush=True)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    jobs = [(w, seed) for w in WORKLOADS.values() for seed in range(VARIANTS)]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp, \
            ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(capture, w, s, Path(tmp)) for w, s in jobs]:
            future.result()
    env = environment(DEFAULT_SEED, {})
    manifest = {k: env[k] for k in ("git_commit", "src_sha256")}
    (BENCH / "reference" / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
