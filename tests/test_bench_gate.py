"""The benchmark (`bench/run.py`) checks each CSV row of a run against the
reference outputs in `bench/reference/` and reports the matching share as
`ok_frac`.  Run every variant of every workload in-process with the same
check, so that an output change fails the test suite rather than a benchmark
run.  The traced run (`--trace 1`) is run the same way, in its own
interpreter, so that a traced name that no longer resolves, a span that
records no calls or a crash of `bench/child.py` fails the test suite too."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from boseloops.cli import main

_BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(_BENCH) not in sys.path:
    sys.path.insert(0, str(_BENCH))  # run.py imports its sibling `workloads`
_SPEC = importlib.util.spec_from_file_location("bench_run", _BENCH / "run.py")
run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run)
from workloads import VARIANTS  # noqa: E402 (needs bench/ on sys.path)


def _check_variant(name, seed, tmp_path):
    workload = run.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run.make_config(workload, seed)),
                      encoding="utf-8")
    output = tmp_path / "out.csv"
    assert main(run.cli_argv(workload, str(config), str(output))) == 0
    reference = run.reference_path(name, seed).read_text(encoding="utf-8")
    assert run.rows_ok(output.read_text(encoding="utf-8"), reference) \
        == len(workload.ladder)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_variant0_matches_reference(name, tmp_path):
    _check_variant(name, 0, tmp_path)


@pytest.mark.parametrize("seed", range(1, VARIANTS))
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_variant_matches_reference(name, seed, tmp_path):
    _check_variant(name, seed, tmp_path)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_child(name, tmp_path):
    workload = run.WORKLOADS[name]
    runner = run.Runner(tmp_path, workload, time.monotonic() + 120.0)
    runner.config.write_text(json.dumps(run.make_config(workload, 0)),
                             encoding="utf-8")
    res, output = runner.child("trace")
    assert res is not None and res["rc"] == 0
    reference = run.reference_path(name, 0).read_text(encoding="utf-8")
    assert run.rows_ok(output, reference) == len(workload.ladder)
    idle = [s for s in workload.expect_spans
            if res["trace"][f"{s}.calls"] == 0]
    assert idle == []
