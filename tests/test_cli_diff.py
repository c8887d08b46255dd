"""`tools/cli_diff.py` compares two trees' CLI outputs cell by cell; check
its cell diff and its summary line on synthetic CSV texts, without running
a tree."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)

_OLD = ("# beta = 1\n"
        "kappa,regime,nu,gap,zero\n"
        "0.5,condensed,2.0000000000000004,1e-05,0\n"
        "0.25,condensed,4,3.5,0\n")
_NEW = ("# beta = 1\n"
        "kappa,regime,nu,gap,zero\n"
        "0.5,subcritical,2.0000000000000009,1e-05,0\n"
        "0.25,condensed,4,3.5000000000001,1e-300\n")


def test_cell_diffs_lists_each_cell_and_the_largest_change():
    lines, worst = cli_diff._cell_diffs(_OLD, _NEW)
    rel_nu = (2.0000000000000009 - 2.0000000000000004) / 2.0000000000000004
    rel_gap = (3.5000000000001 - 3.5) / 3.5
    assert lines == [
        "  line 3 cell 2: condensed -> subcritical (relative text)",
        "  line 3 cell 3: 2.0000000000000004 -> 2.0000000000000009 "
        f"(relative {rel_nu:.2e})",
        f"  line 4 cell 4: 3.5 -> 3.5000000000001 (relative {rel_gap:.2e})",
        "  line 4 cell 5: 0 -> 1e-300 (relative from 0)"]
    # a cell that leaves 0 has no finite relative change
    assert worst == math.inf
    lines, worst = cli_diff._cell_diffs(_OLD, _NEW.replace("1e-300", "0"))
    assert len(lines) == 3 and worst == rel_gap


def test_cell_diffs_without_numeric_change():
    assert cli_diff._cell_diffs(_OLD, _OLD) == ([], None)
    lines, worst = cli_diff._cell_diffs(_OLD, _OLD.replace("regime",
                                                           "phase"))
    assert lines == ["  line 2 cell 2: regime -> phase (relative text)"]
    assert worst is None
    lines, worst = cli_diff._cell_diffs(_OLD, _OLD + "0.1,x,1,1,0\n")
    assert lines == ["  4 lines -> 5 lines"] and worst is None


def test_summary_names_the_largest_change_and_its_config():
    _, worst = cli_diff._cell_diffs(_OLD, _NEW.replace("1e-300", "0"))
    assert cli_diff._summary(64, 3, 2, (worst, "q2d-cliff/v01")) == (
        "cli_diff: 64 configs, 61 identical, 2 natural-units outputs "
        f"differ; largest relative change {worst:.2e} (q2d-cliff/v01)")
    assert cli_diff._summary(64, 0, 0, None) == (
        "cli_diff: 64 configs, 64 identical, 0 natural-units outputs differ")
