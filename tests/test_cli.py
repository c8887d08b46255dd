"""Command-line interface tests: config validation, exit codes, output
formats and determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boseloops
from boseloops import rdm, specfun, thermo
from boseloops.cli import ResultTable, main, parse_config
from boseloops.errors import DomainError


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, command, doc, fmt="csv", extra_args=(), name="out"):
    cfg = _write_config(tmp_path, doc, name=f"{name}.json")
    out = tmp_path / f"{name}.{fmt}"
    code = main([command, "--config", cfg, "--output", str(out),
                 "--format", fmt, *extra_args])
    return code, out


def _parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            k, v = line[1:].split("=", 1)
            meta[k.strip()] = v.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


THERMO_DOC = {"model": "isotropic", "d": 3, "kappa_ladder": [0.4, 0.2, 0.1],
              "beta": 1.0, "nu": 2.0}


class TestParseConfig:
    def test_minimal(self):
        cfg = parse_config({"kappa": 0.3, "nu": 1.0})
        assert cfg.model == "isotropic"
        assert cfg.kappas == (0.3,)
        assert cfg.beta == 1.0 and cfg.nu == 1.0 and cfg.mu is None

    def test_nu_mu_exclusivity(self):
        with pytest.raises(DomainError):
            parse_config({"kappa": 0.3})
        with pytest.raises(DomainError):
            parse_config({"kappa": 0.3, "nu": 1.0, "mu": -0.5})

    def test_kappa_sources(self):
        with pytest.raises(DomainError):
            parse_config({"nu": 1.0})
        with pytest.raises(DomainError):
            parse_config({"kappa": 0.3, "kappa_ladder": [0.3], "nu": 1.0})
        with pytest.raises(DomainError):
            parse_config({"kappa_ladder": [0.1, 0.2], "nu": 1.0})
        with pytest.raises(DomainError):
            parse_config({"kappa_ladder": [], "nu": 1.0})

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            parse_config({"model": "lattice", "kappa": 0.3, "nu": 1.0})

    def test_units(self):
        cfg = parse_config({"kappa": 0.3, "nu": 1.0,
                            "units": {"hbar": 2.0, "mass": 0.5}})
        assert cfg.units == "explicit"
        assert cfg.consts.hbar == 2.0 and cfg.consts.mass == 0.5
        with pytest.raises(DomainError):
            parse_config({"kappa": 0.3, "nu": 1.0, "units": "si"})

    def test_series_subdict(self):
        cfg = parse_config({"kappa": 0.3, "nu": 1.0,
                            "series": {"sigma": 1.1, "sigma2": 0.25}})
        assert cfg.ctl.sigma == 1.1 and cfg.ctl.sigma2 == 0.25
        assert parse_config({"kappa": 0.3, "nu": 1.0}).ctl.sigma2 == 0.0

    def test_unknown_series_key_rejected(self, tmp_path, capsys):
        with pytest.raises(DomainError, match="rel-tol"):
            parse_config({"kappa": 0.3, "nu": 1.0,
                          "series": {"rel-tol": 1e-8}})
        with pytest.raises(DomainError, match="object"):
            parse_config({"kappa": 0.3, "nu": 1.0, "series": "rel_tol"})
        # retired keys fail rather than being ignored
        for key in ("max_terms", "abs_tol"):
            code, _ = _run(tmp_path, "thermo",
                           dict(THERMO_DOC, series={key: 1e-12}), name=key)
            assert code == 2
            assert key in capsys.readouterr().err

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        # a misspelt key must not run silently with the default value
        with pytest.raises(DomainError, match="kapa_c"):
            parse_config({"kappa": 0.3, "nu": 1.0, "kapa_c": 2.0})
        code, _ = _run(tmp_path, "thermo", dict(THERMO_DOC, epsilom=0.1))
        assert code == 2
        assert "epsilom" in capsys.readouterr().err

    def test_command_keys_typed(self):
        cfg = parse_config({"kappa": 0.3, "nu": 1.0, "x": [0.1, 0, "0"],
                            "grid": [1, 2.5], "rescaled": True})
        assert cfg.x == (0.1, 0.0, 0.0) and cfg.y is None
        assert cfg.grid == (1.0, 2.5) and cfg.rescaled is True
        assert (cfg.epsilon, cfg.delta) == (0.05, 1.0)
        x, y = cfg.points()
        assert x.tolist() == [0.1, 0.0, 0.0] and y.tolist() == [0.0] * 3
        # the dimension of a point is the trap's: d, or 3 if anisotropic
        assert parse_config({"kappa": 0.3, "nu": 1.0, "d": 1,
                             "x": [0.2]}).points()[1].tolist() == [0.0]
        with pytest.raises(DomainError, match="x must have dimension 3"):
            parse_config({"model": "quasi1d", "kappa": 0.3, "nu": 1.0,
                          "d": 1, "x": [0.2]})

    @pytest.mark.parametrize("key, value, match", [
        ("kappa_ladder", 0.3, "kappa_ladder must be a list of numbers"),
        ("kappa_ladder", [0.3, "0.2x"], "kappa_ladder.1. must be a finite"),
        ("mu", None, "mu must be a finite number, not null"),
        ("d", "3.5", "d must be 1, 2 or 3"),
        ("d", 10**400, "d must be a finite number"),
        ("units", {"hbar": 1.0, "h": 2.0}, "unknown units key.s.: h"),
        ("units", {"mass": False}, "units.mass must be a finite number"),
        ("series", {"sigma2": "inf"}, "series.sigma2 must be a finite"),
        ("y", [0.0, 0.0], "y must have dimension 3"),
        ("grid", 0.4, "grid must be a list of numbers"),
        ("delta", [0.5], "delta must be a finite number"),
        ("rescaled", 1, "rescaled must be true or false, not 1"),
    ])
    def test_malformed_value_rejected(self, key, value, match):
        # the document is read once, so even a key the command ignores is
        # checked; numeric strings are read as numbers
        doc = {"kappa": 0.3, "nu": "1.0"}
        doc.pop({"mu": "nu", "kappa_ladder": "kappa"}.get(key), None)
        doc[key] = value
        with pytest.raises(DomainError, match=match):
            parse_config(doc)


class TestResultTable:
    def test_csv_layout(self):
        t = ResultTable(["a", "b"], [[1.0, "tag"]], {"z": 1.0, "a": "m"})
        meta, header, rows = _parse_csv(t.to_csv())
        assert list(meta) == ["a", "z"]  # metadata sorted
        assert header == ["a", "b"]
        assert rows == [["1", "tag"]]

    def test_float_full_precision(self):
        t = ResultTable(["v"], [[math.pi]], {})
        assert "3.1415926535897931" in t.to_csv()

    def test_non_finite_rejected(self):
        t = ResultTable(["v"], [[math.inf]], {})
        with pytest.raises(DomainError):
            t.to_csv()

    def test_ragged_rejected(self):
        t = ResultTable(["a", "b"], [[1.0]], {})
        with pytest.raises(DomainError):
            t.to_csv()

    def test_json_round_trip(self):
        t = ResultTable(["a"], [[2.0]], {"beta": 1.0})
        doc = json.loads(t.to_json())
        assert doc["columns"] == ["a"]
        assert doc["rows"] == [["2"]]
        assert doc["metadata"]["beta"] == "1"


class TestExitCodes:
    def test_success(self, tmp_path):
        code, out = _run(tmp_path, "thermo", THERMO_DOC)
        assert code == 0
        assert out.exists()

    def test_underflowing_axis_kappa(self, tmp_path, capsys):
        # kappa_1 of this quasi-1D rung underflows: a typed error naming
        # kappa, not a math domain error from deep in the gap solve
        code, out = _run(tmp_path, "thermo",
                         {"model": "quasi1d", "beta": 1, "kappa_c": 1,
                          "nu": 4, "kappa_ladder": [0.03]})
        assert code == 2
        err = capsys.readouterr().err
        assert "kappa=0.03" in err and "math domain error" not in err

    def test_invalid_config(self, tmp_path):
        bad = dict(THERMO_DOC)
        bad["mu"] = -0.5  # both nu and mu
        code, _ = _run(tmp_path, "thermo", bad)
        assert code == 2

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["thermo", "--config", str(cfg)]) == 2

    def test_unreachable_target(self, tmp_path):
        # nu beyond what the smallest normal gap reaches (about 1.2e306)
        doc = {"kappa": 0.3, "nu": 1e308}
        code, _ = _run(tmp_path, "mu-solve", doc)
        assert code == 3

    def test_tiny_isotropic_trap(self, tmp_path, capsys):
        # E0 = 1.5e-30, so 1e-300 E0 is no float: the gap window's lower
        # edge is the smallest normal float
        code, out = _run(tmp_path, "thermo",
                         {"model": "isotropic", "d": 3, "beta": 1,
                          "nu": 2.4, "kappa_ladder": [1e-30]})
        assert code == 0
        assert "math domain error" not in capsys.readouterr().err
        _, header, rows = _parse_csv(out.read_text())
        gap = float(rows[0][header.index("gap")])
        assert gap == pytest.approx(1e-90 / (2.4 - 1.2020569031595942),
                                    rel=1e-6)

    def test_missing_config_file(self, tmp_path):
        assert main(["thermo", "--config",
                     str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output(self, tmp_path):
        cfg = _write_config(tmp_path, THERMO_DOC)
        code = main(["thermo", "--config", cfg, "--output",
                     str(tmp_path / "no" / "such" / "dir" / "out.csv")])
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["no-such-command", "--config", "cfg.json"], ["thermo"]],
        ids=["unknown-command", "missing-config"])
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: boseloops" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, message", [
        *[(command, {"model": "quasi1d", "kappa": 0.3, "mu": -0.5,
                     "grid": [0.4]}, f"{command} requires nu in the config")
          for command in ("mu-solve", "rdm", "profile", "loops",
                          "aniso-check")],
        ("profile", {"model": "quasi1d", "kappa": 0.3, "nu": 2.0,
                     "grid": [0.4]}, "profile requires the isotropic model"),
        ("profile", {"kappa_ladder": [0.3, 0.2], "nu": 2.0, "grid": [0.4]},
         "profile runs at a single kappa"),
        ("thermo", [0.3, 2.0], "config must be a JSON object"),
        ("thermo", {"kappa": 0.3, "nu": -1.0}, "nu must be positive"),
        ("thermo", {"kappa": 0.3, "nu": 2.0, "beta": 0.0},
         "beta must be positive"),
    ])
    def test_config_rejected(self, tmp_path, capsys, command, doc, message):
        code, out = _run(tmp_path, command, doc)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"boseloops: {message}\n"

    def test_help_lists_the_six_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{thermo,mu-solve,rdm,profile,loops,aniso-check}" \
            in capsys.readouterr().out


# configs that exit 2 with one "boseloops:" line and no traceback: NaN,
# infinite and wrongly typed values (the message names the key; Python's
# json reads NaN and Infinity), then finite values whose arithmetic leaves
# the float range
_REJECTED = [
    ("mu-solve", '{"kappa": 0.3, "nu": NaN}', "nu must be a finite"),
    ("thermo", '{"kappa": NaN, "nu": 2}', "kappa must be a finite"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "beta": NaN}', "beta must be"),
    ("thermo", '{"model": "quasi1d", "kappa": 0.3, "nu": 2, '
               '"kappa_c": NaN}', "kappa_c must be"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "units": {"hbar": NaN}}',
     "units.hbar must be"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "x": [NaN, 0, 0]}', "x[0] must be"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "series": {"sigma": NaN}}',
     "series.sigma must be"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "omega1": -Infinity}',
     "omega1 must be"),
    ("profile", '{"kappa": 0.05, "nu": 2, "grid": [0.4], '
                '"rescaled": "false"}', "rescaled must be true or false"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "d": 2.7}', "d must be 1, 2 or 3"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "d": true}', "d must be a finite"),
    ("thermo", '{"kappa": 1e300, "nu": 2}', "float range"),
    ("mu-solve", '{"kappa": 1e300, "nu": 2}', "float range"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "beta": 1e300}', "float range"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "beta": 1e-300}', "float range"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "units": {"hbar": 1e-200}}',
     "float range"),
    ("thermo", '{"kappa": 0.3, "nu": 2, "units": {"omega0": 1e200}}',
     "float range"),
    ("loops", '{"kappa": 0.3, "nu": 2, "x": [1e200, 0, 0]}', "float range"),
    ("rdm", '{"kappa": 0.3, "nu": 2, "x": [1e200, 0, 0]}', "float range"),
    ("loops", '{"kappa": 0.3, "nu": 2, "units": {"mass": 1e308}}',
     "float range"),
]

# runs main on each argv list in one interpreter; an uncaught exception
# ends it with a traceback
_RUN_EACH = ("import json, sys\n"
           "from boseloops.cli import main\n"
           "print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))\n")


class TestMalformedInput:
    def test_exit_2_without_traceback(self, tmp_path):
        argvs = []
        for i, (command, text, _) in enumerate(_REJECTED):
            path = tmp_path / f"c{i}.json"
            path.write_text(text)
            argvs.append([command, "--config", str(path)])
        src = str(Path(boseloops.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _RUN_EACH,
                               json.dumps(argvs)], capture_output=True,
                              text=True, env=env, timeout=600)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[-1]) == [2] * len(argvs)
        messages = [line for line in proc.stderr.splitlines()
                    if line.startswith("boseloops: ")]
        assert len(messages) == len(argvs)
        for message, (_, text, expected) in zip(messages, _REJECTED):
            assert expected in message, text


class TestThermoCommand:
    def test_columns_and_ladder(self, tmp_path):
        code, out = _run(tmp_path, "thermo", THERMO_DOC)
        assert code == 0
        meta, header, rows = _parse_csv(out.read_text())
        assert header == ["kappa", "mu", "gap", "nu", "occupation0",
                          "gbec_band_sum", "nu_c"]
        assert [r[0] for r in rows] == ["0.40000000000000002",
                                        "0.20000000000000001",
                                        "0.10000000000000001"]
        assert meta["model"] == "isotropic"
        # nu column echoes the canonical target
        assert all(float(r[3]) == 2.0 for r in rows)

    def test_d1_divergent_tag(self, tmp_path):
        doc = {"model": "isotropic", "d": 1, "kappa": 0.3, "nu": 2.0}
        code, out = _run(tmp_path, "thermo", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert rows[0][header.index("nu_c")] \
            == "divergent:d1-no-critical-number"

    def test_quasi1d_has_nu_m(self, tmp_path):
        doc = {"model": "quasi1d", "kappa": 0.3, "kappa_c": 1.0, "nu": 2.0}
        code, out = _run(tmp_path, "thermo", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert header[-1] == "nu_m"
        assert float(rows[0][header.index("nu_m")]) \
            > float(rows[0][header.index("nu_c")])

    def test_zeta_summed_once_per_run(self, tmp_path):
        # a quasi-1D ladder reads nu_c and nu_m in every row (columns and
        # gap_asymptotic): zeta(3) is summed once for the whole run
        doc = {"model": "quasi1d", "kappa_ladder": [0.4, 0.35, 0.3, 0.25],
               "kappa_c": 1.0, "nu": 4.0}
        specfun._zeta_em.cache_clear()
        code, _ = _run(tmp_path, "thermo", doc)
        assert code == 0
        assert specfun._zeta_em.cache_info().misses == 1

    def test_mu_input_mode(self, tmp_path):
        doc = {"model": "isotropic", "d": 3, "kappa": 0.4, "mu": 0.3}
        code, out = _run(tmp_path, "thermo", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert float(rows[0][header.index("gap")]) \
            == pytest.approx(1.5 * 0.4 - 0.3, rel=1e-12)


class TestOtherCommands:
    def test_mu_solve(self, tmp_path):
        doc = {"kappa_ladder": [0.05, 0.02], "nu": 2.0 * 1.202056903}
        code, out = _run(tmp_path, "mu-solve", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert header == ["kappa", "mu", "gap", "gap_asymptotic",
                          "rel_deviation"]
        # the asymptotic law improves down the ladder
        devs = [float(r[-1]) for r in rows]
        assert devs[1] < devs[0] < 0.2

    def test_rdm(self, tmp_path):
        doc = {"kappa": 0.3, "nu": 2.0, "x": [0.2, 0.0, 0.0],
               "y": [0.0, 0.1, 0.0]}
        code, out = _run(tmp_path, "rdm", doc, fmt="json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"] == ["kappa", "rdm", "rdm_rescaled",
                                      "noncondensate"]
        row = [float(v) for v in payload["rows"][0]]
        assert row[1] > row[3] > 0.0  # rdm exceeds its noncondensate part

    def test_rdm_bad_point_dimension(self, tmp_path):
        doc = {"kappa": 0.3, "nu": 2.0, "x": [0.2, 0.0]}
        code, _ = _run(tmp_path, "rdm", doc)
        assert code == 2

    def test_profile(self, tmp_path):
        doc = {"kappa": 0.05, "nu": 2.0 * 1.202056903, "delta": 0.5,
               "rescaled": True, "grid": [0.4, 0.8]}
        code, out = _run(tmp_path, "profile", doc)
        assert code == 0
        meta, header, rows = _parse_csv(out.read_text())
        assert header == ["x", "value", "prediction", "rel_deviation"]
        assert meta["delta"] == "0.5" and meta["rescaled"] == "1"
        assert all(float(r[-1]) < 0.2 for r in rows)

    def test_profile_divergent_cell(self, tmp_path):
        # d=3 above nu_c, delta < 1/2, not rescaled: the limit is +inf and
        # the cell names the law of `divergence_law`
        doc = {"kappa": 0.05, "nu": 2.0 * 1.2020569031595942, "delta": 0.2,
               "grid": [0.4]}
        code, out = _run(tmp_path, "profile", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert rows[0][header.index("prediction")] \
            == "divergent:power-law-in-kappa"
        assert rows[0][header.index("rel_deviation")] == "n/a"

    def test_profile_requires_grid(self, tmp_path):
        doc = {"kappa": 0.05, "nu": 2.0, "delta": 0.5}
        code, _ = _run(tmp_path, "profile", doc)
        assert code == 2

    def test_loops(self, tmp_path):
        doc = {"model": "quasi1d", "kappa": 0.1, "kappa_c": 1.0, "nu": 3.0}
        code, out = _run(tmp_path, "loops", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert rows[0][header.index("macro_cutoff")] \
            == "divergent:beyond-2^62"
        # the three windows add up to the reported total
        total = float(rows[0][header.index("total")])
        parts = sum(float(rows[0][header.index(c)])
                    for c in ("short_sum", "meso_sum", "macro_sum"))
        assert parts == pytest.approx(total, rel=1e-12)

    def test_aniso_check_q1d(self, tmp_path):
        doc = {"model": "quasi1d", "kappa": 0.4, "kappa_c": 1.0, "nu": 4.0}
        code, out = _run(tmp_path, "aniso-check", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert header == ["kappa", "regime", "eta", "log_meso",
                          "exponent_prediction", "log_prefactor_prediction"]
        assert rows[0][1] in ("gbec_only", "coexistence")

    def test_aniso_check_q2d(self, tmp_path):
        doc = {"model": "quasi2d", "kappa": 0.1, "kappa_c": 1.0, "nu": 2.0}
        code, out = _run(tmp_path, "aniso-check", doc)
        assert code == 0
        _, header, rows = _parse_csv(out.read_text())
        assert header == ["kappa", "regime", "eta", "additional",
                          "additional_limit", "chi_split_first",
                          "chi_split_second"]

    def test_aniso_check_rejects_isotropic(self, tmp_path):
        doc = {"model": "isotropic", "kappa": 0.3, "nu": 2.0}
        code, _ = _run(tmp_path, "aniso-check", doc)
        assert code == 2


_NATURAL_META = "# software_version = 0.1.0\n# units = natural\n"

# (command, config, the whole CSV the CLI writes to stdout) for output
# branches that the other tests do not reach
_BRANCH_OUTPUTS = {
    "q1d-subcritical-row": (
        "aniso-check",
        {"model": "quasi1d", "kappa": 0.4, "kappa_c": 1.0, "nu": 0.5},
        "# beta = 1\n# model = quasi1d\n# nu = 0.5\n" + _NATURAL_META
        + "kappa,regime,eta,log_meso,exponent_prediction,"
          "log_prefactor_prediction\n"
          "0.40000000000000002,subcritical,0.41595368629035367,n/a,n/a,n/a\n"),
    "profile-no-limit-claimed": (
        "profile", {"d": 2, "kappa": 0.05, "nu": 3.0, "delta": 0.5,
                    "grid": [0.4]},
        "# beta = 1\n# delta = 0.5\n# kappa = 0.050000000000000003\n"
        "# model = isotropic\n# nu = 3\n# rescaled = 0\n" + _NATURAL_META
        + "x,value,prediction,rel_deviation\n"
          "0.40000000000000002,7.0885495159298175,no-limit-claimed,n/a\n"),
    "profile-d3-zeta-plateau": (
        "profile", {"kappa": 0.05, "nu": 2.4041138063191885, "delta": 0.7,
                    "grid": [0.4]},
        "# beta = 1\n# delta = 0.69999999999999996\n"
        "# kappa = 0.050000000000000003\n# model = isotropic\n"
        "# nu = 2.4041138063191885\n# rescaled = 0\n" + _NATURAL_META
        + "x,value,prediction,rel_deviation\n"
          "0.40000000000000002,10.291839160141505,0.16586920931302221,"
          "61.047918373560989\n"),
    "profile-rescaled-subcritical": (
        "profile", {"kappa": 0.05, "nu": 0.5, "delta": 0.5, "rescaled": True,
                    "grid": [0.4]},
        "# beta = 1\n# delta = 0.5\n# kappa = 0.050000000000000003\n"
        "# model = isotropic\n# nu = 0.5\n# rescaled = 1\n" + _NATURAL_META
        + "x,value,prediction,rel_deviation\n"
          "0.40000000000000002,0.00040516649457685754,0,"
          "0.00040516649457685754\n"),
    "loops-subcritical-condensate": (
        "loops", {"kappa": 0.3, "nu": 0.5},
        "# beta = 1\n# model = isotropic\n# nu = 0.5\n" + _NATURAL_META
        + "kappa,short_cutoff,macro_cutoff,short_sum,meso_sum,macro_sum,"
          "total,macro_rescaled,condensate_prediction\n"
          "0.29999999999999999,4,4,0.03539711953145297,0,"
          "0.00011374960152069409,0.03551086913297366,"
          "1.8690966798032428e-05,0\n"),
}


class TestBranchOutputs:
    @pytest.mark.parametrize("case", sorted(_BRANCH_OUTPUTS))
    def test_stdout_matches_reference(self, tmp_path, capsys, case):
        # without --output the table goes to stdout, byte for byte
        command, doc, expected = _BRANCH_OUTPUTS[case]
        cfg = _write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""


class TestDeterminism:
    def test_byte_identical_repeat(self, tmp_path):
        _, out1 = _run(tmp_path, "thermo", THERMO_DOC, name="r1")
        _, out2 = _run(tmp_path, "thermo", THERMO_DOC, name="r2")
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        _, out1 = _run(tmp_path, "thermo", THERMO_DOC, name="t1")
        _, out4 = _run(tmp_path, "thermo", THERMO_DOC,
                       extra_args=("--threads", "4"), name="t4")
        assert out1.read_bytes() == out4.read_bytes()

    def test_json_deterministic(self, tmp_path):
        _, o1 = _run(tmp_path, "rdm", {"kappa": 0.3, "nu": 2.0},
                     fmt="json", name="j1")
        _, o2 = _run(tmp_path, "rdm", {"kappa": 0.3, "nu": 2.0},
                     fmt="json", name="j2")
        assert o1.read_bytes() == o2.read_bytes()


class TestOneSolvePerRow:
    @staticmethod
    def _count_calls(monkeypatch, real):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        # every boseloops namespace that binds the function, not only its
        # home
        for name, mod in list(sys.modules.items()):
            if name == "boseloops" or name.startswith("boseloops."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    @classmethod
    def _count_solves(cls, monkeypatch):
        return cls._count_calls(monkeypatch, thermo.solve_gap)

    @pytest.mark.parametrize("command, doc", [
        ("thermo", THERMO_DOC),
        ("rdm", {"kappa_ladder": [0.4, 0.2], "nu": 2.0}),
        ("loops", {"kappa_ladder": [0.4, 0.2], "nu": 2.0}),
        ("mu-solve", {"kappa_ladder": [0.4, 0.2], "nu": 2.0}),
        ("aniso-check", {"model": "quasi2d", "kappa_ladder": [0.2, 0.1],
                         "kappa_c": 1.0, "nu": 2.0}),
    ])
    def test_one_solve_per_kappa(self, tmp_path, monkeypatch, command, doc):
        calls = self._count_solves(monkeypatch)
        code, _ = _run(tmp_path, command, doc)
        assert code == 0
        assert len(calls) == len(parse_config(doc).kappas)

    def test_profile_solves_once(self, tmp_path, monkeypatch):
        calls = self._count_solves(monkeypatch)
        doc = {"kappa": 0.05, "nu": 2.0 * 1.202056903, "delta": 0.5,
               "rescaled": True, "grid": [0.4, 0.8, 1.2]}
        code, _ = _run(tmp_path, "profile", doc)
        assert code == 0
        assert len(calls) == 1

    def test_rdm_sums_each_row_once(self, tmp_path, monkeypatch):
        # rdm, rdm_rescaled and noncondensate of a row come from one window
        # sum (they were three)
        calls = self._count_calls(monkeypatch, rdm._noncond_windows)
        code, _ = _run(tmp_path, "rdm", {"kappa_ladder": [0.4, 0.2],
                                         "nu": 2.0, "x": [0.3, 0.0, 0.1]})
        assert code == 0
        assert len(calls) == 2

    def test_profile_solves_mu0_once(self, tmp_path, monkeypatch):
        # below nu_c the limit column needs the open-trap mu0, which does
        # not depend on the point: one solve for the profile, besides the
        # one behind the gap solve's closed-form guess (it was one per
        # point), and the column is scaled_density_profile at each point
        grid = [0.1 * i for i in range(1, 41)]
        doc = {"kappa": 0.05, "nu": 0.5, "delta": 1.0, "grid": grid}
        calls = self._count_calls(monkeypatch, thermo.mu_open_trap)
        code, out = _run(tmp_path, "profile", doc)
        assert code == 0
        assert len(calls) == 2
        monkeypatch.undo()
        _, _, rows = _parse_csv(out.read_text())
        target = thermo.CanonicalTarget(1.0, 0.5)
        for r, row in zip(grid, rows):
            pred = rdm.scaled_density_profile(1.0, target, 3)(
                np.array([r, 0.0, 0.0]))
            assert row[2] == f"{pred:.17g}"
