"""Command-line interface: argument handling, exit codes, report formats."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dynell import RPoint, SingularPointError, build_r, rho_norm, theta, unitarity_scalar
from dynell.checks import GridSpec, format_complex, run_suite
from dynell.cli import main, parse_complex
from dynell.rmatrix import _g22, _grid_tables, _grid_z_factors, _r_array, _z_factors
from dynell.special import _GRID, _poch1, _poch2, _poch2_table, _powers

from helpers import outcome

READERS = (theta, rho_norm, unitarity_scalar)


def _cold_run(args, cwd):
    """`python -m dynell` with args in a fresh interpreter on these sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("DYNELL_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dynell"] + args, env=env, cwd=cwd,
                          capture_output=True, timeout=300)


def _clear_value_caches():
    """Empty the value cache and every cache of what is formed from it."""
    for cache in (_poch1, _poch2, _z_factors, _grid_z_factors, _r_array):
        cache.cache_clear()
    _GRID.clear()


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.6+0.2i", 0.6 + 0.2j),
            ("0.31", 0.31),
            ("-1.5e-3+2e-4i", -1.5e-3 + 2e-4j),
            ("0.37-0.11i", 0.37 - 0.11j),
            ("2i", 2j),
            ("-i", -1j),
            ("1+i", 1 + 1j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2j", "1++2i", "i2"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_complex(text)

    def test_format_round_trips(self):
        for z in (0.6 + 0.2j, -1.1515845624170522 - 1.0239607264887145j, 3.0 + 0j):
            assert parse_complex(format_complex(z)) == z


class TestCheckCommand:
    BASE = ["check", "--points", "2", "--checks", "unitarity,theta"]

    def test_exit_zero_on_pass(self, capsys):
        rc = main(self.BASE)
        assert rc == 0
        out = capsys.readouterr().out
        assert "suite: PASS" in out

    def test_spec_example_invocation(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "check", "--p", "0.31", "--q-half", "0.6855654600401044",
                "--seed", "7", "--format", "json", "--points", "2",
                "--checks", "unitarity,nforms", "--output", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "1"
        assert doc["summary"]["fail"] == 0
        assert {"name", "point", "residual", "status", "detail"} == set(
            doc["reports"][0]
        )

    def test_alpha_beta_offset_forces_failure(self):
        rc = main(
            ["check", "--checks", "magic.critical", "--points", "2",
             "--alpha-beta-offset", "0.1"]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "p,causes",
        [
            pytest.param("1.5", ["|p| must be < 1"], id="divergent"),
            # the automatic order stops at 200; p = 0.9 needs 263 at 1e-9
            pytest.param(
                "0.9", ["capped at 200", "263", "--truncation-order"],
                id="beyond-auto-order",
            ),
        ],
    )
    def test_bad_nome_is_config_error(self, capsys, p, causes):
        rc = main(["check", "--p", p, "--points", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        for cause in causes:
            assert cause in err

    def test_unknown_check_is_config_error(self, capsys):
        rc = main(["check", "--checks", "bogus", "--points", "2"])
        assert rc == 2
        assert "unknown check" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, capsys):
        rc = main(["check", "--seed", "-1", "--points", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed ") and "-1" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tolerance", "nan", "tolerance must be finite and > 0, got nan"),
            ("--singular-guard", "inf", "singular_guard must be finite and > 0, got inf"),
            ("--alpha-beta-offset", "nan", "alpha_beta_offset must be finite, got nan"),
        ],
    )
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, flag, value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{flag[2:].replace('-', '_')} = {value}\n")
        for argv in ([flag, value], ["--config", str(cfg)]):
            rc = main(["check", "--points", "1", "--checks", "theta.inversion", *argv])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "0.85", "--points", "4", "--seed", "12", "--truncation-order", "200"],
            ["--p", "0.8", "--points", "3"],
        ],
    )
    def test_tripped_samples_write_no_warning(self, argv, capsys):
        # a grid read of R evaluates its tripped samples too, where products
        # may overflow; the guards decide, and nothing reaches stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            rc = main(["check", *argv, "--format", "json", "--no-timestamp"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["summary"]["skipped"] > 0

    # the unguarded gauge entry rmatrix._g22 overflows here, and numpy warns
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_non_finite_residual_is_written_as_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        rc = main(["check", "--p", "0.8", "--points", "5", "--seed", "17",
                   "--format", "json", "--no-timestamp"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        bare = [r for r in doc["reports"]
                if r["residual"] is None and r["status"] != "skipped-singular"]
        assert [(r["name"], r["point"]["index"]) for r in bare] == [
            ("cor22chain.step4", 1), ("cor22chain.step4", 2)]
        for r in bare:
            assert r["status"] == "fail"
            assert r["detail"] == "residual is not finite"

    def test_byte_identical_rerun(self, tmp_path):
        args = [
            "check", "--seed", "12", "--points", "2", "--format", "json",
            "--no-timestamp", "--checks", "theta,unitarity,magic",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_present_unless_suppressed(self, tmp_path):
        out = tmp_path / "r.json"
        main(["check", "--points", "2", "--checks", "theta.inversion",
              "--format", "json", "--output", str(out)])
        assert "timestamp" in json.loads(out.read_text())
        main(["check", "--points", "2", "--checks", "theta.inversion",
              "--format", "json", "--no-timestamp", "--output", str(out)])
        assert "timestamp" not in json.loads(out.read_text())

    def test_module_entry_point_is_byte_stable(self, tmp_path):
        args = ["check", "--points", "1", "--checks", "theta", "--format", "json",
                "--no-timestamp"]
        runs = [_cold_run(args, tmp_path) for _ in range(2)]
        assert [run.returncode for run in runs] == [0, 0]
        runs = [run.stdout for run in runs]
        assert json.loads(runs[0])["summary"]["fail"] == 0
        assert runs[0] == runs[1]

    def test_results_do_not_depend_on_cache_state(self, tmp_path, monkeypatch):
        # a fresh interpreter against one whose pattern tables and kernel
        # caches another grid has already filled
        args = ["check", "--points", "3", "--format", "json", "--no-timestamp"]
        cold = _cold_run(args, tmp_path)
        run_suite(GridSpec(seed=1, n_points=3))
        # and a one-point read of R at another point
        pt = GridSpec(seed=1, n_points=1).sample_points()[0]
        build_r(RPoint(pt.zs[0], pt.s, pt.params)).at(pt.s)
        # the kernel, R-factor and gauge caches are among those filled
        for cache in (_powers, _poch2_table, _z_factors, _grid_z_factors, _grid_tables, _g22):
            assert cache.cache_info().currsize, cache
        assert _GRID
        monkeypatch.delenv("DYNELL_CONFIG", raising=False)
        warm = tmp_path / "warm.json"
        assert main(args + ["--output", str(warm)]) == cold.returncode
        assert json.loads(cold.stdout)["summary"]["pass"] > 0
        assert warm.read_bytes() == cold.stdout


class TestSharedValueCache:
    """One-point reads and grid passes read one value cache: what either
    forms there leaves the other's results as a cold process gives them."""

    ARGS = ["check", "--points", "3", "--format", "json", "--no-timestamp"]

    @staticmethod
    def _grid_arguments():
        """The (z, Params) keys a cold pass of the ARGS grid forms, with
        what it forms at each: [Theta, rho]."""
        _clear_value_caches()
        run_suite(GridSpec(n_points=3))
        return {key: [value is not None for value in slot] for key, slot in _GRID.items()}

    def test_one_point_reads_at_the_grid_arguments_leave_its_bytes(self, tmp_path, monkeypatch):
        cold = _cold_run(self.ARGS, tmp_path)
        formed = self._grid_arguments()
        s_of = {pt.params: pt.s for pt in GridSpec(n_points=3).sample_points()}
        _clear_value_caches()
        # R's factors of z first, by one-point misses, then the rest
        for (z, params), (_, rho) in formed.items():
            if rho and params in s_of:
                try:
                    build_r(RPoint(z, s_of[params], params)).at(s_of[params])
                except SingularPointError:
                    pass
        for (z, params), (th, rho) in formed.items():
            for f, read in zip(READERS, (th, rho, rho)):
                if read:
                    outcome(f, z, params)
        assert _z_factors.cache_info().currsize and not _grid_z_factors.cache_info().currsize
        monkeypatch.delenv("DYNELL_CONFIG", raising=False)
        warm = tmp_path / "warm.json"
        assert main(self.ARGS + ["--output", str(warm)]) == cold.returncode
        assert warm.read_bytes() == cold.stdout

    def test_a_grid_pass_leaves_the_one_point_values(self):
        keys = list(self._grid_arguments())
        after_grid = [[outcome(f, z, params) for z, params in keys] for f in READERS]
        _clear_value_caches()
        assert [[outcome(f, z, params) for z, params in keys] for f in READERS] == after_grid


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "dynell.cfg"
        cfg.write_text(
            "# suite configuration\n"
            "points = 2\n"
            "checks = theta.inversion\n"
            "format = json\n"
            "no_timestamp = true\n"
        )
        rc = main(["check", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_echo"]["points"] == 2

    def test_explicit_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "dynell.cfg"
        cfg.write_text("points = 9\nchecks = theta.inversion\n")
        rc = main(["check", "--config", str(cfg), "--points", "2",
                   "--format", "json", "--no-timestamp"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_echo"]["points"] == 2

    def test_explicit_no_timestamp_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "dynell.cfg"
        cfg.write_text("no_timestamp = no\npoints = 1\nchecks = theta.inversion\n")
        rc = main(["check", "--config", str(cfg), "--no-timestamp",
                   "--format", "json"])
        assert rc == 0
        assert "timestamp" not in json.loads(capsys.readouterr().out)

    def test_env_var_default_path(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("points = 2\nchecks = theta.inversion\n")
        monkeypatch.setenv("DYNELL_CONFIG", str(cfg))
        rc = main(["check", "--format", "json", "--no-timestamp"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_echo"]["points"] == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("zz_top = 1\n")
        rc = main(["check", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["format = xml", "no_timestamp = maybe"])
    def test_bad_value_rejected_naming_key_and_value(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\npoints = 1\nchecks = theta.inversion\n")
        rc = main(["check", "--config", str(cfg)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        key, value = line.split(" = ")
        assert captured.err.startswith(f"error: config key {key} = {value!r}: ")

    def test_switch_values(self, tmp_path, capsys):
        for value, stamped in [("1", False), ("Yes", False), ("0", True), ("false", True)]:
            cfg = tmp_path / "on.cfg"
            cfg.write_text(f"no_timestamp = {value}\npoints = 1\nchecks = theta.inversion\n")
            assert main(["check", "--config", str(cfg), "--format", "json"]) == 0
            assert ("timestamp" in json.loads(capsys.readouterr().out)) == stamped

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("points 2\n")
        rc = main(["check", "--config", str(cfg)])
        assert rc == 2


class TestEvalCommand:
    def test_r_matrix_dump(self, capsys):
        rc = main(["eval", "R", "--z", "0.6+0.2i", "--s", "0.37+0.11i"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "R[0,0] = 1.3517393971096" in out
        assert out.count("\n") == 16

    def test_theta_at_one_prints_zero(self, capsys):
        rc = main(["eval", "theta", "--z", "1"])
        assert rc == 0
        assert "theta(1) = 0.0+0.0i" in capsys.readouterr().out

    def test_rho_singular_point_exits_one(self, capsys):
        rc = main(["eval", "rho", "--z", "1"])
        assert rc == 1
        assert "singular point" in capsys.readouterr().err

    @pytest.mark.parametrize("obj", ["Rtilde", "N", "G", "Gamma"])
    def test_other_objects_print(self, obj, capsys):
        rc = main(["eval", obj, "--z", "0.8+0.1i", "--s", "0.4+0.2i"])
        assert rc == 0
        assert f"{obj}[0,0]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv,where",
        [
            (["N", "--s", "30"], "s = 30"),
            (["G", "--s", "30"], "s = 30"),
            (["Gamma", "--s", "-30"], "s = -30"),
            (["R", "--s", "40"], "z = 1.5+0.0i, s = 40"),
            (["theta", "--z", "1e300"], "z = 1e300"),
            (["rho", "--z", "1e200"], "z = 1e200"),
        ],
    )
    def test_overflow_exits_one(self, argv, where, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            rc = main(["eval"] + argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{argv[0]} is not finite at {where} (floating-point overflow)\n"
        )

    def test_full_precision_round_trip(self, capsys):
        main(["eval", "G", "--s", "0.4+0.2i"])
        out = capsys.readouterr().out
        val = out.splitlines()[0].split(" = ")[1]
        parse_complex(val)  # must parse back exactly
