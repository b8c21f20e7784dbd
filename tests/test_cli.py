import json
import os

import pytest

from nonlocal_lab import cli
from nonlocal_lab.errors import DomainError, Unsupported
from nonlocal_lab.pvquad import QuadratureSpec


def test_couple_zero_delta(capsys):
    assert cli.run(["couple", "--d", "2", "--s", "0.5", "--delta", "0"]) == 0
    out = capsys.readouterr().out
    assert "epsilon = b(delta=0) = 0" in out


@pytest.mark.parametrize(
    "argv",
    [["--d", "2", "--s", "5"], ["--d", "2", "--s", "nan"], ["--d", "1", "--s", "0.5"]],
    ids=["s=5", "s=nan", "d=1"],
)
def test_couple_zero_delta_checks_the_parameters(capsys, argv):
    # b(0) = 0 is not computed, but (d, s) is still checked
    assert cli.run(["couple", *argv, "--delta", "0"]) == 1
    out, err = capsys.readouterr()
    assert "error:" in err
    assert "epsilon" not in out


def test_regularity_infinite_q_exits_one(capsys):
    rc = cli.run(["regularity", "--d", "2", "--delta", "0.2", "--t", "0.5", "--q", "inf"])
    assert rc == 1
    assert "error: integrability q" in capsys.readouterr().err


def test_regularity_negative_seed_exits_one(capsys):
    argv = ["--seed", "-1", "regularity", "--d", "2", "--delta", "0.2", "--t", "0.5", "--q", "2"]
    assert cli.run(argv) == 1
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--angular-nodes", "16"), ("--radial-nodes", "4")])
def test_quadrature_blind_jackknife_exits_one(capsys, flag, value):
    argv = ["quadrature", "--which", "f1", "--d", "2", "--s", "0.5", "--delta", "0.25", flag, value]
    assert cli.run(argv) == 1
    assert "error: the jackknife pass is no coarser" in capsys.readouterr().err


def test_couple_inverse(capsys):
    assert cli.run(["couple", "--d", "2", "--s", "0.5", "--inverse", "--epsilon", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "delta(epsilon=" in out


def test_fourier_command(capsys):
    assert cli.run(["fourier", "--which", "f2", "--d", "3", "--s", "0.5", "--delta", "0.3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_regularity_command(capsys):
    assert cli.run(["regularity", "--d", "2", "--delta", "0.25", "--t", "0.9", "--q", "4"]) == 0
    assert "converging" in capsys.readouterr().out


def test_riesz_command(capsys):
    assert cli.run(["riesz", "--d", "2", "--delta", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "coupling epsilon = 0.29999999999999999" in out


def test_quadrature_command(capsys):
    rc = cli.run(["quadrature", "--which", "f1", "--d", "2", "--s", "0.5", "--delta", "0.25"])
    assert rc == 0
    assert "converged    = True" in capsys.readouterr().out


def test_verify_command(capsys):
    rc = cli.run(["verify", "--d", "2", "--s", "0.5", "--delta", "0.1"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_far_from_the_unit_sphere(capsys):
    # at |x| = 1000 the oracle is its e1 value scaled by homogeneity, so the
    # coupled operator vanishes there as at e1
    rc = cli.run(["verify", "--d", "2", "--s", "0.5", "--delta", "0.1", "--x", "600,800"])
    assert "PASS" in capsys.readouterr().out
    assert rc == 0


def test_energy_command(capsys):
    assert cli.run(["energy", "--eps", "0.25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s, nonlocal energy, local energy, relative gap"
    # one row per default probe order s = 0.9, 0.95, 0.99
    assert [float(line.split(",")[0]) for line in lines[1:-2]] == [0.9, 0.95, 0.99]
    assert lines[4].startswith("convexity identity:")
    assert lines[-1] == "PASS"


def test_exit_code_two_on_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--d", "2"])
    assert exc.value.code == 2


def test_quadrature_flags_default_to_spec(capsys):
    parser = cli._build_parser()
    for argv in (["verify"], ["sweep"], ["energy"], ["riesz"], ["quadrature"]):
        assert cli._spec_from(parser.parse_args(argv)) == QuadratureSpec()
    # energy reads only the angular resolution, so it declares no window flag
    with pytest.raises(SystemExit) as exc:
        cli.run(["energy", "--r-min", "1e-5"])
    assert exc.value.code == 2


def test_exit_code_one_on_domain_error(capsys):
    # delta far past delta0: the coupling denominator is non-positive
    rc = cli.run(["verify", "--d", "2", "--s", "0.25", "--delta", "0.45"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_one_on_infinite_window(capsys):
    rc = cli.run(["verify", "--d", "2", "--s", "0.5", "--delta", "0.1", "--r-max", "inf"])
    assert rc == 1
    assert "error: window ratio" in capsys.readouterr().err


def test_exit_code_one_on_pole_or_unsupported(capsys, monkeypatch):
    # delta = 0 is a Gamma pole of the f1 pipeline: an error line, not a traceback
    argv = ["fourier", "--which", "f1", "--d", "2", "--s", "0.5", "--delta", "0"]
    assert cli.run(argv) == 1
    assert "error: pipeline 'f1' requires delta > 0" in capsys.readouterr().err

    def unsupported(*args):
        raise Unsupported("no such term")

    monkeypatch.setattr(cli.symcalc, "pipeline", unsupported)
    assert cli.run(argv[:-1] + ["0.2"]) == 1
    assert "error: no such term" in capsys.readouterr().err


def test_sweep_golden_reproducibility(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--d", "2", "--s-range", "0.4:0.6:2", "--delta-range", "0.1", "--out"]
    assert cli.run(args + [str(out1)]) == 0
    assert cli.run(args + [str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == (
        "d,s,delta,epsilon,closed_value,quad_value,abs_residual,rel_residual,nodes,seed,wall_ms"
    )
    assert b1.endswith(b"\n")


@pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["no-directory", "directory"])
def test_sweep_bad_out_exits_two_before_computing(tmp_path, monkeypatch, capsys, target):
    def computed(*args):
        raise AssertionError("a record was computed")

    monkeypatch.setattr(cli, "frac_op_num", computed)
    argv = ["sweep", "--d", "2", "--s-range", "0.5", "--delta-range", "0.1"]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + ["--out", str(tmp_path / target)])
    assert exc.value.code == 2
    assert "argument --out" in capsys.readouterr().err


def test_sweep_json_round_trip(tmp_path, capsys):
    out = tmp_path / "rows.json"
    rc = cli.run(
        ["sweep", "--d", "2", "--s-range", "0.5", "--delta-range", "0.1", "--out", str(out)]
    )
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(cli._CSV_HEADER.split(","))
    rebuilt = cli.SweepRecord(**row)
    assert rebuilt.rel_residual == row["rel_residual"]


def test_emit_refuses_empty(tmp_path):
    with pytest.raises(DomainError):
        cli.emit([], "csv", str(tmp_path / "x.csv"))


def test_emit_no_partial_file(tmp_path):
    target = tmp_path / "out.csv"
    with pytest.raises(DomainError):
        cli.emit([], "csv", str(target))
    assert not target.exists()
    assert not any(p.name.startswith(".emit-") for p in tmp_path.iterdir())


def test_config_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\ns = 0.5\ndelta = 0.2  # comment\n")
    assert cli.run(["--config", str(cfg), "couple"]) == 0
    out1 = capsys.readouterr().out
    assert "b(delta=0.2" in out1
    # explicit flag overrides the config value
    assert cli.run(["--config", str(cfg), "couple", "--delta", "0.05"]) == 0
    out2 = capsys.readouterr().out
    assert "b(delta=0.05" in out2


def test_config_leaks_into_no_later_run(tmp_path, capsys):
    # the parser is built once per process, and a --config run writes only
    # into its own arguments: a plain run after it sees the flags' defaults
    assert cli._build_parser() is cli._build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 3\ns = 0.5\ndelta = 0.2\nangular_nodes = 32\nr_min = 1e-4\n")
    assert cli.run(["--config", str(cfg), "couple"]) == 0
    assert "b(delta=0.2" in capsys.readouterr().out
    assert cli.run(["couple", "--d", "2", "--s", "0.5"]) == 0
    assert capsys.readouterr().out.startswith("epsilon = b(delta=0) = 0\n")
    fresh = cli._build_parser.__wrapped__()
    for argv in (["couple"], ["verify"], ["sweep"], ["quadrature"]):
        assert vars(cli._build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
    with pytest.raises(SystemExit) as exc:
        cli.run(["couple"])
    assert exc.value.code == 2
    assert "missing required argument --d" in capsys.readouterr().err


def test_verify_point_whose_norm_overflows_exits_one(capsys):
    # finite coordinates pass the point parser, but |x| overflows: the closed
    # form and the oracle reject the point, without a numpy overflow warning
    argv = ["verify", "--d", "2", "--s", "0.5", "--delta", "0.2", "--x", "1e200,1e200"]
    assert cli.run(argv) == 1
    assert "finite point" in capsys.readouterr().err


def test_config_boolean_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\ns = 0.5\ndelta = 0.2\nepsilon = 0.3\ninverse = false\n")
    assert cli.run(["--config", str(cfg), "couple"]) == 0
    assert "b(delta=0.2" in capsys.readouterr().out
    cfg.write_text("d = 2\ns = 0.5\nepsilon = 0.3\ninverse = True\n")
    assert cli.run(["--config", str(cfg), "couple"]) == 0
    assert "delta(epsilon=" in capsys.readouterr().out
    # real timings stay off, so the sweep stays byte-reproducible
    out = tmp_path / "rows.csv"
    for flag in ("false", "0"):
        cfg.write_text(f"wall_clock = {flag}\n")
        argv = ["--config", str(cfg), "sweep", "--d", "2", "--s-range", "0.5"]
        assert cli.run(argv + ["--delta-range", "0.1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",42,0")


@pytest.mark.parametrize(
    "text",
    ["inverse = maybe\n", "epsilon = two\n", "d = 2\ns 0.5\n"],
    ids=["bool", "float", "line"],
)
def test_config_bad_value_or_line_exits_two(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.run(["--config", str(cfg), "couple", "--d", "2", "--s", "0.5"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_config_bad_choice_or_missing_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("which = f9\n")
    for path in (cfg, tmp_path / "absent.cfg", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--config", str(path), "quadrature", "--d", "2", "--s", "0.5"])
        assert exc.value.code == 2


def test_seventeen_digit_round_trip():
    vals = [1.0 / 3.0, 2.5664354975514957e-8, -0.8916560058904449]
    for v in vals:
        assert float(cli._fmt(v)) == v


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--d", "2", "--s-range", "abc", "--delta-range", "0.1"],
        ["sweep", "--d", "2", "--s-range", "0.4:0.6", "--delta-range", "0.1"],
        ["sweep", "--d", "2", "--s-range", "0.5", "--delta-range", "0.1:0.2:0"],
        ["energy", "--probe-s", "0.9,x"],
        ["energy", "--probe-s="],
        ["energy", "--probe-s", ","],
    ],
    ids=["word", "two-fields", "zero-count", "bad-token", "empty", "only-commas"],
)
def test_bad_range_exits_two(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv + (["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []))
    assert exc.value.code == 2
    assert "bad range" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "point, message",
    [("0.6", "point must have 2 coordinates"), ("0.6,0.2,0.1", "point must have 2 coordinates"),
     ("0.6,abc", "bad point"), ("nan,0", "bad point"), ("0.6,-inf", "bad point")],
    ids=["short", "long", "word", "nan", "inf"],
)
def test_bad_point_exits_two(capsys, point, message):
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--d", "2", "--s", "0.5", "--delta", "0.2", "--x", point])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, argv",
    [("s_range = abc\n", ["sweep", "--d", "2", "--delta-range", "0.1"]),
     ("x = 0.6\n", ["verify", "--d", "2", "--s", "0.5", "--delta", "0.2"])],
    ids=["range", "point"],
)
def test_bad_range_or_point_in_config_exits_two(tmp_path, capsys, text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []
    with pytest.raises(SystemExit) as exc:
        cli.run(["--config", str(cfg)] + argv + out)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
