import argparse
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dnls_nflab import checks
from dnls_nflab.cli import Ranged, build_parser, main, parse_args

GOLDEN_REPORTS = Path(__file__).parent / "golden" / "cli_reports_sha256.json"

# Each run writes its reports into the working directory; the golden file
# maps every report (and each run's stdout) to the digest of its body.
CLI_REPORT_RUNS = {
    "nf4": ["nf4", "--modes", "4", "--audit", "--divisor-bound", "6",
            "--divisor-csv", "nf4_divisor.csv"],
    "nf6": ["nf6", "--modes", "6", "--verify-ktilde", "--resonant-csv",
            "nf6_resonant.csv", "--dump-k", "nf6_k.json"],
    "identities": ["identities", "--bound", "6", "--report", "identities.csv"],
    "stability": ["stability", "--s", "3", "--eps", "0.5", "--modes", "8", "--r", "2",
                  "--dt", "1e-2", "--seed", "7", "--out", "stability.csv"],
    "simulate": ["simulate", "--modes", "6", "--init", "planewave:2,0.3", "--t-end", "0.5",
                 "--dt", "1e-3", "--track-s", "2", "--record-interval", "0.1",
                 "--out", "simulate.csv", "--dump-final", "simulate_final.json"],
    "verify-all": ["verify-all", "--modes", "6"],
}


def _read_manifest(path):
    with open(path) as fh:
        line = fh.readline()
    assert line.startswith("# manifest: ")
    return json.loads(line[len("# manifest: ") :])


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["nf4", "--no-such-flag"])
    assert err.value.code == 2


def test_init_outside_truncation_is_usage_error(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--modes", "8", "--init", "planewave:40,0.1", "--t-end", "0.01",
         "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "mode 40 exceeds truncation 8" in err
    assert not out.exists()


def test_unwritable_report_is_usage_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "traj.csv"
    code = main(
        ["simulate", "--modes", "4", "--init", "planewave:1,0.1", "--t-end", "0.01",
         "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"cannot write report to {out}" in err


def test_nf4_passes(tmp_path):
    out = tmp_path / "f4.json"
    code = main(["nf4", "--modes", "4", "--dump-f4", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["manifest"]["subcommand"] == "nf4"
    assert payload["manifest"]["outcome"] == "pass"
    assert len(payload["data"]) > 0


def test_identities_report(tmp_path):
    out = tmp_path / "ids.csv"
    code = main(["identities", "--bound", "7", "--report", str(out)])
    assert code == 0
    manifest = _read_manifest(out)
    assert manifest["parameters"]["bound"] == 7
    lines = out.read_text().splitlines()
    assert lines[1] == "x1,x2,x3,y1,y2,y3,I,II"
    # every enumerated row certifies both sums vanish
    assert all(line.endswith(",0,0") for line in lines[2:])
    known = "1,5,6,2,3,7,0,0"
    assert any(line == known for line in lines[2:])


def test_identities_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["identities", "--bound", "6", "--report", str(a)])
    main(["identities", "--bound", "6", "--report", str(b)])
    body_a = a.read_text().splitlines()[1:]
    body_b = b.read_text().splitlines()[1:]
    assert body_a == body_b


def test_identities_random_pairs_pass_and_fail(monkeypatch, capsys):
    assert main(["identities", "--bound", "3", "--random", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS random rational pairs (2 pairs)"
    # a kernel whose sums do not vanish: a FAIL line and exit 1, no traceback
    monkeypatch.setattr(checks, "nine_term_sums", lambda pair: (1, 0))
    assert main(["identities", "--bound", "3", "--random", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "FAIL random rational pairs (2 pairs)"
    assert "Traceback" not in out + err


def test_simulate_planewave(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--modes",
            "6",
            "--init",
            "planewave:1,0.3",
            "--t-end",
            "1.0",
            "--dt",
            "0.001",
            "--track-s",
            "2,3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "time,mass,momentum,energy,norm_s=2,norm_s=3"
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(0.3**2 * 2 * math.pi, rel=1e-12)


def test_simulate_state_file_init(tmp_path):
    state = tmp_path / "init.json"
    state.write_text('[{"j": 1, "re": 0.2, "im": 0.0}, {"j": -2, "re": 0.0, "im": 0.1}]')
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--modes", "4", "--init", str(state), "--t-end", "0.5",
         "--dt", "0.001", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()


def test_dump_final_file_is_an_init_file(tmp_path):
    # a plane wave's round-off populates every other mode near 1e-19
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    run = ["simulate", "--modes", "6", "--t-end", "0.5", "--dt", "1e-3", "--out", str(tmp_path / "traj.csv")]
    assert main(run + ["--init", "planewave:2,0.3", "--dump-final", str(first)]) == 0
    assert len(json.loads(first.read_text())) == 12
    assert main(run + ["--init", str(first), "--dump-final", str(second)]) == 0
    assert len(json.loads(second.read_text())) == 12


def test_stability_threshold_failure(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        ["stability", "--s", "3", "--eps", "0.4", "--modes", "8", "--r", "1",
         "--seed", "3", "--dt", "0.002", "--threshold", "1", "--out", str(out)]
    )
    assert code == 1
    manifest = _read_manifest(out)
    assert manifest["outcome"] == "fail"
    lines = out.read_text().splitlines()
    assert lines[1] == "t,norm_ratio,mass_drift,energy_drift"


def test_stability_pass(tmp_path):
    code = main(
        ["stability", "--s", "3", "--eps", "0.35", "--modes", "8", "--r", "1",
         "--seed", "3", "--dt", "0.002"]
    )
    assert code == 0


def test_verify_all_small():
    assert main(["verify-all", "--modes", "4"]) == 0


def test_verify_all_reports_a_failing_check(monkeypatch, capsys):
    import dnls_nflab.checks
    from dnls_nflab.poly import build_Q

    # twice Q leaves Q as the order-4 residual
    monkeypatch.setattr(dnls_nflab.checks, "build_Q", lambda M: build_Q(M).scaled(2))
    assert main(["verify-all", "--modes", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL order-4 homological equation (M=4)"
    assert len(lines) == 11 and all(line.startswith("PASS ") for line in lines[1:10])
    assert lines[10] == "verify-all: FAIL"


@pytest.mark.parametrize("argv", [["verify-all"], ["nf6", "--verify-ktilde"]])
def test_a_resonant_survivor_is_reported_before_it_is_refused(monkeypatch, capsys, argv):
    import dnls_nflab.order4
    from dnls_nflab.coeffs import ExactCoeff
    from dnls_nflab.order4 import compute_R6
    from dnls_nflab.poly import Monomial, PolyHamiltonian

    survivor = Monomial.of((-4, 1, 3), (-3, -1, 4))
    assert survivor.momentum() == survivor.square_divisor() == 0
    bad = compute_R6(4) + PolyHamiltonian.from_terms(4, [(survivor, ExactCoeff.real(Fraction(1, 7), pi_power=2))])
    monkeypatch.setattr(checks, "compute_R6", lambda M: bad)
    monkeypatch.setattr(dnls_nflab.order4, "compute_R6", lambda M: bad)
    # the survivor is non-normal, so the action part passes; the resonant
    # cancellation reports it, and the order-6 solve then refuses it
    with pytest.raises(ArithmeticError, match=r"q\[-4, 1, 3\]\*qbar\[-3, -1, 4\]"):
        main([*argv, "--modes", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "PASS sextic action part matches closed form (M=4)",
        "FAIL resonant cancellation (8 monomials)",
    ]
    assert lines[:-2] == (["PASS order-4 homological equation (M=4)"] if argv == ["verify-all"] else [])


def test_nf6_audit_f6(capsys):
    assert main(["nf6", "--modes", "4", "--audit-f6"]) == 0
    assert "  sextic generator growth constant: 0.0647818\n" in capsys.readouterr().out


def test_config_file_flags_win(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"bound": 5, "report": None}))
    args = parse_args(["--config", str(conf), "identities", "--bound", "7"])
    assert args.bound == 7  # explicit flag beats config
    args = parse_args(["--config", str(conf), "identities", "--bound", "10"])
    assert args.bound == 10  # even when it equals the default
    args = parse_args(["--config", str(conf), "identities"])
    assert args.bound == 5  # config fills defaults


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "bad --config"),
        ("{bound: 5", "bad --config"),
        ("[5]", "expected a JSON object"),
        ('{"bound": 5, "bogus": 1}', "does not take: bogus"),
    ],
    ids=["missing", "malformed", "not-an-object", "unknown-key"],
)
def test_bad_config_is_usage_error(tmp_path, capsys, text, message):
    conf = tmp_path / "conf.json"
    if text is not None:
        conf.write_text(text)
    assert main(["--config", str(conf), "identities", "--bound", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-all", "--modes", "1"], "--modes must be at least 2, got 1"),
        (["nf4", "--modes", "0"], "--modes must be at least 1, got 0"),
        (["nf6", "--modes", "1"], "--modes must be at least 2, got 1"),
        (["stability", "--s", "3", "--eps", "0.3", "--modes", "0"], "--modes must be at least 1, got 0"),
        (["simulate", "--modes", "0", "--init", "planewave:1,0.1"], "--modes must be at least 1, got 0"),
        (["nf4", "--audit", "--divisor-bound", "-3"], "--divisor-bound must be between 1 and 1058, got -3"),
        (["nf4", "--audit", "--divisor-bound", "1059"], "--divisor-bound must be between 1 and 1058, got 1059"),
        (["identities", "--bound", "-1"], "--bound must be at least 1, got -1"),
        (["identities", "--random", "-1"], "--random must be at least 0, got -1"),
        (["identities", "--random", "3", "--seed", "-1"],
         f"--seed must be between 0 and {2**128 - 1}, got -1"),
        (["verify-all", "--seed", str(2**128)], f"--seed must be between 0 and {2**128 - 1}"),
        (["verify-all", "--identities-bound", "-5"], "--identities-bound must be at least 1, got -5"),
        (["identities", "--bound", "101"], "--bound must be at most 100, got 101"),
        (["verify-all", "--identities-bound", "101"], "--identities-bound must be at most 100, got 101"),
    ],
    ids=["verify-all-modes", "nf4-modes", "nf6-modes", "stability-modes", "simulate-modes",
         "divisor-bound-low", "divisor-bound-high", "identities-bound", "identities-random",
         "identities-seed", "verify-all-seed", "verify-all-identities-bound",
         "identities-bound-high", "verify-all-identities-bound-high"],
)
def test_out_of_range_integer_option_is_usage_error(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert message in captured.err


STABILITY = ["stability", "--s", "3", "--eps", "0.3", "--modes", "4"]
SIMULATE = ["simulate", "--modes", "4", "--init", "planewave:1,0.1"]


@pytest.mark.parametrize(
    "argv, conf, message",
    [
        (SIMULATE + ["--dt", "0"], None, "--dt must be greater than 0, got 0.0"),
        (STABILITY + ["--dt", "0"], None, "--dt must be greater than 0, got 0.0"),
        (STABILITY + ["--eps", "-0.3"], None, "--eps must be strictly between 0 and 1, got -0.3"),
        (STABILITY + ["--eps", "1"], None, "--eps must be strictly between 0 and 1, got 1.0"),
        (STABILITY + ["--dt", "nan"], None, "--dt must be greater than 0, got nan"),
        (["simulate", "--modes", "4", "--init", "planewave:1,0.1"], {"dt": -1e-3},
         "--dt must be greater than 0, got -0.001"),
        (["stability", "--s", "3", "--eps", "0.3"], {"dt": 0}, "--dt must be greater than 0, got 0"),
        (["stability", "--s", "3", "--eps", "0.3"], {"dt": None}, "invalid float value for --dt: null"),
        (["verify-all"], {"modes": 4.5}, "invalid int value for --modes: 4.5"),
        (["stability", "--s", "-1", "--eps", "0.3"], None, "--s must be at least 0, got -1.0"),
        (SIMULATE + ["--track-s", "x"], None, "bad --track-s 'x': expected comma-separated numbers"),
        (SIMULATE + ["--t-end", "nan"], None, "--t-end must be greater than 0, got nan"),
        (SIMULATE + ["--t-end", "inf"], None, "--t-end must be finite, got inf"),
        (SIMULATE + ["--record-interval", "nan"], None, "--record-interval must be greater than 0, got nan"),
        (SIMULATE + ["--record-interval", "-1"], None, "--record-interval must be greater than 0, got -1.0"),
        (SIMULATE + ["--track-s=-1"], None, "--track-s values must be finite and at least 0, got -1.0"),
        (STABILITY + ["--threshold", "-1"], None, "--threshold must be at least 1, got -1.0"),
        (STABILITY + ["--r", "nan"], None, "--r must be greater than 0, got nan"),
        (STABILITY + ["--r", "inf"], None, "--r must be finite, got inf"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "planewave:1,nan"], None,
         "bad --init 'planewave:1,nan': amplitude nan is not finite"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "planewave:1,inf"], None,
         "bad --init 'planewave:1,inf': amplitude inf is not finite"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "nan_state.json"], None,
         "bad --init 'nan_state.json': mode 1 has a non-finite amplitude (nan+0j)"),
        # finite amplitudes whose state is not: the mass, or A sqrt(2 pi) too, overflows
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "planewave:1,1e200"], None,
         "bad --init 'planewave:1,1e200': initial mass inf is not finite"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "planewave:1,1e308"], None,
         "bad --init 'planewave:1,1e308': initial mass inf is not finite"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "big_state.json"], None,
         "bad --init 'big_state.json': initial mass inf is not finite"),
        # a mode is a JSON integer and each part a JSON number, never a bool or a string
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "frac_mode.json"], None,
         "bad --init 'frac_mode.json': mode 1.5 is not an integer"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "bool_mode.json"], None,
         "bad --init 'bool_mode.json': mode true is not an integer"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "string_part.json"], None,
         "bad --init 'string_part.json': mode 1: re part \"0.1\" is not a number"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "bool_part.json"], None,
         "bad --init 'bool_part.json': mode 1: im part true is not a number"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "huge_part.json"], None,
         "bad --init 'huge_part.json': int too large to convert to float"),
        (["simulate", "--modes", "4", "--t-end", "0.01", "--init", "missing_part.json"], None,
         "bad --init 'missing_part.json': row {\"j\": 1, \"re\": 0.1} is not an object with the keys j, re and im"),
        # the Sobolev weight |j|^(2s) at |j| = --modes overflows a float
        (["stability", "--s", "120", "--eps", "0.5", "--r", "1", "--modes", "32"], None,
         "--s 120 is too large for --modes 32: the weight 32^240 overflows a float"),
        (SIMULATE + ["--t-end", "0.01", "--track-s", "400"], None,
         "--track-s 400 is too large for --modes 4: the weight 4^800 overflows a float"),
    ],
    ids=["simulate-dt", "stability-dt", "stability-eps-low", "stability-eps-high", "stability-dt-nan",
         "simulate-dt-config", "stability-dt-config", "stability-dt-config-null",
         "verify-all-modes-config-float", "stability-s-negative", "simulate-track-s-not-a-number",
         "simulate-t-end-nan", "simulate-t-end-inf", "simulate-record-interval-nan",
         "simulate-record-interval-negative", "simulate-track-s-negative", "stability-threshold-negative",
         "stability-r-nan", "stability-r-inf", "simulate-init-nan", "simulate-init-inf",
         "simulate-init-json-nan", "simulate-init-mass-overflow", "simulate-init-state-overflow",
         "simulate-init-json-mass-overflow", "simulate-init-json-fractional-mode",
         "simulate-init-json-bool-mode", "simulate-init-json-string-part", "simulate-init-json-bool-part",
         "simulate-init-json-huge-part", "simulate-init-json-missing-part", "stability-s-weight-overflow",
         "simulate-track-s-weight-overflow"],
)
def test_out_of_range_float_option_is_usage_error(tmp_path, monkeypatch, capsys, argv, conf, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan_state.json").write_text('[{"j": 1, "re": NaN, "im": 0.0}]')
    (tmp_path / "big_state.json").write_text('[{"j": 1, "re": 1e200, "im": 0.0}]')
    (tmp_path / "frac_mode.json").write_text('[{"j": 1.5, "re": 0.1, "im": 0}]')
    (tmp_path / "bool_mode.json").write_text('[{"j": true, "re": 0.1, "im": 0}]')
    (tmp_path / "string_part.json").write_text('[{"j": 1, "re": "0.1", "im": 0}]')
    (tmp_path / "bool_part.json").write_text('[{"j": 1, "re": 0.1, "im": true}]')
    (tmp_path / "huge_part.json").write_text('[{"j": 1, "re": 1' + "0" * 400 + ', "im": 0}]')
    (tmp_path / "missing_part.json").write_text('[{"j": 1, "re": 0.1}]')
    if conf is not None:
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        argv = ["--config", str(path)] + argv
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert message in captured.err
    assert not (tmp_path / "trajectory.csv").exists()


def test_range_limits_are_accepted_and_apply_to_config(tmp_path, capsys):
    assert parse_args(["nf4", "--divisor-bound", "1058"]).divisor_bound == 1058
    assert parse_args(["nf4", "--modes", "1058"]).modes == 1058
    assert parse_args(["nf6", "--modes", "100"]).modes == 100
    assert parse_args(["verify-all", "--modes", "100"]).modes == 100
    assert parse_args(["identities", "--bound", "100"]).bound == 100
    assert parse_args(["verify-all", "--identities-bound", "100"]).identities_bound == 100
    assert parse_args(["verify-all", "--modes", "2"]).modes == 2
    assert parse_args(STABILITY + ["--eps", "0.999", "--dt", "1e-9"]).eps == 0.999
    assert parse_args(["stability", "--s", "0", "--eps", "0.3"]).s == 0
    assert parse_args(STABILITY + ["--threshold", "1"]).threshold == 1
    assert parse_args(SIMULATE).record_interval is None
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"modes": 1}))
    assert main(["--config", str(conf), "verify-all"]) == 2
    assert "--modes must be at least 2, got 1" in capsys.readouterr().err


def test_required_options_can_come_from_config(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"eps": 0.3}))
    args = parse_args(["--config", str(conf), "stability", "--s", "3"])
    assert (args.s, args.eps) == (3.0, 0.3)
    conf.write_text(json.dumps({"s": 2, "eps": 0.2}))
    args = parse_args(["--config", str(conf), "stability", "--eps", "0.4"])
    assert (args.s, args.eps) == (2, 0.4)  # the flag still wins
    conf.write_text(json.dumps({"modes": 4, "init": "planewave:1,0.1"}))
    args = parse_args(["--config", str(conf), "simulate"])
    assert (args.modes, args.init) == (4, "planewave:1,0.1")


@pytest.mark.parametrize(
    "conf, argv",
    [
        ({"eps": 0.3}, ["stability"]),
        ({"s": 3}, ["stability"]),
        ({"eps": None}, ["stability", "--s", "3"]),
        ({"modes": 4}, ["simulate"]),
        ({"dt": 1e-2}, ["simulate", "--init", "planewave:1,0.1"]),
    ],
    ids=["stability-s", "stability-eps", "stability-eps-null", "simulate-init", "simulate-modes"],
)
def test_required_option_missing_from_flags_and_config_exits_2(tmp_path, capsys, conf, argv):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    with pytest.raises(SystemExit) as err:
        main(["--config", str(path)] + argv)
    assert err.value.code == 2
    assert "the following arguments are required" in capsys.readouterr().err


def test_required_option_from_config_is_range_checked(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"eps": 1.5}))
    assert main(["--config", str(conf), "stability", "--s", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eps must be strictly between 0 and 1, got 1.5" in captured.err


@pytest.mark.parametrize(
    "argv, work",
    [
        (["nf4", "--modes", "1059"], "checks.order4_homological"),
        (["nf6", "--modes", "101"], "order4.compute_R6"),
        (["verify-all", "--modes", "101"], "checks.exact_battery"),
    ],
    ids=["nf4", "nf6", "verify-all"],
)
def test_modes_past_the_enumerator_radius_is_usage_error(monkeypatch, capsys, argv, work):
    # build_F4(M) enumerates quadruples within M, compute_R6(M) within 3M,
    # and the enumerator's radius is 1058; the order-6 checks enumerate
    # triple pairs within M, up to the triple-pair enumerator's limit 100
    import importlib

    def never(*args, **kwargs):
        raise AssertionError("worked before checking --modes")

    module, name = work.split(".")
    monkeypatch.setattr(importlib.import_module(f"dnls_nflab.{module}"), name, never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    cap = 1058 if argv[0] == "nf4" else 100
    assert captured.err == f"usage error: --modes must be at most {cap}, got {cap + 1}\n"


def test_every_numeric_option_declares_its_range():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for subcommand, sub in subparsers.choices.items():
        for action in sub._actions:
            numeric = action.type in (int, float) or type(action.default) in (int, float)
            assert not numeric or isinstance(action.type, Ranged), (subcommand, action.dest)


@pytest.mark.parametrize("flag", ["--out", "--dump-final"])
def test_unwritable_simulate_output_fails_before_integrating(tmp_path, monkeypatch, capsys, flag):
    import dnls_nflab.flows

    def never(*args, **kwargs):
        raise AssertionError("integrated before checking the output paths")

    monkeypatch.setattr(dnls_nflab.flows, "evolve_vec", never)
    bad = tmp_path / "no-such-dir" / "file"
    argv = ["simulate", "--modes", "4", "--init", "planewave:1,0.1", "--t-end", "100",
            "--out", str(tmp_path / "traj.csv"), flag, str(bad)]
    assert main(argv) == 2
    assert f"cannot write report to {bad}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, work",
    [
        (["nf4", "--modes", "4", "--audit", "--dump-f4", "{bad}"], "checks.order4_homological"),
        (["nf4", "--modes", "4", "--divisor-csv", "{bad}"], "checks.order4_homological"),
        (["nf6", "--modes", "6", "--verify-ktilde", "--dump-k", "{bad}"], "order4.compute_R6"),
        (["nf6", "--modes", "6", "--resonant-csv", "{bad}"], "order4.compute_R6"),
        (["identities", "--bound", "3", "--report", "{bad}"], "identities.enumerate_triple_pairs"),
        (["identities", "--bound", "3", "--report", "{dir}"], "identities.enumerate_triple_pairs"),
        (["stability", "--s", "3", "--eps", "0.3", "--modes", "4", "--out", "{bad}"],
         "stability.stability_ensemble"),
    ],
    ids=["nf4-dump-f4", "nf4-divisor-csv", "nf6-dump-k", "nf6-resonant-csv", "identities-report",
         "identities-report-is-a-directory", "stability-out"],
)
def test_unwritable_report_path_fails_before_any_work(tmp_path, monkeypatch, capsys, argv, work):
    import importlib

    def never(*args, **kwargs):
        raise AssertionError("worked before checking the report paths")

    module, name = work.split(".")
    monkeypatch.setattr(importlib.import_module(f"dnls_nflab.{module}"), name, never)
    bad = tmp_path if "{dir}" in argv else tmp_path / "no-such-dir" / "file"
    assert main([str(bad) if arg in ("{bad}", "{dir}") else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "it is a directory" if bad == tmp_path else f"{bad.parent} is not a writable directory"
    assert captured.err == f"usage error: cannot write report to {bad}: {reason}\n"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nonfinite_blowup_exit_code(tmp_path):
    # Lawson RK4 at dt = 0.3 overflows to nan within one record interval;
    # a non-finite norm is a blow-up, not a trajectory
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--modes", "16", "--init", "planewave:1,0.8", "--dt", "0.3",
         "--t-end", "60", "--record-interval", "60",
         "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["stability", "--s", "3", "--eps", "1e-300", "--modes", "4"],
        ["stability", "--s", "3", "--eps", "0.5", "--r", "2000", "--modes", "4"],
        ["stability", "--s", "3", "--eps", "1e-300", "--r", "1.02", "--modes", "4"],
        ["simulate", "--modes", "4", "--init", "planewave:1,0.1", "--t-end", "1e308"],
    ],
    ids=["stability-eps", "stability-r", "stability-steps", "simulate-t-end"],
)
def test_overflowing_horizon_is_a_numerical_failure(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_numerical_failure_exit_code(capsys):
    # an impossible step budget surfaces as exit 3 through the CLI
    code = main(
        ["stability", "--s", "3", "--eps", "0.2", "--modes", "8", "--r", "4",
         "--seed", "1", "--dt", "0.000000001"]
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")


def _report_body_digest(path: Path) -> str:
    """SHA-256 of a report without its manifest, which carries the
    timestamp, git describe and the full parameter set."""
    text = path.read_text()
    if path.suffix == ".json":
        payload = json.loads(text)
        # a --dump-final state file is a bare list of modes with no manifest
        body = text if isinstance(payload, list) else json.dumps(payload["data"], indent=1)
    else:
        first, body = text.split("\n", 1)
        assert first.startswith("# manifest: ")
    return hashlib.sha256(body.encode()).hexdigest()


def _cli_report_digests(workdir: Path, capsys) -> dict[str, str]:
    digests = {}
    for name, argv in CLI_REPORT_RUNS.items():
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        digests[f"{name}.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        for arg in argv:
            if (workdir / arg).is_file():
                digests[arg] = _report_body_digest(workdir / arg)
    return digests


def test_cli_reports_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN_REPORTS.read_text())
    assert _cli_report_digests(tmp_path, capsys) == golden["reports"]
