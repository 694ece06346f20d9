import json
import math

import pytest

from dnls_nflab.cli import build_parser, emit_plotdata, main, make_manifest


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


def test_stability_threshold_failure(tmp_path):
    out = tmp_path / "run.csv"
    code = main(
        ["stability", "--s", "3", "--eps", "0.4", "--modes", "8", "--r", "1",
         "--seed", "3", "--dt", "0.002", "--threshold", "0.5", "--out", str(out)]
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


def test_emit_plotdata(tmp_path):
    out = tmp_path / "plot.csv"
    manifest = make_manifest("test", {}, "report-only")
    emit_plotdata([("order4", -2.0, -13.1), ("order6", -2.0, -17.9)], str(out), manifest)
    lines = out.read_text().splitlines()
    assert lines[1] == "series,x,y"
    assert lines[2] == "order4,-2.0,-13.1"
    # empty report keeps the header
    out2 = tmp_path / "empty.csv"
    emit_plotdata([], str(out2), manifest)
    assert out2.read_text().splitlines()[1] == "series,x,y"


def test_config_file_flags_win(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"bound": 5, "report": None}))
    parser = build_parser()
    args = parser.parse_args(["--config", str(conf), "identities", "--bound", "7"])
    from dnls_nflab.cli import _apply_config

    args = _apply_config(args, parser)
    assert args.bound == 7  # explicit flag beats config
    args2 = parser.parse_args(["--config", str(conf), "identities"])
    args2 = _apply_config(args2, parser)
    assert args2.bound == 5  # config fills defaults


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nonfinite_blowup_exit_code(tmp_path):
    # plain RK4 at dt = 0.3 overflows to nan within one record interval;
    # a non-finite norm is a blow-up, not a trajectory
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--modes", "16", "--init", "planewave:1,0.8", "--dt", "0.3",
         "--t-end", "60", "--scheme", "rk4-plain", "--record-interval", "60",
         "--out", str(out)]
    )
    assert code == 3
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path):
    # an impossible step budget surfaces as exit 3 through the CLI
    code = main(
        ["stability", "--s", "3", "--eps", "0.2", "--modes", "8", "--r", "4",
         "--seed", "1", "--dt", "0.000000001"]
    )
    assert code == 3
