"""End-to-end tests of the command line interface via main(argv)."""

import json
import math

import pytest

from affinelab.cli import main

KNOWN_PAIR = ["cylinder:1", "cylinder:2pi*i/(2pi*i-1)"]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # keep the ambient environment from leaking a tolerance into the tests
    monkeypatch.delenv("AFFINE_LAB_TOL", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestFlowCommand:
    def test_plane_closed_form(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "plane", "--z", "0", "--u", "1", "--t", "1"
        )
        assert code == 0
        assert payload["defined"] is True
        assert payload["z"]["re"] == pytest.approx(math.log(2), abs=1e-12)
        assert payload["z"]["im"] == 0.0
        assert payload["u"] == {"re": 0.5, "im": 0.0}
        assert payload["interval"] == {"kind": "right_of", "endpoint": -1.0}

    def test_out_of_interval_is_defined_false_exit_zero(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "plane", "--z", "0", "--u=-0.5", "--t", "2"
        )
        assert code == 0
        assert payload["defined"] is False
        assert payload["z"] is None and payload["u"] is None
        assert payload["interval"] == {"kind": "left_of", "endpoint": 2.0}

    def test_time_zero_is_identity(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "cylinder:1", "--z", "0", "--u", "i", "--t", "0"
        )
        assert code == 0
        assert payload["defined"] is True
        assert payload["z"] == {"re": 0.0, "im": 0.0}
        assert payload["u"] == {"re": 0.0, "im": 1.0}

    def test_zero_direction_is_an_error(self, capsys):
        code, out, err = run(capsys, "flow", "plane", "--z", "0", "--u", "0", "--t", "1")
        assert code == 1
        assert out == ""
        assert err != ""

    def test_parse_error_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "flow", "plane", "--z", "0", "--u", "1..2", "--t", "1"
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "literal",
        ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"],
        ids=["parentheses", "signs"],
    )
    def test_deeply_nested_literal_is_a_parse_error(self, capsys, literal):
        code, out, err = run(
            capsys, "flow", "plane", f"--z={literal}", "--u", "1", "--t", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: literal nested deeper than")

    def test_moderately_nested_literal_parses(self, capsys):
        code, payload, _ = run_json(
            capsys, "flow", "plane", "--z", "(" * 50 + "0" + ")" * 50,
            "--u", "1", "--t", "1",
        )
        assert code == 0
        assert payload["z"]["re"] == pytest.approx(math.log(2), abs=1e-12)

    @pytest.mark.parametrize("u", ["1", "1+i"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_is_an_error(self, capsys, u, t):
        code, out, err = run(capsys, "flow", "plane", "--z", "0", "--u", u, f"--t={t}")
        assert code == 1
        assert out == ""
        assert err.startswith("error: flow time must be finite")


class TestIntervalCommand:
    def test_regular_direction_full_line(self, capsys):
        code, payload, _ = run_json(capsys, "interval", "plane", "--z", "0", "--u", "i")
        assert code == 0
        assert payload["kind"] == "full_line"
        assert payload["direction"]["kind"] == "regular_plus"

    def test_negative_real_direction(self, capsys):
        code, payload, _ = run_json(
            capsys, "interval", "cylinder:1", "--z", "0", "--u=-0.5"
        )
        assert code == 0
        assert payload == {
            "kind": "left_of",
            "endpoint": 2.0,
            "direction": {"kind": "bifurcation", "tau": 2.0, "snapped": False},
        }


class TestTrajectoryCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run(
            capsys,
            "trajectory", "plane", "--z", "0", "--u", "i",
            "--t0", "0", "--t1", "1", "--n", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,re_z,im_z,re_u,im_u"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0

    def test_csv_rows_satisfy_closed_form(self, capsys):
        _, out, _ = run(
            capsys,
            "trajectory", "plane", "--z", "0.25", "--u", "i",
            "--t0", "-1", "--t1", "2", "--n", "7", "--format", "csv",
        )
        for line in out.splitlines()[1:]:
            t, re_z, im_z, re_u, im_u = map(float, line.split(","))
            w = 1 + t * 1j
            expect_z = 0.25 + (math.log(abs(w)) + 1j * math.atan2(w.imag, w.real))
            expect_u = 1j / w
            assert abs(complex(re_z, im_z) - expect_z) < 1e-12
            assert abs(complex(re_u, im_u) - expect_u) < 1e-12

    def test_json_array(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "trajectory", "plane", "--z", "0", "--u", "i",
            "--t0", "0", "--t1", "1", "--n", "3",
        )
        assert code == 0
        assert isinstance(payload, list) and len(payload) == 3
        assert payload[0]["t"] == 0.0
        assert payload[0]["z"] == {"re": 0.0, "im": 0.0}

    def test_too_few_samples(self, capsys):
        code, out, err = run(
            capsys,
            "trajectory", "plane", "--z", "0", "--u", "i",
            "--t0", "0", "--t1", "1", "--n", "1",
        )
        assert code == 1
        assert out == ""
        assert err != ""

    def test_empty_window(self, capsys):
        code, out, err = run(
            capsys,
            "trajectory", "plane", "--z", "0", "--u=-1",
            "--t0", "5", "--t1", "9", "--n", "4",
        )
        assert code == 1
        assert out == ""
        assert "maximal interval" in err


class TestConjugacyCommand:
    def test_known_conjugate_cylinder_pair(self, capsys):
        code, payload, _ = run_json(
            capsys, "conjugacy", *KNOWN_PAIR, "--mode", "holomorphic"
        )
        assert code == 0
        assert payload["status"] == "conjugate"
        assert payload["mode"] == "holomorphic"
        assert payload["witness"]["type"] == "cylinder_scalar"
        assert payload["used_tolerance"] is False

    def test_imaginary_period_pair_not_conjugate(self, capsys):
        code, payload, _ = run_json(
            capsys, "conjugacy", "cylinder:2pi*i", "cylinder:4pi*i",
            "--mode", "topological",
        )
        assert code == 0
        assert payload["status"] == "not_conjugate"
        assert payload["reason"] == "purely-imaginary-period-mismatch"

    def test_unknown_exits_two(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "conjugacy", "torus:2pi*i-i,1", "torus:2pi*i-2i,1",
            "--mode", "topological", "--bound", "3",
        )
        assert code == 2
        assert payload["status"] == "unknown"
        assert payload["reason"] == "search-bound-exhausted"
        assert payload["search_bound"] == 3

    def test_kind_mismatch(self, capsys):
        code, payload, _ = run_json(
            capsys, "conjugacy", "plane", "cylinder:1", "--mode", "topological"
        )
        assert code == 0
        assert payload["status"] == "not_conjugate"
        assert payload["reason"] == "underlying-spaces-not-homeomorphic"

    def test_mode_is_required(self, capsys):
        code, out, err = run(capsys, "conjugacy", "cylinder:1", "cylinder:1")
        assert code == 1
        assert out == ""


class TestVerifyCommand:
    def test_conjugate_pair_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", *KNOWN_PAIR, "--mode", "holomorphic",
            "--samples", "120",
        )
        assert code == 0
        assert payload["verdict"]["status"] == "conjugate"
        assert payload["passed"] is True
        report = payload["report"]
        assert report["max_deviation"] <= 1e-8
        assert report["samples"] == 120
        assert report["branch_ok"] is True and report["boundary_ok"] is True

    def test_identical_tori_deviation_zero(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "torus:2pi,2pi*i", "torus:2pi,2pi*i",
            "--mode", "holomorphic", "--samples", "60",
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["report"]["max_deviation"] == 0.0

    def test_not_conjugate_exits_zero_without_report(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "cylinder:2pi*i", "cylinder:4pi*i",
            "--mode", "holomorphic",
        )
        assert code == 0
        assert payload["verdict"]["status"] == "not_conjugate"
        assert payload["report"] is None
        assert payload["passed"] is None

    def test_unknown_exits_two_without_report(self, capsys):
        code, payload, _ = run_json(
            capsys,
            "verify", "torus:2pi*i-i,1", "torus:2pi*i-2i,1",
            "--mode", "topological", "--bound", "3",
        )
        assert code == 2
        assert payload["report"] is None


class TestClosedGeodesicsCommand:
    def test_real_period_has_witness(self, capsys):
        code, payload, _ = run_json(capsys, "closed-geodesics", "cylinder:1")
        assert code == 0
        assert payload["has_closed_geodesics"] is True
        w = payload["witness"]
        assert w["translation"] == {"re": 1.0, "im": 0.0}
        assert w["scale_factor"] == pytest.approx(math.e)

    def test_twisted_period_has_none(self, capsys):
        code, payload, _ = run_json(
            capsys, "closed-geodesics", "cylinder:2pi*i/(2pi*i-1)"
        )
        assert code == 0
        assert payload == {"has_closed_geodesics": False, "witness": None}


class TestCliContract:
    def test_byte_identical_reruns(self, capsys):
        argv = ["verify", *KNOWN_PAIR, "--mode", "holomorphic", "--samples", "80"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_trajectory_csv_deterministic(self, capsys):
        argv = [
            "trajectory", "cylinder:1", "--z", "0.1+0.2*i", "--u", "i",
            "--t0", "-2", "--t1", "2", "--n", "9", "--format", "csv",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_env_tolerance_is_used(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFINE_LAB_TOL", "1e-3")
        code, payload, _ = run_json(
            capsys, "interval", "plane", "--z", "0", "--u", "1+0.0000001*i"
        )
        assert code == 0
        assert payload["direction"]["snapped"] is True

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFINE_LAB_TOL", "1e-3")
        code, payload, _ = run_json(
            capsys,
            "interval", "plane", "--z", "0", "--u", "1+0.0000001*i",
            "--tol", "1e-9",
        )
        assert code == 0
        assert payload["direction"]["kind"] == "regular_plus"

    def test_unusable_env_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("AFFINE_LAB_TOL", "banana")
        code, out, err = run(capsys, "interval", "plane", "--z", "0", "--u", "1")
        assert code == 1
        assert out == ""
        assert "AFFINE_LAB_TOL" in err

    def test_usage_error_exits_one(self, capsys):
        code, out, _ = run(capsys, "flow", "plane", "--z", "0", "--t", "1")
        assert code == 1
        assert out == ""

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0
