import json
import math
from pathlib import Path

import pytest

from twistamp.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, IDENTITY_BOUND, main
import twistamp.cli as cli_module
from conftest import SET_UP_ONCE, count_set_up_builds


TRIANGLE = {
    "vertices": [1, 2, 3],
    "edges": [
        {"id": 1, "source": 1, "target": 2, "mass": "1"},
        {"id": 2, "source": 2, "target": 3, "mass": "1"},
        {"id": 3, "source": 3, "target": 1, "mass": "1"},
    ],
}

BOX = {
    "vertices": [1, 2, 3, 4],
    "edges": [
        {"id": 1, "source": 1, "target": 2, "mass": "1/2"},
        {"id": 2, "source": 2, "target": 3, "mass": "1"},
        {"id": 3, "source": 3, "target": 4, "mass": "3/4"},
        {"id": 4, "source": 4, "target": 1, "mass": "1"},
    ],
    "external_momenta": {
        "1": ["1/2", "0", "1/3", "0"],
        "3": ["-1/2", "0", "-1/3", "0"],
    },
}

FIVE_EDGE_TWO_LOOP = {
    "vertices": [1, 2, 3, 4],
    "edges": [
        {"id": 1, "source": 1, "target": 2, "mass": "1"},
        {"id": 2, "source": 2, "target": 3, "mass": "1"},
        {"id": 3, "source": 3, "target": 1, "mass": "1"},
        {"id": 4, "source": 3, "target": 4, "mass": "1"},
        {"id": 5, "source": 4, "target": 1, "mass": "1"},
    ],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_symanzik_triangle_output(tmp_path, capsys):
    path = _write(tmp_path, "triangle.json", TRIANGLE)
    assert main(["symanzik", path]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "S1 = a1 + a2 + a3"
    # q = 0 and unit masses: S2 = (sum a)(sum m^2 a)
    assert out[1] == "S2 = a1^2 + 2*a1*a2 + 2*a1*a3 + a2^2 + 2*a2*a3 + a3^2"


def test_symanzik_decimal_strings_are_exact(tmp_path, capsys):
    doc = json.loads(json.dumps(TRIANGLE))
    doc["edges"][0]["mass"] = "0.5"
    path = _write(tmp_path, "t.json", doc)
    assert main(["symanzik", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1/4*a1^2" in out  # 0.5^2 parsed exactly


def test_malformed_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["symanzik", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line" in err


def test_schema_violation_names_the_field(tmp_path, capsys):
    doc = json.loads(json.dumps(TRIANGLE))
    del doc["edges"][1]["mass"]
    path = _write(tmp_path, "bad.json", doc)
    assert main(["symanzik", path]) == EXIT_VALIDATION
    assert "edges[1]" in capsys.readouterr().err


def test_bad_graph_files_are_validation_errors(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"vertices": ["\u00e9"]}'.encode("latin-1"))
    bad_docs = [dict(TRIANGLE, vertices=[[1], 2, 3])]
    for key, value in (("source", {"a": 1}), ("target", [2]), ("id", True)):
        doc = json.loads(json.dumps(TRIANGLE))
        doc["edges"][0][key] = value
        bad_docs.append(doc)
    paths = [str(not_utf8)] + [
        _write(tmp_path, f"bad{k}.json", doc) for k, doc in enumerate(bad_docs)
    ]
    for path in paths:
        assert main(["symanzik", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")


def test_twistor_check_box_passes(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    assert main(["twistor-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "lambda^2 = +1+0i" in out


def test_twistor_check_passes_off_n_equals_2n_plus_2(tmp_path, capsys):
    path = _write(tmp_path, "five.json", FIVE_EDGE_TWO_LOOP)
    assert main(["twistor-check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "lambda^2 = +1+0i" in out


def test_twistor_check_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    class FakeRatio:
        lambda2 = 0.9 + 0j
        residual = 0.5
        exact = False

    monkeypatch.setattr(cli_module, "pfaffian_symanzik_ratio", lambda g: FakeRatio())
    path = _write(tmp_path, "box.json", BOX)
    assert main(["twistor-check", path]) == EXIT_NUMERIC
    assert "FAIL" in capsys.readouterr().out


def test_integrate_rejects_zero_samples(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    assert main(["integrate", path, "--samples", "0"]) == EXIT_VALIDATION


def test_integrate_has_no_sampler_flags_the_report_does_not_record(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    for flag in (["--scale", "1"], ["--batch-size", "5"], ["--qmc"]):
        with pytest.raises(SystemExit) as exc:
            main(["integrate", path, *flag])
        assert exc.value.code == EXIT_VALIDATION


def test_integrate_single_method(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    code = main(["integrate", path, "--method", "parametric", "--samples", "5000", "--seed", "3"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report["results"]) == {"parametric"}
    assert report["results"]["parametric"]["estimate"] > 0
    assert report["input_hash"].startswith("sha256:")
    assert report["replicates"] == 16 and "qmc" not in report


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_integrate_reports_reproducible(tmp_path):
    path = _write(tmp_path, "box.json", BOX)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    args = ["integrate", path, "--samples", "20000", "--seed", "42", "--exact"]
    assert main(args + ["--output", out1]) == EXIT_OK
    assert main(args + ["--output", out2]) == EXIT_OK
    r1 = _strip_timing(json.loads(Path(out1).read_text()))
    r2 = _strip_timing(json.loads(Path(out2).read_text()))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_integrate_report_records_the_environment(tmp_path, capsys):
    import os
    import platform

    import numpy

    path = _write(tmp_path, "box.json", BOX)
    assert main(["integrate", path, "--method", "parametric", "--samples", "2000"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["environment"] == {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def test_integrate_unwritable_output_is_validation_error(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    out = tmp_path / "missing" / "r.json"
    args = ["integrate", path, "--samples", "2000", "--output", str(out)]
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err
    assert not out.parent.exists()


def test_integrate_refuses_an_unwritable_output_before_any_estimate(
    tmp_path, capsys, monkeypatch
):
    import twistamp.integrate as integrate

    called = []
    for name in ("direct_amplitude", "parametric_amplitude", "pfaffian_amplitude"):
        monkeypatch.setattr(integrate, name, lambda g, cfg, name=name: called.append(name))
    path = _write(tmp_path, "box.json", BOX)
    out = tmp_path / "missing" / "r.json"
    assert main(["integrate", path, "--output", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert called == []


def test_integrate_exact_embeds_symbolic_verdicts(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    assert main(["integrate", path, "--samples", "5000", "--seed", "1", "--exact"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    checks = report["symbolic_checks"]
    assert checks["first_symanzik_match"] is True
    assert checks["pfaffian_symanzik"]["verdict"] == "PASS"
    assert checks["pfaffian_symanzik"]["residual"] == 0.0
    assert checks["propagator_ranks"]["pass"] is True
    assert report["constants"]["c_hat"] > 0


def test_integrate_unsupported_topology_in_report(tmp_path, capsys):
    path = _write(tmp_path, "five.json", FIVE_EDGE_TWO_LOOP)
    code = main(["integrate", path, "--method", "direct", "--samples", "5000"])
    assert code == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["direct"]["error"]["type"] == "UnsupportedTopology"


def test_integrate_exact_passes_where_the_estimators_refuse(tmp_path, capsys):
    # the exact identity holds on the N = 5, n = 2 graph; the integrals need N = 2n+2
    path = _write(tmp_path, "five.json", FIVE_EDGE_TWO_LOOP)
    code = main(["integrate", path, "--method", "all", "--samples", "1000", "--exact"])
    assert code == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    for method in ("direct", "parametric", "pfaffian"):
        assert report["results"][method]["error"]["type"] == "UnsupportedTopology"
    checks = report["symbolic_checks"]
    assert checks["pfaffian_symanzik"]["verdict"] == "PASS"
    assert checks["pfaffian_symanzik"]["residual"] == 0.0
    assert checks["first_symanzik_match"] is True
    assert checks["propagator_ranks"]["pass"] is True


# K4 on 1..4 plus the path 1-5-6-7-2: N = 2n+2 with n = 4, but the K4 is a
# log-divergent subgraph
K4_WITH_PATH = {
    "vertices": [1, 2, 3, 4, 5, 6, 7],
    "edges": [
        {"id": i, "source": u, "target": v, "mass": "1"}
        for i, (u, v) in enumerate(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (5, 6), (6, 7), (7, 2)],
            start=1,
        )
    ],
}


def test_integrate_divergent_subgraph_in_report(tmp_path, capsys):
    path = _write(tmp_path, "k4path.json", K4_WITH_PATH)
    code = main(["integrate", path, "--method", "all", "--samples", "1000"])
    assert code == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    for method in ("direct", "parametric", "pfaffian"):
        error = report["results"][method]["error"]
        assert error["type"] == "UnsupportedTopology"
        assert "divergent subgraph" in error["message"]
    assert "constants" not in report


EQUAL_MASS_BOX = {
    "vertices": [1, 2, 3, 4],
    "edges": [
        {"id": 1, "source": 1, "target": 2, "mass": "1"},
        {"id": 2, "source": 2, "target": 3, "mass": "1"},
        {"id": 3, "source": 3, "target": 4, "mass": "1"},
        {"id": 4, "source": 4, "target": 1, "mass": "1"},
    ],
}


def test_integrate_all_reports_pi_squared_constant(tmp_path, capsys):
    import math

    path = _write(tmp_path, "eqbox.json", EQUAL_MASS_BOX)
    code = main(["integrate", path, "--method", "all", "--samples", "200000", "--seed", "5"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report["results"]) == {"direct", "parametric", "pfaffian"}
    c_hat = report["constants"]["c_hat"]
    assert abs(c_hat - math.pi**2) <= 0.02 * math.pi**2


def test_feynman_check_command(capsys):
    assert main(["feynman-check", "1", "2", "3", "4", "--samples", "50000"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["feynman-check", "2", "5"]) == EXIT_OK
    assert "quadrature" in capsys.readouterr().out


def test_feynman_check_rejects_nonpositive(capsys):
    assert main(["feynman-check", "1", "-1", "2", "3"]) == EXIT_VALIDATION
    assert main(["feynman-check", "1", "inf"]) == EXIT_VALIDATION
    assert main(["feynman-check", "1e200", "1e200"]) == EXIT_NUMERIC
    assert main(["feynman-check", "1e200", "1e200", "1e200", "1e200"]) == EXIT_NUMERIC
    assert main(["feynman-check", "1e160", "1e-160"]) == EXIT_NUMERIC
    capsys.readouterr()
    args = ["feynman-check", "1e100", "1e100", "1e-100", "1e-100", "--samples", "2000"]
    assert main(args) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "numerical failure:" in captured.err
    assert "rhs =" not in captured.out


@pytest.mark.parametrize(
    "mass, component, message",
    [
        ("1e-400", None, "edge 1: the squared mass underflows to 0"),
        ("1e-170", None, "edge 1: the squared mass underflows to 0"),
        ("1e170", None, "edge 1: the squared mass overflows"),
        ("1e400", None, "edge 1: the squared mass overflows"),
        ("1/2", "1e400", "vertex 1: a momentum component overflows"),
    ],
    ids=["mass-1e-400", "mass-1e-170", "mass-1e170", "mass-1e400", "momentum-1e400"],
)
def test_integrate_refuses_kinematics_outside_float64(tmp_path, capsys, mass, component, message):
    # exact rationals that float64 cannot hold used to end in a traceback, or
    # (mass 1e-170) in a direct estimate 17 orders of magnitude too small
    doc = json.loads(json.dumps(BOX))
    doc["edges"][0]["mass"] = mass
    if component is not None:
        doc["external_momenta"]["1"][0] = component
        doc["external_momenta"]["3"][0] = "-" + component
    path = _write(tmp_path, "extreme.json", doc)
    code = main(["integrate", path, "--method", "all", "--samples", "1000"])
    assert code == EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    for method in ("direct", "parametric", "pfaffian"):
        error = report["results"][method]["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith(message)
    assert "constants" not in report


def test_vertex_labels_that_read_the_same_are_rejected(tmp_path, capsys):
    # momentum keys are strings: "1" could name the vertex 1 or the vertex "1"
    doc = {
        "vertices": [1, "1", 3, 4],
        "edges": [
            {"id": 1, "source": 1, "target": "1", "mass": "1"},
            {"id": 2, "source": "1", "target": 3, "mass": "1"},
            {"id": 3, "source": 3, "target": 4, "mass": "1"},
            {"id": 4, "source": 4, "target": 1, "mass": "1"},
        ],
        "external_momenta": {"1": ["1/2", "0", "0", "0"], "3": ["-1/2", "0", "0", "0"]},
    }
    path = _write(tmp_path, "mixed.json", doc)
    assert main(["integrate", path, "--method", "parametric", "--samples", "1000"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: vertices[1]:")
    assert "read the same" in err


def _box_with_momentum(tmp_path, component):
    doc = json.loads(json.dumps(BOX))
    doc["external_momenta"] = {
        "1": [component, "0", "0", "0"],
        "3": ["-" + component, "0", "0", "0"],
    }
    return _write(tmp_path, f"box-{component}.json", doc)


@pytest.mark.parametrize("method", ["direct", "parametric", "pfaffian"])
def test_integrate_refuses_momenta_whose_square_overflows(tmp_path, capsys, method):
    # each component fits float64 but |P|^2 ~ 4e340 does not: parametric and
    # pfaffian used to end in an OverflowError traceback, direct in 0.0 +- 0.0
    path = _box_with_momentum(tmp_path, "1e170")
    assert main(["integrate", path, "--method", method, "--samples", "1000"]) == EXIT_VALIDATION
    error = json.loads(capsys.readouterr().out)["results"][method]["error"]
    assert error["type"] == "ValidationError"
    assert error["message"].startswith("the external momenta are too large")


def test_integrate_keeps_momenta_whose_square_fits(tmp_path, capsys):
    # |P|^2 ~ 4e300 passes the bound. The amplitude, ~1e-600, underflows to 0:
    # direct says so silently; S2^2 and |Pf|^2 overflow with a numpy warning,
    # and the pfaffian estimator refuses the infinite |Pf|^2 as a numerical
    # failure, not as invalid input
    path = _box_with_momentum(tmp_path, "1e150")
    args = ["integrate", path, "--samples", "1000", "--method"]
    assert main(args + ["direct"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["direct"]["estimate"] == 0.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(args + ["parametric"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["parametric"]["estimate"] == 0.0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(args + ["pfaffian"]) == EXIT_NUMERIC
    error = json.loads(capsys.readouterr().out)["results"]["pfaffian"]["error"]
    assert error["type"] == "InvariantViolation"


def test_integrate_all_keeps_each_refusal_to_its_own_method(tmp_path, capsys):
    # the simplex estimates share one draw, but pfaffian's refusal of the
    # infinite |Pf|^2 ends only pfaffian: parametric runs on to its 0.0
    path = _box_with_momentum(tmp_path, "1e150")
    with pytest.warns(RuntimeWarning, match="overflow"):
        code = main(["integrate", path, "--samples", "1000", "--method", "all"])
    assert code == EXIT_NUMERIC
    report = json.loads(capsys.readouterr().out)
    results = report["results"]
    assert results["direct"]["estimate"] == 0.0
    assert results["parametric"]["estimate"] == 0.0
    assert results["pfaffian"]["error"]["type"] == "InvariantViolation"
    assert "constants" not in report and "identity" not in report


def test_integrate_all_bounds_pf_over_s2_at_every_sample(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    assert main(["integrate", path, "--method", "all", "--samples", "20000"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    identity = report["identity"]
    assert 0.0 < identity["max_rel_dev"] < 1e-11
    assert identity["bound"] == IDENTITY_BOUND and identity["verdict"] == "PASS"
    constants = report["constants"]
    assert constants["C_hat"] == pytest.approx(constants["c_hat"], rel=1e-12)
    # a single method draws for itself and reports no identity
    assert main(["integrate", path, "--method", "pfaffian", "--samples", "20000"]) == EXIT_OK
    assert "identity" not in json.loads(capsys.readouterr().out)


def test_integrate_all_flags_a_deviation_over_the_bound(tmp_path, monkeypatch, capsys):
    # a draw whose |Pf|^2 / S2^2 - 1 exceeds the bound reads FAIL, and so
    # does one that is not a number
    import twistamp.integrate as integrate

    estimates = integrate._simplex_estimates
    path = _write(tmp_path, "box.json", BOX)
    for deviation in (2 * IDENTITY_BOUND, math.nan):
        monkeypatch.setattr(
            integrate, "_simplex_estimates", lambda *a, d=deviation: (estimates(*a)[0], d)
        )
        assert main(["integrate", path, "--method", "all", "--samples", "2000"]) == EXIT_OK
        identity = json.loads(capsys.readouterr().out)["identity"]
        assert identity["verdict"] == "FAIL" and identity["bound"] == IDENTITY_BOUND


def test_integrate_all_builds_each_set_up_piece_once(tmp_path, monkeypatch, capsys):
    # the three estimators and the constants share one prepared problem
    calls = count_set_up_builds(monkeypatch)
    path = _write(tmp_path, "box.json", BOX)
    assert main(["integrate", path, "--method", "all", "--samples", "20000"]) == EXIT_OK
    assert "constants" in json.loads(capsys.readouterr().out)
    assert calls == SET_UP_ONCE
