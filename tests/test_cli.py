import json
from pathlib import Path

import pytest

from twistamp.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
import twistamp.cli as cli_module


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


def test_twistor_check_rejects_wrong_topology(tmp_path, capsys):
    path = _write(tmp_path, "five.json", FIVE_EDGE_TWO_LOOP)
    assert main(["twistor-check", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "N = 2n+2" in err


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


def test_integrate_single_method(tmp_path, capsys):
    path = _write(tmp_path, "box.json", BOX)
    code = main(["integrate", path, "--method", "parametric", "--samples", "5000", "--seed", "3"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert set(report["results"]) == {"parametric"}
    assert report["results"]["parametric"]["estimate"] > 0
    assert report["input_hash"].startswith("sha256:")


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
