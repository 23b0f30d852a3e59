import json
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from nonproper import Context, parse_poly
from nonproper.cli import build_parser, main
from nonproper.curves import ParametricCurve, substitute_curve
from nonproper.orders import GREVLEX, LEX

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"
DOCS = ROOT / "docs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def write_problem(tmp_path, body, name="problem.json"):
    p = tmp_path / name
    p.write_text(json.dumps(body))
    return str(p)


@pytest.fixture(scope="module")
def report_schema():
    return json.loads((DOCS / "report.schema.json").read_text())


@pytest.fixture(scope="module")
def problem_schema():
    return json.loads((DOCS / "problem.schema.json").read_text())


class TestSf:
    def test_golden_component_string(self, capsys, report_schema):
        code, report, err = run_cli(capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"))
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert report["result"]["components"] == [["y1 - y2^2"]]
        assert "y1 - y2^2" in err

    def test_round_trip_component_strings(self, capsys):
        _, report, _ = run_cli(capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"), "--quiet")
        names = tuple(report["result"]["image_variables"])
        ctx = Context(names, LEX)
        for comp in report["result"]["components"]:
            for text in comp:
                p = parse_poly(text, ctx)
                assert p.canonical() == p
                assert parse_poly(str(p), ctx) == p

    def test_round_trip_other_reports(self, capsys):
        _, report, _ = run_cli(capsys, "fixlocus", str(PROBLEMS / "shear_action.json"),
                               "--quiet")
        ctx = Context(("x1", "x2"), LEX)
        for text in report["result"]["generators"]:
            p = parse_poly(text, ctx)
            assert parse_poly(str(p), ctx) == p
        _, report, _ = run_cli(capsys, "certify", str(PROBLEMS / "graph_twist_d2.json"),
                               "--quiet")
        names = ("y1", "y2")
        vctx = Context(names, LEX)
        for text in report["result"]["variety"]:
            p = parse_poly(text, vctx)
            assert parse_poly(str(p), vctx) == p

    def test_grevlex_print_order(self, capsys):
        _, report, _ = run_cli(
            capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"), "--order", "grevlex", "--quiet"
        )
        text = report["result"]["components"][0][0]
        ctx = Context(("y1", "y2"), GREVLEX)
        assert parse_poly(text, ctx) == parse_poly("y2^2 - y1", ctx)

    def test_proper_map_exit_zero(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x1", "x2"], "map": ["x1", "x2"],
        })
        code, report, _ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 0
        assert report["result"]["components"] == []
        assert report["result"]["flags"]["empty"] is True


class TestExitTaxonomy:
    def test_parse_error_is_2(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"format": 1, "vars": ["x"], "map": ["x + % y"]})
        code, *_ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2

    def test_bad_json_is_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, *_ = run_cli(capsys, "sf", str(p), "--quiet")
        assert code == 2

    def test_directory_as_problem_is_2(self, capsys, tmp_path):
        code, report, err = run_cli(capsys, "sf", str(tmp_path), "--quiet")
        assert code == 2
        assert report is None
        assert err.startswith("parse error:") and "IsADirectoryError" not in err

    def test_directory_as_csv_is_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "track", str(PROBLEMS / "graph_twist_d2.json"),
                               "--quiet", "--csv", str(tmp_path))
        assert code == 2
        assert err.startswith("parse error:")

    def test_unknown_key_is_2(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"format": 1, "vars": ["x"], "mapp": ["x"]})
        code, *_ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2

    @pytest.mark.parametrize("key", ["map", "domain_equations", "domain_inequalities"])
    def test_non_string_polynomial_is_2(self, capsys, tmp_path, key):
        body = {"format": 1, "vars": ["x", "y"], "field": "real", "map": ["x", "x*y"]}
        body[key] = [1, "x*y"]
        path = write_problem(tmp_path, body)
        code, report, err = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and key in err

    @pytest.mark.parametrize("key", ["samples", "targets"])
    def test_non_string_point_is_2(self, capsys, tmp_path, key):
        body = {"format": 1, "vars": ["x", "y"], "map": ["x", "x*y"], "degree": 1}
        body[key] = [[0.5, 1]]
        path = write_problem(tmp_path, body)
        code, report, err = run_cli(capsys, "certify", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and key in err

    @pytest.mark.parametrize("vars_", [["x", "x"], ["x y", "z"], "xy", []])
    def test_malformed_vars_is_2(self, capsys, tmp_path, vars_):
        path = write_problem(tmp_path, {"format": 1, "vars": vars_, "map": ["x", "x"]})
        code, report, err = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and "vars" in err

    @pytest.mark.parametrize("paths", [
        [{"point": [1, "k"]}],
        ["k"],
        [{"kind": "spiral", "point": ["1/k", "k"]}],
        [{"point": []}],
        {"point": ["1/k", "k"]},
    ])
    def test_malformed_paths_is_2(self, capsys, tmp_path, paths):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "map": ["x", "x*y"],
            "targets": [["1", "1"]], "paths": paths,
        })
        code, report, err = run_cli(capsys, "track", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and "paths" in err

    @pytest.mark.parametrize("d1", ["2", -1, 1.5, True])
    def test_malformed_d1_is_2(self, capsys, tmp_path, d1):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "map": ["x", "x*y"], "d1": d1,
        })
        code, report, err = run_cli(capsys, "bounds", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and "d1" in err

    def test_non_boolean_sharpness_is_2(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "map": ["x", "x*y"], "sharpness": "false",
        })
        code, report, err = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and "sharpness" in err

    @pytest.mark.parametrize("param", [5, "", "x1", "g h"])
    def test_malformed_action_param_is_2(self, capsys, tmp_path, param):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x1", "x2"], "field": "real",
            "action": ["x1", "x2 + g*x1"], "action_param": param,
        })
        code, report, err = run_cli(capsys, "fixlocus", path, "--quiet")
        assert code == 2 and report is None
        assert "parse error" in err and "action_param" in err

    def test_wrong_format_version_is_2(self, capsys, tmp_path):
        path = write_problem(tmp_path, {"format": 2, "vars": ["x"], "map": ["x"]})
        code, *_ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2

    def test_inequalities_need_real_mode_is_2(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x"], "field": "complex",
            "domain_inequalities": ["x"], "map": ["x"],
        })
        code, *_ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 2

    def test_not_generically_finite_is_3(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x1", "x2"], "map": ["x1"],
        })
        code, *_ = run_cli(capsys, "sf", path, "--quiet")
        assert code == 3

    def test_track_bad_path_is_3(self, capsys):
        code, *_ = run_cli(capsys, "track", str(PROBLEMS / "identity_control.json"), "--quiet")
        assert code == 3

    def test_broken_action_is_3(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "action": ["x + g^2", "y"],
        })
        code, *_ = run_cli(capsys, "fixlocus", path, "--quiet")
        assert code == 3

    def test_search_failure_is_4(self, capsys, tmp_path):
        # no degree-1 curve through the corner stays inside the quadrant
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "field": "real",
            "domain_inequalities": ["x", "y"],
            "degree": 1, "samples": [["0", "0"]],
        })
        code, report, _ = run_cli(capsys, "certify", path, "--quiet")
        assert code == 4
        assert report["result"]["status"] == "failed"

    def test_diverged_track_is_5(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "map": ["x + (x*y)^2", "x*y"],
            "targets": [["4", "2"]],
            "paths": [{"kind": "radial", "point": ["1/k", "2*k"]}],
        })
        code, report, _ = run_cli(capsys, "track", path, "--quiet")
        assert code == 5
        assert report["result"]["runs"][0]["status"] == "diverged"

    def test_unexpected_exception_is_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine bug")

        monkeypatch.setattr("nonproper.cli.sf_compute", broken)
        code, report, err = run_cli(capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"), "--quiet")
        assert code == 1
        assert report is None
        assert err == "internal error: RuntimeError: engine bug\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd, flag, value", [
        ("certify", "--samples", "-1"), ("certify", "--samples", "0"),
        ("certify", "--degree", "0"), ("certify", "--degree", "-2"),
        ("track", "--kmax", "0"), ("track", "--kmax", "-3"),
    ])
    def test_count_override_below_one_is_2(self, capsys, cmd, flag, value):
        # 0 was dropped silently and a negative --samples sliced the list
        with pytest.raises(SystemExit) as exc:
            main([cmd, str(PROBLEMS / "graph_twist_d2.json"), "--quiet", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
    def test_bad_tol_is_2(self, capsys, value):
        # these ran the whole tracker and ended as a verification failure
        with pytest.raises(SystemExit) as exc:
            main(["track", str(PROBLEMS / "graph_twist_d2.json"), "--quiet", "--tol", value])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_count_overrides_apply(self, capsys):
        twist = str(PROBLEMS / "graph_twist_d2.json")
        code, report, _ = run_cli(capsys, "certify", twist, "--quiet", "--samples", "1")
        assert code == 0
        assert len(report["result"]["entries"]) == 1
        code, report, _ = run_cli(capsys, "certify", twist, "--quiet", "--degree", "1")
        assert code == 4
        assert report["result"]["degree"] == 1


    @pytest.mark.parametrize("kmax", [2, 3, 41])
    def test_file_kmax_out_of_range_is_2(self, capsys, tmp_path, problem_schema, kmax):
        # 2 and 3 loaded and then failed as a precondition (exit 3)
        body = {
            "format": 1, "vars": ["x", "y"], "map": ["x + (x*y)^2", "x*y"],
            "targets": [["4", "2"]],
            "paths": [{"kind": "radial", "point": ["1/k^2", "2*k^2"]}], "kmax": kmax,
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(body, problem_schema)
        code, report, err = run_cli(capsys, "track", write_problem(tmp_path, body), "--quiet")
        assert code == 2 and report is None
        assert "'kmax' must be an integer in [4, 40]" in err

    @pytest.mark.parametrize("value", ["1", "3", "41", "100000"])
    def test_kmax_override_out_of_range_is_2(self, capsys, value):
        # 1 and 3 failed as a precondition (exit 3); 41 and up had no cap
        with pytest.raises(SystemExit) as exc:
            main(["track", str(PROBLEMS / "graph_twist_d2.json"), "--quiet", "--kmax", value])
        assert exc.value.code == 2
        assert "--kmax" in capsys.readouterr().err

    def test_division_by_zero_at_a_schedule_index_is_2(self, capsys, tmp_path):
        # the load-time check evaluates at k = 2; the pole sits at k = 4
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x", "y"], "map": ["x + (x*y)^2", "x*y"],
            "targets": [["4", "2"]],
            "paths": [{"kind": "radial", "point": ["1/(k - 4)", "2*k^2"]}],
        })
        code, report, err = run_cli(capsys, "track", path, "--quiet")
        assert code == 2 and report is None
        assert "division by zero in path expression '1/(k - 4)'" in err

    def test_reused_parser_keeps_no_flags_between_calls(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["y1", "y2"], "domain_equations": ["y1 - y2^2"],
            "degree": 2, "samples": [["0", "0"], ["1", "1"]],
        })
        code, report, _ = run_cli(capsys, "certify", path, "--quiet", "--sharpness",
                                  "--samples", "1", "--order", "grevlex")
        assert code == 0
        assert report["result"]["minimality"] == {"0,0": True}
        assert report["result"]["variety"] == ["y2^2 - y1"]
        code, report, _ = run_cli(capsys, "certify", path, "--quiet")
        assert code == 0
        assert report["result"]["minimality"] == {}
        assert len(report["result"]["entries"]) == 2
        assert report["result"]["variety"] == ["y1 - y2^2"]


class TestCommands:
    def test_bounds_table(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "bounds", str(PROBLEMS / "graph_twist_d2.json"),
                                  "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert report["result"]["bounds"] == {"cn": 3, "wn": 2}
        assert "multc" in report["result"]["skipped"]

    def test_bounds_with_d1(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "bounds", str(PROBLEMS / "hyperbola_projection.json"),
                                  "--quiet")
        assert code == 0
        assert report["result"]["bounds"]["multc"] == 1
        assert "cn" in report["result"]["skipped"]

    def test_certify_sharpness_twist_d4(self, capsys, tmp_path, report_schema):
        # one radical-membership proof per unknown of the degree-3 ansatz
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["y1", "y2"], "domain_equations": ["y1 - y2^4"],
            "degree": 4, "samples": [["0", "0"], ["1", "1"]],
        })
        code, report, _ = run_cli(capsys, "certify", path, "--sharpness", "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert report["result"]["status"] == "verified"
        assert report["result"]["minimality"] == {"0,0": True, "1,1": True}

    def test_certify_quadrant(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "certify", str(PROBLEMS / "quadrant.json"), "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert report["result"]["status"] == "verified"
        assert report["result"]["certified"] == "domain"

    def test_certify_map_with_sharpness(self, capsys):
        code, report, _ = run_cli(capsys, "certify", str(PROBLEMS / "graph_twist_d2.json"),
                                  "--quiet")
        assert code == 0
        assert report["result"]["status"] == "verified"
        assert set(report["result"]["minimality"].values()) == {True}

    def test_track_report(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "track", str(PROBLEMS / "graph_twist_d2.json"),
                                  "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        run = report["result"]["runs"][0]
        assert run["status"] == "converged"
        assert run["outer_degree"] == 2
        coords = run["verified_curve"]["coordinates"]
        assert coords == ["4 - 16*t + 24*t^2 - 16*t^3 + 4*t^4", "2 - 4*t + 2*t^2"]

    def test_track_cylinder_path(self, capsys, tmp_path, report_schema):
        # only x1 is scaled: f((1-t)/k^2, k^2) - (0, 1) = ((1-t)/k^2, -t),
        # so the limit is the line (0, 1 - t) inside V(y1)
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["x1", "x2"], "map": ["x1", "x1*x2"],
            "targets": [["0", "1"]],
            "paths": [{"kind": "cylinder", "point": ["1/k^2", "k^2"]}],
        })
        code, report, _ = run_cli(capsys, "track", path, "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        run = report["result"]["runs"][0]
        assert run["kind"] == "cylinder" and run["status"] == "converged"
        assert {c["name"]: c["ok"] for c in report["checks"]} == {
            "converged[0]": True, "exact_verification[0]": True}
        assert run["verified_curve"]["coordinates"] == ["0", "1 - t"]
        curve = ParametricCurve.from_coordinates(
            [[Fraction(c) for c in cs] for cs in zip(*run["verified_curve"]["coefficients"])])
        ctx = Context(("y1", "y2"), LEX)
        assert substitute_curve(parse_poly("y1", ctx), curve).is_zero()

    def test_track_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "track", str(PROBLEMS / "graph_twist_d2.json"),
                             "--quiet", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,lambda,diff"
        assert len(lines) > 10

    def test_decompose(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["t"], "curve": ["t^4 + 2*t^2"],
        })
        code, report, _ = run_cli(capsys, "decompose", path, "--quiet")
        assert code == 0
        assert report["result"]["outer"] == ["0", "2", "1"]
        assert report["result"]["inner"] == ["0", "0", "1"]

    def test_common_inner_via_decompose(self, capsys, tmp_path):
        path = write_problem(tmp_path, {
            "format": 1, "vars": ["t"], "curve": ["t^2", "t^4 + t^2"],
        })
        code, report, _ = run_cli(capsys, "decompose", path, "--quiet")
        assert code == 0
        assert report["result"]["kind"] == "common_inner"
        assert report["result"]["inner"] == ["0", "0", "1"]

    def test_fixlocus(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "fixlocus", str(PROBLEMS / "shear_action.json"),
                                  "--quiet")
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert report["result"]["generators"] == ["x1"]

    def test_examples_subset(self, capsys, report_schema):
        code, report, _ = run_cli(capsys, "examples", "--quiet",
                                  "--only", "shear_action,translation_action,quadrant")
        assert code == 0
        jsonschema.validate(report, report_schema)
        assert all(entry["ok"] for entry in report["result"]["matrix"])


class TestProblemFiles:
    def test_shipped_problems_validate(self, problem_schema):
        for path in sorted(PROBLEMS.glob("*.json")):
            jsonschema.validate(json.loads(path.read_text()), problem_schema)

    def test_corpus_problem_bodies_validate(self, problem_schema):
        from nonproper.corpus import CORPUS

        for entry in CORPUS:
            jsonschema.validate(entry.problem, problem_schema)

    def test_digest_is_stable(self, capsys):
        _, r1, _ = run_cli(capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"), "--quiet")
        _, r2, _ = run_cli(capsys, "sf", str(PROBLEMS / "graph_twist_d2.json"), "--quiet")
        assert r1["input_digest"] == r2["input_digest"]
        assert r1["result"] == r2["result"]
