import json
import math
import os
import subprocess
import sys

import pytest

from adveig.cli import main
from conftest import run_fresh

SCHEMA_CLASSIFY = {
    "type": "object",
    "required": ["isolated", "segments"],
    "properties": {
        "isolated": {"type": "array", "items": {
            "type": "object",
            "required": ["x", "position", "k_star"],
            "properties": {
                "x": {"type": "number"},
                "position": {"enum": ["interior", "left_boundary",
                                      "right_boundary"]},
                "k_star": {"type": ["integer", "null"]},
            }}},
        "segments": {"type": "array", "items": {
            "type": "object",
            "required": ["a", "b", "class"],
            "properties": {
                "a": {"type": "number"}, "b": {"type": "number"},
                "class": {"enum": ["M2", "M3", "M4", "M5", "M6", "M7",
                                   "M8", "M9"]},
            }}},
    },
}

SCHEMA_PREDICT = {
    "type": "object",
    "required": ["verdict", "value", "terms", "argmin"],
    "properties": {
        "verdict": {"enum": ["finite", "unbounded"]},
        "value": {"type": ["number", "null"]},
        "terms": {"type": "array", "items": {
            "type": "object",
            "required": ["source", "kind", "value"],
            "properties": {"kind": {"enum": [
                "c_at_point", "ND", "NN", "DD", "DN", "RD", "RN", "NR", "DR"]}},
        }},
        "argmin": {"type": "array", "items": {"type": "integer"}},
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_t1_json(capsys):
    code, out, _ = run_cli(capsys, "predict",
                           "--template", "t1:0.15,0.3,0.45,0.6,0.8",
                           "--c", "zero", "--bc", "robin:1,0,1,0")
    assert code == 0
    doc = json.loads(out)
    import jsonschema
    jsonschema.validate(doc, SCHEMA_PREDICT)
    assert doc["verdict"] == "finite"
    assert len(doc["terms"]) == 3
    kinds = sorted(t["kind"] for t in doc["terms"])
    assert kinds == ["NN", "c_at_point", "c_at_point"]
    for term in doc["terms"]:
        assert list(term)[:3] == ["source", "kind", "value"]
        if term["kind"] == "NN":
            assert term["interval"] == [0.45, 0.6]
            assert 0.0 <= term["error_estimate"] < 1e-3
        else:
            assert term["interval"] is None and term["error_estimate"] == 0.0


def test_predict_narrow_dd_plateau_to_every_printed_digit(capsys):
    """The M4 plateau [0.25, 0.3] of this t2 gives a DD term (pi/0.05)^2;
    the CLI prints 12 significant digits and all of them are right."""
    code, out, _ = run_cli(capsys, "predict",
                           "--template", "t2:0.1,0.25,0.3,0.45,0.6,0.8",
                           "--c", "zero", "--bc", "robin:1,0,1,0")
    assert code == 0
    (dd,) = [t for t in json.loads(out)["terms"] if t["kind"] == "DD"]
    assert dd["interval"] == [0.25, 0.3]
    assert f"{dd['value']:.12g}" == f"{(math.pi / 0.05) ** 2:.12g}"


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify",
                           "--template", "t2:0.1,0.25,0.4,0.55,0.7,0.85")
    assert code == 0
    doc = json.loads(out)
    import jsonschema
    jsonschema.validate(doc, SCHEMA_CLASSIFY)
    assert [s["class"] for s in doc["segments"]] == ["M4", "M2", "M8"]


def test_malformed_profile_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "classify", "--profile", str(bad))
    assert code == 2
    assert err.startswith("MalformedSpec:")


def test_malformed_numbers_exit_2(tmp_path, capsys):
    no_knots = tmp_path / "no_knots.json"
    no_knots.write_text(json.dumps({"segments": [[1.0]]}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{not json")
    bad_knot = tmp_path / "bad_knot.json"
    bad_knot.write_text(json.dumps({"knots": ["x", 1.0], "segments": [
        {"coeffs": [0.0, 1.0], "sign": "increasing"}]}))
    vee = ("--template", "vee:0.5")
    predict = ("predict", *vee, "--bc", "robin:1,0,1,0")
    sweep = ("sweep", *vee, "--c", "zero", "--bc", "robin:1,0,1,0")
    cases = [
        ("classify", "--template", "t1:a"),
        ("predict", *vee, "--c", "zero", "--bc", "robin:1,x,1,0"),
        (*sweep, "--ladder", "10,abc"),
        (*sweep, "--ladder", "10,20", "--mass-intervals", "0.1"),
        (*predict, "--c", "poly:1,z"),
        (*predict, "--c", str(no_knots)),
        (*predict, "--c", str(not_json)),
        ("classify", "--profile", str(bad_knot)),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert (code, err.split(":")[0]) == (2, "MalformedSpec"), argv


def test_non_finite_numbers_exit_2(tmp_path, capsys):
    common = ("--template", "vee:0.5", "--bc", "robin:1,0,1,0")
    cases = [
        ("solve", *common, "--s", "nan"),
        ("solve", *common, "--s", "inf"),
        ("sweep", *common, "--ladder", "nan"),
        ("sweep", *common, "--ladder", "1,nan,3"),
        ("sweep", *common, "--ladder", "1,3", "--grid-multiplier", "nan"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("MalformedSpec: not a finite number"), argv
    # a finite spec whose derivative overflows is malformed too
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"knots": [0.0, 1.0], "segments": [
        {"coeffs": [0.0, 1.7e308, -1e308], "sign": "increasing"}]}))
    code, out, err = run_cli(capsys, "classify", "--profile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("MalformedSpec:")


def test_template_and_profile_together_exit_2(tmp_path, capsys):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"template": {"name": "vee", "params": [0.5]}}))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--template", "vee:0.5", "--profile", str(path)])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_validation_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "predict", "--template", "vee:0.5",
                           "--c", "zero", "--bc", "robin:0,0,1,0")
    assert code == 2
    assert err.split(":")[0] in ("ValidationError", "MalformedSpec")


def test_overflowing_robin_closure_exit_2(capsys):
    # hbar2 = 1e-320 makes ell2/hbar2 overflow; predict and solve both refuse it
    for argv in (["predict"], ["solve", "--s", "100"]):
        code, out, err = run_cli(capsys, *argv, "--template", "t2:0.1,0.25,0.4,0.55,0.7,0.85",
                                 "--c", "zero", "--bc", "robin:1,0,1e-320,1")
        assert (code, out) == (2, "")
        assert err.startswith("ValidationError: ell/hbar must be finite")


def test_solve_vee_growth(capsys):
    lams = {}
    for s in ("50", "100"):
        code, out, _ = run_cli(capsys, "solve", "--template", "vee:0.5",
                               "--bc", "robin:0,1,0,1", "--s", s)
        assert code == 0
        lams[s] = float(out.strip())
    assert lams["100"] > lams["50"] > 0


def test_solve_zero_grid_size_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve", "--template", "vee:0.5",
                             "--bc", "robin:1,0,1,0", "--s", "10", "--n", "0")
    assert (code, out) == (2, "")
    assert err == "ValidationError: transformed assembly needs n >= 16\n"


def test_solve_dump_eigenfunction(tmp_path, capsys):
    out_csv = tmp_path / "w.csv"
    code, out, _ = run_cli(capsys, "solve", "--template", "power_max:0.5,2",
                           "--bc", "robin:1,0,1,0", "--s", "50", "--n", "2000",
                           "--dump-eigenfunction", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,w"
    assert len(lines) == 2001


def test_profile_json_input(tmp_path, capsys):
    doc = {"template": {"name": "example3", "params": [0.35, 0.6]},
           "potential": {"knots": [0.0, 1.0], "segments": [[1.0]]}}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "predict", "--profile", str(path),
                           "--bc", "robin:1,0,1,1")
    assert code == 0
    assert json.loads(out)["terms"][0]["kind"] == "ND"


def test_sweep_csv_format_and_determinism(tmp_path, capsys):
    args = ("sweep", "--template", "example3:0.35,0.6", "--c", "poly:0,1",
            "--bc", "robin:1,0,1,0", "--ladder", "10,20,40",
            "--mass-intervals", "0.35,0.6;0.9,1.0")
    outs = []
    for path in (tmp_path / "a.csv", tmp_path / "b.csv"):
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]          # byte-identical reruns
    lines = outs[0].decode().splitlines()
    assert lines[0] == "s,n,lambda,mass_0,mass_1,wall_time"
    assert len(lines) == 4
    assert all(row.endswith(",0.0") for row in lines[1:])  # timings suppressed


def test_sweep_timings_writes_wall_times(tmp_path, capsys):
    path = tmp_path / "t.csv"
    code, _, _ = run_cli(capsys, "sweep", "--template", "vee:0.5", "--c", "zero",
                         "--bc", "robin:0,1,0,1", "--ladder", "10,20",
                         "--timings", "--out", str(path))
    assert code == 0
    rows = [r.split(",") for r in path.read_text().splitlines()]
    assert rows[0][-1] == "wall_time" and len(rows) == 3
    assert all(float(r[-1]) > 0.0 for r in rows[1:])


def test_report_emits_verdict_and_plot_data(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "report", "--template", "power_max:0.5,2",
                           "--c", "zero", "--bc", "robin:1,0,1,0",
                           "--ladder", "50,100,200", "--outdir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    for key in ("prediction", "estimate", "converged", "max_abs_gap"):
        assert key in doc
    assert doc["prediction"]["verdict"] == "finite"
    lam_file = tmp_path / "lambda_vs_s.dat"
    assert lam_file.exists()
    rows = lam_file.read_text().splitlines()
    assert len(rows) == 3 and all(len(r.split()) == 2 for r in rows)
    assert (tmp_path / "rescaled_profile.dat").exists()


def test_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "solve", "--template", "monotone_increasing",
                           "--bc", "robin:0,1,0,1", "--s", "10", "--n", "2000")
    assert code == 0
    mantissa = out.strip().replace(".", "").replace("-", "").lstrip("0")
    assert len(mantissa) <= 12


def test_console_entrypoint_smoke():
    proc = subprocess.run([sys.executable, "-m", "adveig.cli", "templates"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "power_well" in proc.stdout


SCIPY_PROBE = """
import contextlib, io, json, sys
import adveig.cli as cli

def scipy_loaded():
    return any(name.startswith("scipy") for name in sys.modules)

seen = {"import": scipy_loaded()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[name] = [code, scipy_loaded()]
print(json.dumps(seen))
"""


def test_only_an_eigensolve_imports_scipy():
    """In a fresh interpreter, importing the CLI, classify and predict
    load no scipy module; the solve after them does, so the probe sees
    scipy when it is there."""
    commands = [
        ("classify", ["classify", "--template", "t1:0.15,0.3,0.45,0.6,0.8"]),
        ("predict", ["predict", "--template", "t2:0.1,0.25,0.3,0.45,0.6,0.8",
                     "--c", "zero", "--bc", "robin:1,0,1,0"]),
        ("solve", ["solve", "--template", "monotone_increasing",
                   "--bc", "robin:0,1,0,1", "--s", "10", "--n", "2000"]),
    ]
    seen = json.loads(run_fresh(SCIPY_PROBE, json.dumps(commands)))
    assert seen == {"import": False, "classify": [0, False],
                    "predict": [0, False], "solve": [0, True]}


def test_unbounded_predict_payload(capsys):
    code, out, _ = run_cli(capsys, "predict", "--template", "vee:0.5",
                           "--c", "zero", "--bc", "robin:1,1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unbounded"
    assert doc["case"] == "i-1"
    assert doc["value"] is None


def test_predict_periodic_bc(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "predict", "--template", "periodic_bump:0.25",
                           "--c", "const:0.7", "--bc", "periodic")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "finite"
    assert doc["value"] == pytest.approx(0.7)
    # m'(0) < 0 fails the periodic decomposition before the wrap check,
    # as in predictor.periodic_prediction
    code, _, err = run_cli(capsys, "predict", "--template", "vee:0.5",
                           "--c", "zero", "--bc", "periodic")
    assert code == 2 and err.startswith("PreconditionViolated:")
    # m'(0) > 0 with an interior maximum, but m' does not wrap
    code, _, err = run_cli(capsys, "predict", "--template", "power_max:0.5,2",
                           "--c", "zero", "--bc", "periodic")
    assert code == 2 and err.startswith("NotPeriodic: m^(1) wrap mismatch")
    # wrap-compatible but m'(0) < 0: periodic normalization violated
    from conftest import reflect_spec
    from adveig.profile import builtin as make_spec, spec_to_dict
    path = tmp_path / "reflected.json"
    path.write_text(json.dumps(spec_to_dict(
        reflect_spec(make_spec("periodic_bump", 0.25)))))
    code, _, err = run_cli(capsys, "predict", "--profile", str(path),
                           "--c", "zero", "--bc", "periodic")
    assert code == 2 and err.startswith("PreconditionViolated")


def test_solve_periodic_bc(capsys):
    code, out, _ = run_cli(capsys, "solve", "--template", "periodic_bump:0.25",
                           "--c", "const:3", "--bc", "periodic", "--s", "0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(3.0, abs=1e-8)


def test_grid_policy_flags(capsys, monkeypatch):
    vals = {}
    for mult in ("16", "64"):
        code, out, _ = run_cli(capsys, "solve", "--template",
                               "monotone_increasing", "--bc", "robin:1,0,1,0",
                               "--s", "50", "--grid-multiplier", mult,
                               "--c", "poly:1,1")
        assert code == 0
        vals[mult] = float(out.strip())
    assert vals["64"] != vals["16"]   # finer grid changes the discrete value
    # --grid-floor 0 is kept next to --grid-multiplier: n = 16 * 50 = 800,
    # not the default floor 2000
    solve = ("solve", "--template", "monotone_increasing", "--bc",
             "robin:1,0,1,0", "--s", "50", "--c", "poly:1,1")
    floor0 = run_cli(capsys, *solve, "--grid-multiplier", "16", "--grid-floor", "0")
    assert floor0 == run_cli(capsys, *solve, "--n", "800")
    assert floor0[1] != run_cli(capsys, *solve, "--n", "2000")[1]
    assert floor0 == run_cli(capsys, *solve, "--grid-floor", "0")
    # a failed eigensolve is a numerical failure, exit code 3
    import adveig.lab
    from adveig.errors import NoConvergence

    def fail(op):
        raise NoConvergence(6, "forced")

    monkeypatch.setattr(adveig.lab, "principal_eigen", fail)
    code, _, err = run_cli(capsys, "solve", "--template",
                           "monotone_increasing", "--bc", "robin:1,0,1,0",
                           "--s", "200", "--c", "const:1")
    assert code == 3 and err.startswith("NoConvergence: ")


def test_ladder_forms(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "sweep", "--template", "vee:0.5", "--c", "zero",
                         "--bc", "robin:0,1,0,1", "--ladder", "10:40:3:lin",
                         "--out", str(tmp_path / "l.csv"))
    assert code == 0
    rows = (tmp_path / "l.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["10", "25", "40"]
    code, _, err = run_cli(capsys, "sweep", "--template", "vee:0.5", "--c", "zero",
                           "--bc", "robin:0,1,0,1", "--ladder", "40,10")
    assert code == 2 and "MalformedSpec" in err


def test_report_unbounded_verdict(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "report", "--template", "vee:0.5",
                           "--c", "zero", "--bc", "robin:1,1,1,1",
                           "--ladder", "25,50,100", "--outdir", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["prediction"]["verdict"] == "unbounded"
    assert doc["max_abs_gap"] is None
    assert not doc["converged"]
