import json
import math
import subprocess
import sys

import numpy as np
import pytest

from adveig import predictor
from adveig.cli import build_parser, main
from adveig.profile import builtin, spec_to_dict
from conftest import run_fresh, wrap_bump_spec

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


@pytest.mark.parametrize("extra, message", [
    (("--n", "1000000000"), "grid too large (n = 1000000000 > 16777216)"),
    (("--n", "3"), "transformed assembly needs n >= 16"),
    (("--grid-floor", "100000000"), "grid too large (n = 100000000 > 16777216)")],
    ids=["n-1e9", "n-3", "floor-1e8"])
def test_solve_grid_out_of_range_exit_2_before_the_dump(capsys, monkeypatch, tmp_path,
                                                        extra, message):
    """An explicit --n outside 16..MAX_NODES, or a --grid-floor past
    MAX_NODES, is refused while the flags convert: no solve runs and no
    --dump-eigenfunction file is created."""
    _no_solve(monkeypatch)
    dump = tmp_path / "d.csv"
    code, out, err = run_cli(capsys, "solve", *SWEEP_VEE, "--s", "10", *extra,
                             "--dump-eigenfunction", str(dump))
    assert (code, out, err) == (2, "", f"ValidationError: {message}\n")
    assert not dump.exists()


def test_integer_flags_refuse_a_non_integer(capsys, monkeypatch):
    _no_solve(monkeypatch)
    for argv, text in ((("solve", *SWEEP_VEE, "--s", "10", "--n", "2.5"), "2.5"),
                       (("solve", *SWEEP_VEE, "--s", "10", "--grid-floor", "x"), "x"),
                       (("sweep", *SWEEP_VEE, "--ladder", "10:100:2.5"), "2.5")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"MalformedSpec: not an integer: {text!r}\n")


def test_sweep_grid_floor_past_the_cap_exit_2_before_any_solve(capsys, monkeypatch):
    _no_solve(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", *SWEEP_VEE, "--ladder", "10,20,40",
                             "--grid-floor", "100000000")
    assert (code, out) == (2, "")
    assert err == "ValidationError: grid too large (n = 100000000 > 16777216)\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-multiplier", "-1", "grid multiplier must be > 0, not -1"),
    ("--grid-multiplier", "0", "grid multiplier must be > 0, not 0"),
    ("--grid-floor", "-1", "grid floor must be >= 0, not -1")])
def test_bad_grid_settings_exit_2_before_any_file_or_solve(capsys, monkeypatch, tmp_path,
                                                           flag, value, message):
    _no_solve(monkeypatch)
    for argv in (("solve", *SWEEP_VEE, "--s", "10",
                  "--dump-eigenfunction", str(tmp_path / "w.csv")),
                 ("sweep", *SWEEP_VEE, "--ladder", "10,20", "--out", str(tmp_path / "F"))):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert (code, out, err) == (2, "", f"ValidationError: {message}\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_grid_past_the_cap_exit_2(capsys):
    # both s ask for a grid far past assembly.MAX_NODES: one overflows the
    # policy's size to inf, one would ask np.arange for ~1e152 nodes
    for template, bc, s in (("t1:0.15,0.3,0.45,0.6,0.8", "robin:1,0,1,0", "1e300"),
                            ("monotone_increasing", "robin:0,1,0,1", "1e308")):
        code, out, err = run_cli(capsys, "solve", "--template", template,
                                 "--c", "zero", "--bc", bc, "--s", s)
        assert (code, out) == (2, "")
        assert err.startswith("ValidationError: ") and "16777216" in err


def test_sweep_keeps_its_ladder_past_the_grid_cap(capsys):
    code, out, err = run_cli(capsys, "sweep", "--template", "t1:0.15,0.3,0.45,0.6,0.8",
                             "--c", "zero", "--bc", "robin:1,0,1,0",
                             "--ladder", "10,1e300")
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("10,2000,")
    assert lines[2] == "1e+300,0,error:ValidationError,"


def test_bad_params_name_the_template_and_its_parameters(capsys):
    # too many values for every template (none takes seven), too few for two
    from adveig.profile import TEMPLATES
    cases = [(name, f"{name}:{','.join(['0.1'] * 7)}") for name in TEMPLATES]
    cases += [("t1", "t1:0.1,0.2"), ("vee", "vee")]
    for name, arg in cases:
        code, out, err = run_cli(capsys, "classify", "--template", arg)
        assert (code, out) == (2, ""), arg
        params = TEMPLATES[name][1].split(":")[0]
        assert err.startswith(f"BadParams: {name} takes {params}; "), err
        assert "_t_" not in err and "positional" not in err


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
    # m' does not wrap: vee's jumps by 0.4, power_max's by 2
    code, _, err = run_cli(capsys, "predict", "--template", "vee:0.5",
                           "--c", "zero", "--bc", "periodic")
    assert code == 2 and err == "NotPeriodic: m^(1) wrap mismatch 4.000e-01 at 0/1\n"
    code, _, err = run_cli(capsys, "predict", "--template", "power_max:0.5,2",
                           "--c", "zero", "--bc", "periodic")
    assert code == 2 and err.startswith("NotPeriodic: m^(1) wrap mismatch")
    # the mirror image m(1 - x) has its maximum at 0.75 and m'(0) < 0;
    # c = x - x^3 wraps and tells 0.75 from 0.25
    from conftest import reflect_spec
    path = tmp_path / "reflected.json"
    path.write_text(json.dumps(spec_to_dict(reflect_spec(builtin("periodic_bump", 0.25)))))
    code, out, _ = run_cli(capsys, "predict", "--profile", str(path),
                           "--c", "poly:0,1,0,-1", "--bc", "periodic")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.328125, abs=1e-12)
    # example2 falls from 0 and rises into 1: on the circle one maximum
    # at 0 ~ 1, where c = 0.75
    code, out, _ = run_cli(capsys, "predict", "--template", "example2:0.3,0.7",
                           "--c", "poly:0.75,-1,1", "--bc", "periodic")
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 0.75
    assert doc["terms"][0]["source"] == {"type": "isolated", "x": 0.0,
                                         "position": "interior"}


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


def test_report_rescales_a_maximum_at_the_wrap_point(tmp_path, capsys):
    """The bump with its maximum at 0 ~ 1 is the bump centred at 1/2
    turned half a period: on the circle its mass window and its
    rescaled profile run over the wrap point, and match the centred
    one's to 1e-6."""
    profiles = {}
    for name, centred in (("wrap", False), ("centred", True)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec_to_dict(wrap_bump_spec(centred))))
        code, out, _ = run_cli(capsys, "report", "--profile", str(path), "--c", "zero",
                               "--bc", "periodic", "--ladder", "100,200,400",
                               "--outdir", str(tmp_path / name))
        assert code == 0
        assert json.loads(out)["rescaled_profile"]["x0"] == (0.0 if name == "wrap" else 0.5)
        profiles[name] = np.loadtxt(tmp_path / name / "rescaled_profile.dat")
    wrap, centred = profiles["wrap"], profiles["centred"]
    assert wrap[0, 0] == -4.0 and wrap[-1, 0] == 4.0
    assert np.abs(wrap - centred).max() <= 1e-6
    assert wrap[80, 1] == pytest.approx(math.pi ** -0.25, abs=5e-3)   # W(0)


CLI_SOURCE = {"--template": (False, None), "--profile": (False, None)}
CLI_DATA = {**CLI_SOURCE, "--c": (False, None), "--bc": (True, None)}
CLI_GRID = {"--grid-multiplier": (False, 16.0), "--grid-floor": (False, 2000)}
CLI_LADDER = {**CLI_DATA, **CLI_GRID, "--ladder": (True, None),
              "--mass-intervals": (False, ())}
CLI_OPTIONS = {
    "classify": CLI_SOURCE,
    "predict": CLI_DATA,
    "solve": {**CLI_DATA, **CLI_GRID, "--s": (True, None), "--n": (False, None),
              "--dump-eigenfunction": (False, None)},
    "sweep": {**CLI_LADDER, "--out": (False, None), "--timings": (False, False)},
    "report": {**CLI_LADDER, "--outdir": (False, None)},
    "templates": {},
}


def test_subcommand_options_required_flags_and_defaults():
    """Each subcommand's option strings, which of them are required, and
    what a handler reads for an absent flag.  A grid flag left at None
    reads lab.DEFAULT_POLICY, and an empty --mass-intervals string reads
    as no intervals, so those spellings record the same default."""
    import argparse
    from adveig.cli import build_parser
    from adveig.lab import DEFAULT_POLICY
    assert (DEFAULT_POLICY.multiplier, DEFAULT_POLICY.floor) == (16.0, 2000)
    absent = {"grid_multiplier": DEFAULT_POLICY.multiplier,
              "grid_floor": DEFAULT_POLICY.floor, "mass_intervals": ()}

    def read(action):
        if action.default in (None, "") and action.dest in absent:
            return absent[action.dest]
        return action.default

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    seen = {name: {opt: (a.required, read(a)) for a in p._actions
                   for opt in a.option_strings if a.dest != "help"}
            for name, p in sub.choices.items()}
    assert seen == CLI_OPTIONS


SWEEP_VEE = ("--template", "vee:0.5", "--c", "zero", "--bc", "robin:0,1,0,1")


def _no_solve(monkeypatch):
    import adveig.lab

    def unreachable(*args):
        raise AssertionError("a ladder entry was solved")

    monkeypatch.setattr(adveig.lab, "_solve_one", unreachable)


def test_mass_intervals_outside_the_domain_exit_2_before_any_solve(capsys, monkeypatch,
                                                                   tmp_path):
    _no_solve(monkeypatch)
    for argv in (("sweep", *SWEEP_VEE, "--ladder", "10,20",
                  "--mass-intervals", "0.4,0.6;0.9,1.5"),
                 ("report", *SWEEP_VEE, "--ladder", "10,20,40",
                  "--mass-intervals", "0.6,0.4", "--outdir", str(tmp_path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("IntervalOutOfDomain: mass interval"), err


def test_unwritable_sweep_out_exit_2_before_any_solve(capsys, monkeypatch, tmp_path):
    _no_solve(monkeypatch)
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "sweep", *SWEEP_VEE, "--ladder", "10,20",
                             "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"UnwritableOutput: cannot write {path}: ")


def test_unwritable_dump_eigenfunction_exit_2(capsys, monkeypatch, tmp_path):
    _no_solve(monkeypatch)
    path = tmp_path / "missing" / "w.csv"
    code, out, err = run_cli(capsys, "solve", "--template", "vee:0.5",
                             "--bc", "robin:0,1,0,1", "--s", "10",
                             "--dump-eigenfunction", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"UnwritableOutput: cannot write {path}: ")


def test_report_outdir_that_is_a_file_exit_2(capsys, monkeypatch, tmp_path):
    _no_solve(monkeypatch)

    def unreachable(*args):
        raise AssertionError("a plateau was solved")

    monkeypatch.setattr(predictor, "_sub_eigenvalue", unreachable)
    path = tmp_path / "taken"
    path.write_text("")
    # t2 has three plateaus, so the prediction would solve three of them
    for inputs in (SWEEP_VEE, ("--template", "t2:0.1,0.25,0.3,0.45,0.6,0.8",
                               "--c", "zero", "--bc", "robin:1,0,1,0")):
        code, out, err = run_cli(capsys, "report", *inputs, "--ladder", "10,20,40",
                                 "--outdir", str(path))
        assert (code, out) == (2, ""), inputs
        assert err.startswith(f"UnwritableOutput: cannot create {path}: "), inputs


def test_empty_list_fields_are_malformed(capsys):
    predict = ("predict", "--template", "vee:0.5", "--bc", "robin:1,0,1,0")
    sweep = ("sweep", *SWEEP_VEE)
    cases = [
        ("classify", "--template", "t1:0.15,0.3,,0.45,0.6,0.8"),
        ("classify", "--template", "vee:0.5,"),
        (*sweep, "--ladder", "10,,20"),
        (*sweep, "--ladder", "10,20,"),
        (*predict, "--c", "poly:1,,2"),
        (*sweep, "--ladder", "10,20", "--mass-intervals", "0.1,0.2;;0.3,0.4"),
        ("predict", "--template", "vee:0.5", "--bc", "robin:1,0,,1,0"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "MalformedSpec: not a number: ''\n"), argv
    # a bare NAME or NAME: still means no parameters
    for arg in ("monotone_increasing", "monotone_increasing:"):
        code, out, _ = run_cli(capsys, "classify", "--template", arg)
        assert code == 0 and json.loads(out)["segments"] == []


def test_inputs_convert_in_command_line_order(capsys):
    bad_bc, bad_c = ("--bc", "robin:1,0,1"), ("--c", "poly:1,z")
    for argv, first in (((*bad_bc, *bad_c), "--bc robin needs"),
                        ((*bad_c, *bad_bc), "not a number: 'z'")):
        code, _, err = run_cli(capsys, "predict", "--template", "vee:0.5", *argv)
        assert code == 2 and err.startswith(f"MalformedSpec: {first}"), err


def test_report_short_ladder_exit_2_before_any_solve_or_file(capsys, monkeypatch,
                                                            tmp_path):
    _no_solve(monkeypatch)
    monkeypatch.setattr(predictor, "predict_limit", None)
    outdir = tmp_path / "report"
    code, out, err = run_cli(capsys, "report", "--template", "power_max:0.5,2",
                             "--c", "zero", "--bc", "robin:1,0,1,0",
                             "--ladder", "50,100", "--outdir", str(outdir))
    assert (code, out) == (2, "")
    assert err == "InsufficientData: report needs a ladder of at least 3 entries\n"
    assert not outdir.exists()


def _parsed(*argv):
    return build_parser().parse_args(["sweep", *SWEEP_VEE, *argv])


def test_ladder_ranges_match_numpy():
    assert _parsed("--ladder", "25:400:5:log").ladder == list(np.geomspace(25, 400, 5))
    assert _parsed("--ladder", "25:400:5").ladder == list(np.geomspace(25, 400, 5))
    assert _parsed("--ladder", "10:40:4:lin").ladder == list(np.linspace(10, 40, 4))


def test_empty_mass_intervals_mean_none(capsys):
    assert _parsed("--ladder", "10,20", "--mass-intervals", "").mass_intervals == ()
    code, out, _ = run_cli(capsys, "sweep", *SWEEP_VEE, "--ladder", "10,20",
                           "--mass-intervals", "")
    assert code == 0 and out.splitlines()[0] == "s,n,lambda,wall_time"


@pytest.mark.parametrize("argv, message", [
    (("sweep", *SWEEP_VEE, "--ladder", "10:20"),
     "--ladder needs start:stop:count[:log|lin]"),
    (("sweep", *SWEEP_VEE, "--ladder", "20:10:3"),
     "ladder must be ascending with positive start"),
    (("sweep", *SWEEP_VEE, "--ladder", "10:20:3:cubic"),
     "ladder mode must be log or lin"),
    (("predict", "--template", "vee:0.5", "--bc", "dirichlet"),
     "cannot parse boundary condition 'dirichlet'"),
    (("predict", "--template", "vee:0.5", "--bc", "robin:1,0,1,0", "--c", "cubic:1"),
     "cannot parse potential 'cubic:1' (use zero | const:v | poly:c0,c1,... | FILE)"),
    (("classify",), "need --template NAME[:p1,p2,...] or --profile FILE"),
    (("predict", "--bc", "robin:1,0,1,0"),
     "need --template NAME[:p1,p2,...] or --profile FILE"),
], ids=["ladder_two_fields", "ladder_descending", "ladder_mode", "bc_text",
        "c_text", "classify_no_source", "predict_no_source"])
def test_converter_refusals_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"MalformedSpec: {message}\n")


def test_potential_file_may_hold_a_whole_profile_document(capsys, tmp_path):
    doc = spec_to_dict(builtin("vee", 0.5))
    doc["potential"] = {"knots": [0.0, 1.0], "segments": [[0.5, -1.5, 3.0]]}
    path = tmp_path / "whole.json"
    path.write_text(json.dumps(doc))
    predict = ("predict", "--template", "power_max:0.5,2", "--bc", "robin:1,0.7,1,0")
    from_file = run_cli(capsys, *predict, "--c", str(path))
    assert from_file[0] == 0
    assert from_file == run_cli(capsys, *predict, "--c", "poly:0.5,-1.5,3")
