"""Byte-for-byte contract of `adveig classify` and `adveig predict`.

Every argument list of golden_cases() goes through adveig.cli.main in
process, and its stdout, stderr and exit code must equal the entry
recorded for it in tests/data/cli_golden.json.  The cases cover every builtin template with
two parameter sets (monotone_increasing has none), Neumann, Dirichlet,
left and right Robin data and the circle for periodic_bump, zero,
constant and quadratic c, and the SignMismatch, NotC2 and MalformedSpec
paths of a profile build (profile documents from PROFILE_FILES).

Plateau terms come from LAPACK through numpy's eigh, so the digits of a
rounding-level error estimate, or of a zero-c Neumann plateau value
(about 1e-24), depend on the LAPACK build and the kernels it picks for
the CPU.  The golden file records the bits of one such value; where
they differ, the build rounds differently, and a predict output with
plateau terms that is not byte-identical must still parse to the same
document with every number within 1e-9 (the predictor's own tie floor).
Everything else, and every output on the recording build, is compared
byte for byte.  Rewrite the golden file only on purpose, and read its
diff before committing it:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from adveig.cli import main
from adveig.predictor import _gll_eigenvalue
from adveig.profile import Potential

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

PARAMS = {
    "example1": ("0.15,0.4,0.6,0.85", "0.2,0.35,0.55,0.8"),
    "example2": ("0.3,0.7", "0.2,0.5"),
    "example3": ("0.35,0.6", "0.25,0.7"),
    "t1": ("0.15,0.3,0.45,0.6,0.8", "0.1,0.2,0.4,0.65,0.85"),
    "t2": ("0.1,0.25,0.4,0.55,0.7,0.85", "0.1,0.25,0.3,0.45,0.6,0.8"),
    "monotone_increasing": ("",),
    "vee": ("0.5", "0.3,0.7"),
    "power_max": ("0.5,2", "0.4,6,1.5"),
    "power_well": ("0.5,2", "0.45,3,0.8"),
    "periodic_bump": ("0.25", "0.3,2"),
}
# Neumann, Dirichlet, Robin at the left end, Robin at the right end
ROBIN = ("robin:1,0,1,0", "robin:0,1,0,1", "robin:1,0.7,1,0", "robin:1,0,1,1.3")
POTENTIALS = ("zero", "const:1.25", "poly:0.5,-1.5,3")
PERIODIC_POTENTIALS = ("zero", "const:1.25", "poly:0.5,-3,3")   # c(0) = c(1)

_RAMP = [0.0, 0.0, 0.0, 10.0, -15.0, 6.0]     # the quintic 0 -> 1 ramp on [0, 1]


def _doc(knots, *segments):
    return {"knots": list(knots),
            "segments": [{"coeffs": list(c), "sign": s} for c, s in segments]}


# profile documents for --profile; each but "ok_from_file" fails its build
PROFILE_FILES = {
    "ok_from_file": dict(_doc((0.0, 1.0), (_RAMP, "increasing")),
                         potential={"knots": [0.0, 0.5, 1.0],
                                    "segments": [[1.0, -2.0], [0.0, 2.0]]}),
    "template_block": {"template": {"name": "vee", "params": [0.4, 0.3]}},
    # m' = 1 - 2t changes sign
    "sign_mixed": _doc((0.0, 1.0), ([0.0, 1.0, -1.0], "increasing")),
    # the second of two segments is mislabelled
    "sign_second": _doc((0.0, 0.5, 1.0), ([0.0, 1.0], "increasing"),
                        ([0.5, 1.0], "decreasing")),
    "sign_constant": _doc((0.0, 0.5, 1.0), ([0.0, 1.0, 1.0], "increasing"),
                          ([0.75, 2.0, 1.0], "constant")),
    "sign_decreasing": _doc((0.0, 1.0), ([1.0, -1.0], "increasing")),
    "globally_constant": _doc((0.0, 0.5, 1.0), ([0.3], "constant"),
                              ([0.3], "constant")),
    # m'' jumps from 2 to 3 at 0.5; m jumps at 0.5 and m' at 0.25
    "not_c2_second": _doc((0.0, 0.5, 1.0), ([0.0, 0.0, 1.0], "increasing"),
                          ([0.25, 1.0, 1.5], "increasing")),
    "not_c2_first_knot": _doc((0.0, 0.25, 0.5, 1.0), ([0.0, 1.0], "increasing"),
                              ([0.25, 2.0, 3.0], "increasing"),
                              ([0.0, 1.0], "increasing")),
    "overflow_derivative": _doc((0.0, 1.0), ([0.0, 1.7e308, -1e308], "increasing")),
    "overflow_companion": _doc((0.0, 0.5, 1.0), ([0.0, 1.0, 1.0, 1.0], "increasing"),
                               ([0.0, 1.0, 1.0, 1e-320], "increasing")),
    "non_finite": _doc((0.0, 0.5, 1.0), ([0.0, 1.0], "increasing"),
                       ([0.5, math.inf], "increasing")),
    "degree_cap": _doc((0.0, 1.0), ([0.0, 1.0] + [0.0] * 8, "increasing")),
    "knots_descending": _doc((0.0, 0.6, 0.4, 1.0), ([0.0], "constant"),
                             ([0.0], "constant"), ([0.0, 1.0], "increasing")),
    "bad_tag": _doc((0.0, 1.0), ([0.0, 1.0], "rising")),
    "empty_segment": _doc((0.0, 0.5, 1.0), ([0.0, 1.0], "increasing"),
                          ([], "increasing")),
    "no_segments": {"knots": [0.0, 1.0]},
}
# a potential document for --c: c jumps at 0.5
POTENTIAL_FILES = {"c_jump": {"knots": [0.0, 0.5, 1.0], "segments": [[0.0], [1.0]]}}


def _template(name, params):
    return f"{name}:{params}" if params else name


def golden_cases():
    """Argument lists, "{data}" standing for the directory that holds
    PROFILE_FILES and POTENTIAL_FILES."""
    cases = []
    for name, param_sets in PARAMS.items():
        for params in param_sets:
            tpl = _template(name, params)
            cases.append(["classify", "--template", tpl])
            for bc in ROBIN:
                for c in POTENTIALS:
                    cases.append(["predict", "--template", tpl, "--c", c, "--bc", bc])
            if name == "periodic_bump":
                for c in PERIODIC_POTENTIALS:
                    cases.append(["predict", "--template", tpl, "--c", c,
                                  "--bc", "periodic"])
    for name in PROFILE_FILES:
        cases.append(["classify", "--profile", "{data}/" + name + ".json"])
    cases += [
        ["predict", "--profile", "{data}/ok_from_file.json", "--bc", "robin:1,0,1,0"],
        ["predict", "--profile", "{data}/sign_second.json", "--bc", "robin:1,0,1,0"],
        ["predict", "--profile", "{data}/not_c2_second.json", "--c", "zero",
         "--bc", "robin:0,1,0,1"],
        ["predict", "--template", "vee:0.5", "--c", "{data}/c_jump.json",
         "--bc", "robin:1,0,1,0"],
        ["predict", "--template", "vee:0.5", "--c", "poly:1.6e308,1.6e308,-1.6e308",
         "--bc", "robin:1,0,1,0"],
        ["predict", "--template", "vee:0.5", "--c", "const:nan", "--bc", "robin:1,0,1,0"],
        ["predict", "--template", "vee:0.5", "--c", "zero", "--bc", "robin:1,0,1"],
        ["predict", "--template", "vee:0.5", "--c", "zero", "--bc", "periodic"],
        ["predict", "--template", "periodic_bump:0.25", "--c", "poly:0,1",
         "--bc", "periodic"],
        ["classify", "--template", "vee:abc"],
        ["classify", "--template", "power_max:0.5,3"],
        ["classify", "--template", "nope:0.5"],
        ["classify", "--template", "t1:0.3,0.15,0.45,0.6,0.8"],
    ]
    return cases


def write_inputs(directory):
    for name, doc in {**PROFILE_FILES, **POTENTIAL_FILES}.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))


def run_case(argv, directory):
    """(exit code, stdout, stderr) of cli.main on argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{data}", str(directory)) for a in argv])
    return code, out.getvalue(), err.getvalue()


def eigh_fingerprint():
    """The bits of a zero-c Neumann plateau value: pure eigh rounding."""
    return _gll_eigenvalue(Potential.zero(), 0.8, 1.0, (0.0, 0.0), 16).hex()


def _close(got, want):
    if isinstance(want, float) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_close, got, want))
    return got == want


def _same_up_to_eigh_rounding(got, entry):
    """A predict output with plateau terms, the only ones eigh computes,
    that parses to the golden document up to _close."""
    code, out, err = got
    if (code, err) != (entry["code"], entry["stderr"]) or '"interval": [' not in out:
        return False
    return _close(json.loads(out), json.loads(entry["stdout"]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_cases(golden):
    assert [entry["argv"] for entry in golden["cases"]] == golden_cases()


def test_cli_output_matches_golden_byte_for_byte(golden, tmp_path):
    write_inputs(tmp_path)
    recording_build = eigh_fingerprint() == golden["eigh_fingerprint"]
    mismatched = []
    for entry in golden["cases"]:
        got = run_case(entry["argv"], tmp_path)
        if got != (entry["code"], entry["stdout"], entry["stderr"]) and (
                recording_build or not _same_up_to_eigh_rounding(got, entry)):
            mismatched.append(" ".join(entry["argv"]))
    assert not mismatched, mismatched
    codes = {entry["code"] for entry in golden["cases"]}
    errors = {entry["stderr"].split(":")[0] for entry in golden["cases"] if entry["code"]}
    assert codes == {0, 2}
    assert {"SignMismatch", "NotC2", "MalformedSpec", "GloballyConstant"} <= errors


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        entries = []
        for argv in golden_cases():
            code, out, err = run_case(argv, Path(tmp))
            entries.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"eigh_fingerprint": eigh_fingerprint(),
                                  "cases": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} cases to {GOLDEN}")
