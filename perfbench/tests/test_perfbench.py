"""Tests of the benchmark's own logic (not of the library):

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads
from adveig import SweepRecord


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)
    ids = [case.id for case in make(7)]
    assert len(ids) == len(set(ids))


def test_exact_reference_checker_rejects_a_perturbed_lambda():
    case = workloads.SolveCase("t1-const/s100", "t1", workloads.T1,
                               workloads.poly(0.5), oracles.NEUMANN, 100.0, ref=0.5)
    good, errors = SweepRecord(s=100.0, n=10001, lam=0.5021), []
    assert case.check((good, None), errors) == []
    assert errors == [pytest.approx(0.0021)]
    bad = dataclasses.replace(good, lam=0.5 * (1 + 3 * oracles.EXACT_TOL))
    assert case.check((bad, None), []) != []
    assert oracles.exact_ok(math.pi ** 2, oracles.interval_mu("D", "D", 1.0))
    assert not oracles.exact_ok(1.05 * math.pi ** 2, oracles.interval_mu("D", "D", 1.0))


def test_prediction_checker_rejects_a_perturbed_term():
    lib = workloads.Library()
    case = workloads.PredictCase("t2", "t2", workloads.T2, workloads.poly(1.5),
                                 oracles.NEUMANN)
    case.prepare(lib)
    pred, decomp = case.run()
    errors = []
    assert case.check((pred, decomp), errors) == []
    assert errors and max(errors) < 1e-3
    i = next(i for i, t in enumerate(pred.terms) if t.kind == "DD")
    terms = list(pred.terms)
    terms[i] = dataclasses.replace(terms[i], value=terms[i].value * 1.1)
    assert case.check((dataclasses.replace(pred, terms=tuple(terms)), decomp), []) != []


def test_overwide_argmin_is_reported_apart_from_failures():
    # A t2 geometry with a narrow DD plateau: its error estimate widens
    # predict_limit's tie tolerance, and argmin keeps c(x1), which lies
    # 2.5e-4 above the NR minimum although both terms are accurate to 1e-9.
    lib = workloads.Library()
    case = workloads.PredictCase(
        "t2/narrow", "t2", (0.089193, 0.19726, 0.328562, 0.660744, 0.790258, 0.861793),
        ((0.0, 1.0), ((1.276807, -0.073879, 0.072),)), (1.0, 1.58502, 1.0, 0.0))
    case.prepare(lib)
    pred, decomp = case.run()
    problems = case.check((pred, decomp), [])
    assert len(problems) == 1 and problems[0].startswith(oracles.KNOWN_DEFECT)
    runner = run.Runner([case])
    runner.timed_pass()
    assert (runner.failures, list(runner.known)) == ([], ["t2/narrow"])
    # an argmin beyond the tie tolerance, or one missing the minimizer, fails
    far = max(range(len(pred.terms)), key=lambda i: pred.terms[i].value)
    for argmin in ((far,), tuple(i for i in pred.argmin if i != 3)):
        bad = dataclasses.replace(pred, argmin=argmin)
        assert any(not p.startswith(oracles.KNOWN_DEFECT)
                   for p in case.check((bad, decomp), []))


def test_unbounded_verdicts_follow_the_trichotomy():
    assert oracles.expected_case("monotone_increasing", oracles.DIRICHLET) == "i-1"
    assert oracles.expected_case("line_down", (1.0, 0.5, 1.0, 0.0)) == "i-2"
    assert oracles.expected_case("monotone_increasing", (1.0, 0.0, 1.0, 0.5)) == "i-3"
    assert oracles.expected_case("vee", (1.0, 0.5, 1.0, 0.0)) is None
    assert oracles.expected_case("t1", oracles.DIRICHLET) is None


def test_percentiles_come_with_their_sample_counts():
    passes = [[0.001 * k for k in range(1, 22)], [0.002 * k for k in range(1, 22)]]
    lat = run.case_latencies(passes)
    assert (lat["samples"], lat["passes"], lat["cases_per_pass"]) == (42, 2, 21)
    # per-case means are 1.5 ms * k; p50 and p90 over 21 cases are ranks 10 and 18
    assert lat["case_ms"] == pytest.approx([1.5 * k for k in range(1, 22)])
    assert lat["p50_ms"] == pytest.approx(1.5 * 11)
    assert lat["p90_ms"] == pytest.approx(1.5 * 19)
    assert lat["wall_s"] == pytest.approx(1.5e-3 * 231)


@dataclasses.dataclass
class Echo:
    id: str

    def run(self):
        return self.id

    def check(self, out, errors):
        return [] if out == self.id else ["wrong output"]


class SlowHost:
    """A probe whose kernel always takes twice the reference time."""

    def __init__(self):
        self.calls = 0

    def seconds(self):
        self.calls += 1
        return 2.0 * run.PROBE_REF_S

    def due(self):
        return True


def test_timings_are_scaled_by_the_probe_around_them():
    runner = run.Runner([Echo(f"case{k}") for k in range(4)])
    probe = SlowHost()
    times, scaled = runner.timed_pass(probe)
    assert probe.calls == 1 + 4
    assert scaled == pytest.approx([t / 2.0 for t in times])
    assert runner.timed_pass()[1] == []
    assert (runner.attempted, runner.failures) == (8, [])
    host = run.HostProbe()
    assert host.scaled(1.0) == pytest.approx(run.PROBE_REF_S / host.samples[-1])


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "predict_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
