"""The adveig benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload robin_ladder --seed 1 --seconds 40 --trace 0

Runs from the root of a checkout and imports the library from its src/
directory.  A timed run (--trace 0) repeats passes over the workload's
fixed case list for about --seconds and reports the end-to-end metrics.
A traced run (--trace 1) alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead; its spans go to
perfbench/out/.  Every case output is checked; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import oracles
from tracing import Tracer
from workloads import WORKLOADS, Library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
THREADS2_REPS = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# spans only the traced run makes; the tracing overhead leaves them out
REFERENCE_SPANS = ("spectral.smallest_eig", "spectral.cyclic", "spectral.lapack_floor")

END_TO_END = {"setup_s": "s", "wall_s": "s", "case_ms_p50": "ms",
              "case_ms_p90": "ms", "lambda_err_max": "rel", "peak_rss_mb": "MB"}
PER_LAYER = {
    "profile.build_ms": "ms", "profile.builds": "count",
    "maxset.decompose_ms": "ms", "maxset.components": "count",
    "predictor.predict_ms": "ms", "predictor.terms": "count",
    "predictor.segment_terms": "count", "predictor.argmin_overwide": "count",
    "cli.main_ms": "ms", "cli.calls": "count",
    "lab.limit_ode_ms": "ms", "lab.sweep_ms": "ms", "lab.mass_ms": "ms",
    "lab.rescaled_ms": "ms", "lab.threads2_speedup": "ratio",
    "assembly.assemble_ms": "ms", "assembly.unknowns": "count",
    "assembly.bytes_computed": "bytes", "assembly.principal_eigen_ms": "ms",
    "assembly.postprocess_ms": "ms",
    "spectral.smallest_eig_ms": "ms", "spectral.cyclic_ms": "ms",
    "spectral.ns_per_unknown": "ns", "spectral.residual_max": "rel",
    "spectral.lapack_floor_ms": "ms", "spectral.overhead_ratio": "ratio",
    "trace.overhead_ms": "ms",
}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import adveig; "
                "print(time.perf_counter() - t)")

# The host-speed probe: a fixed kernel that calls no library code, timed
# between cases at most every PROBE_EVERY_S.  Its three parts stand for
# the library's three kinds of work: interpreted Python (profile checks,
# prediction, the CLI), element-wise loops over numpy scalars (the Sturm
# and inertia counts) and vectorized numpy.  PROBE_REF_S sets the unit:
# the kernel's median per run was 3.4 to 4.3 ms on the baseline host.
PROBE_EVERY_S = 0.1
PROBE_LOOP = 20000
PROBE_RECURRENCE_N = 3000
PROBE_SORT_N = 100000
PROBE_REF_S = 3.5e-3


class HostProbe:
    """Times a fixed kernel to track the host's speed.

    On a shared host single-thread throughput drifts by 20% or more over
    seconds to minutes, and the drift moves every timing of a run alike
    (the kernel's time follows it in step).  Each timing is therefore
    scaled by PROBE_REF_S over the kernel's time measured around it, and
    reads as seconds on a host where the kernel takes PROBE_REF_S.  The
    raw timings and every probe go to the run's detail file.
    """

    def __init__(self):
        import numpy as np
        self._sort = np.sort
        self._data = np.random.default_rng(0).random(PROBE_SORT_N)
        self._diag = np.random.default_rng(1).random(PROBE_RECURRENCE_N) + 3.0
        self.samples = []           # kernel seconds, in order
        self._last = -math.inf

    def seconds(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        d, piv = self._diag, 1.0
        for i in range(PROBE_RECURRENCE_N - 1):
            piv = d[i + 1] - d[i] / piv
        self._sort(self._data)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1
        return t1 - t0

    def due(self):
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    def scaled(self, seconds):
        """One timing measured right before this call, scaled by the probe
        that follows it."""
        return seconds * PROBE_REF_S / self.seconds()


def case_latencies(passes):
    """Each case's latency is the mean of its times over the passes, so
    wall_s, their sum, is the mean time of one pass over the case list;
    p50 and p90 are taken over the cases.  Milliseconds, with the sample
    counts behind them.  The host's speed swings between phases lasting
    seconds; a short case's mean over the passes follows the share of
    time spent in each phase smoothly, where its median jumps between
    them."""
    per_case = [statistics.fmean(times) for times in zip(*passes)]
    cuts = statistics.quantiles(per_case, n=10, method="inclusive")
    return {"wall_s": sum(per_case), "p50_ms": 1e3 * cuts[4], "p90_ms": 1e3 * cuts[8],
            "samples": sum(len(t) for t in passes), "passes": len(passes),
            "cases_per_pass": len(per_case), "case_ms": [1e3 * t for t in per_case]}


def fresh_import_seconds():
    """`import adveig` in a new interpreter, timed inside it (raw)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def build_inputs(make_cases, seed, tracer, probe):
    """Median time to build the workload's inputs, each build scaled by
    the probe; the last build's cases are the ones the run uses (traced,
    in a traced run)."""
    builds = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = Library(tracer if rep == SETUP_REPS - 1 else None)
        cases = make_cases(seed)
        for case in cases:
            case.prepare(lib)
        builds.append(probe.scaled(time.perf_counter() - t0))
    return statistics.median(builds), cases


class Runner:
    """Runs passes over a case list and grades every output."""

    def __init__(self, cases):
        self.cases = cases
        self.attempted = 0
        self.failures = []          # (case id, message)
        self.known = {}             # case id -> known library defect it shows
        self.errors = []            # relative errors against exact references
        self.outputs = {}           # case id -> output of the last kept pass

    def _grade(self, case, out):
        try:
            problems = case.check(out, self.errors)
        except Exception:           # a check that cannot run is a failed case
            problems = [traceback.format_exc(limit=3)]
        for p in problems:
            if p.startswith(oracles.KNOWN_DEFECT):
                self.known[case.id] = p[len(oracles.KNOWN_DEFECT):]
        problems = [p for p in problems if not p.startswith(oracles.KNOWN_DEFECT)]
        if problems:
            self.failures.append((case.id, "; ".join(problems)))

    def warm_up(self):
        """One call per kind of case, untimed, so lazy set-up is done
        before the first timed pass."""
        seen = set()
        for case in self.cases:
            key = (type(case).__name__, getattr(case, "template", None))
            if key not in seen:
                seen.add(key)
                try:
                    getattr(case, "warm", case.run)()
                except Exception:
                    pass            # the timed passes record the failure

    def timed_pass(self, probe=None, keep=False):
        """Raw case latencies of one pass in seconds, and with a probe the
        same latencies scaled to the reference host speed; checks are not
        timed.  Cases between two probes are scaled by the mean of the
        kernel times before and after them."""
        times, scaled = [], []
        before = probe.seconds() if probe else None
        for k, case in enumerate(self.cases):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = case.run()
            except Exception:
                times.append(time.perf_counter() - t0)
                self.failures.append((case.id, traceback.format_exc(limit=3)))
            else:
                times.append(time.perf_counter() - t0)
                if keep:
                    self.outputs[case.id] = out
                self._grade(case, out)
            if probe and (probe.due() or k == len(self.cases) - 1):
                after = probe.seconds()
                factor = 2.0 * PROBE_REF_S / (before + after)
                scaled.extend(t * factor for t in times[len(scaled):])
                before = after
        return times, scaled

    def traced_pass(self, tr, pass_no):
        """One pass one layer at a time under spans; returns its wall time
        without the reference spans only the traced run makes."""
        tr.pass_no = pass_no
        for case in self.cases:
            tr.case = case.id
            self.attempted += 1
            try:
                with tr.span("case"):
                    out = case.run_traced(tr, self.outputs.get(case.id))
            except Exception:
                self.failures.append((case.id, traceback.format_exc(limit=3)))
                continue
            self._grade(case, out)
        tr.pass_no, tr.case = -1, "diag"
        tot = tr.totals(pass_no)
        return tot["case"] - sum(tot[name] for name in REFERENCE_SPANS)


def threads2_diagnostic(tr, probe, cases):
    """sweep() over the robin_ladder t2 ladder, serially and on a
    2-thread pool; returns (serial ms, scaled by the probe, speed-up)."""
    from concurrent.futures import ThreadPoolExecutor
    ladder = [c for c in cases if c.id.startswith("t2-ladder/")]
    if not ladder:
        return 0.0, 0.0
    head = ladder[0]
    args = (head.profile, head.potential, head.boundary, [c.s for c in ladder])
    serial, threaded = [], []
    for _ in range(THREADS2_REPS):
        t0 = time.perf_counter()
        with tr.span("lab.sweep"):
            head.api.sweep(*args, mass_intervals=head.masses, map_fn=map)
        serial.append(time.perf_counter() - t0)
        with ThreadPoolExecutor(2) as pool:
            t0 = time.perf_counter()
            with tr.span("lab.sweep.threads2"):
                head.api.sweep(*args, mass_intervals=head.masses, map_fn=pool.map)
            threaded.append(time.perf_counter() - t0)
    s, t = statistics.median(serial), statistics.median(threaded)
    return 1e3 * probe.scaled(s), s / t


def layer_metrics(tr, pass_no):
    """Per-layer figures for one traced pass; profile builds made while
    setting up the workload's inputs are added in."""
    tot, setup = tr.totals(pass_no), tr.totals(-1)
    cnt, setup_cnt = tr.counts[pass_no], tr.counts[-1]

    def ms(name):
        return 1e3 * tot.get(name, 0.0)

    eig = ms("spectral.smallest_eig") + ms("spectral.cyclic")
    floor = ms("spectral.lapack_floor")
    unknowns = cnt.get("assembly.unknowns", 0.0)
    return {
        "profile.build_ms": ms("profile.build") + 1e3 * setup.get("profile.build", 0.0),
        "profile.builds": cnt.get("profile.builds", 0.0) + setup_cnt.get("profile.builds", 0.0),
        "maxset.decompose_ms": ms("maxset.decompose"),
        "maxset.components": cnt.get("maxset.components", 0.0),
        "predictor.predict_ms": ms("predictor.predict"),
        "predictor.terms": cnt.get("predictor.terms", 0.0),
        "predictor.segment_terms": cnt.get("predictor.segment_terms", 0.0),
        "cli.main_ms": ms("cli.main"),
        "cli.calls": cnt.get("cli.calls", 0.0),
        "lab.limit_ode_ms": ms("lab.limit_ode"),
        "lab.mass_ms": ms("lab.mass"),
        "lab.rescaled_ms": ms("lab.rescaled"),
        "assembly.assemble_ms": ms("assembly.assemble"),
        "assembly.unknowns": unknowns,
        "assembly.bytes_computed": cnt.get("assembly.bytes_computed", 0.0),
        "assembly.principal_eigen_ms": ms("assembly.principal_eigen"),
        "assembly.postprocess_ms": ms("assembly.principal_eigen") - eig,
        "spectral.smallest_eig_ms": eig,
        "spectral.cyclic_ms": ms("spectral.cyclic"),
        "spectral.ns_per_unknown": 1e6 * eig / unknowns if unknowns else 0.0,
        "spectral.residual_max": tr.maxima[pass_no].get("spectral.residual_max", 0.0),
        "spectral.lapack_floor_ms": floor,
        "spectral.overhead_ratio": eig / floor if floor else 0.0,
    }


def timed_run(runner, probe, seconds):
    """Passes until the next one would overrun; a fresh-interpreter import
    is timed before the first pass and after each pass, so the set-up
    samples spread over the whole run."""
    start = time.perf_counter()
    raw, passes = [], []
    raw_imports = [fresh_import_seconds()]
    imports = [probe.scaled(raw_imports[-1])]
    while True:
        times, scaled = runner.timed_pass(probe)
        raw.append(times)
        passes.append(scaled)
        raw_imports.append(fresh_import_seconds())
        imports.append(probe.scaled(raw_imports[-1]))
        raw_walls = [sum(p) for p in raw]
        if (time.perf_counter() - start + statistics.median(raw_walls)
                + statistics.median(raw_imports) > seconds):
            break
    lat = case_latencies(passes)
    values = {"wall_s": lat["wall_s"], "case_ms_p50": lat["p50_ms"],
              "case_ms_p90": lat["p90_ms"]}
    return values, {"latency": lat, "import_s": imports, "case_s": passes,
                    "raw": {"latency": case_latencies(raw), "pass_walls_s": raw_walls,
                            "import_s": raw_imports, "case_s": raw},
                    "probe_s": probe.samples}


def traced_run(runner, tr, probe, seconds):
    """Alternates untraced and traced passes.  Every time figure is scaled
    by the probes taken around its pass, like the timed run's."""
    start = time.perf_counter()
    plain, traced, per_pass = [], [], []
    while True:
        raw_plain, scaled = runner.timed_pass(probe, keep=True)
        plain.append(sum(scaled))
        before = probe.seconds()
        raw_traced = runner.traced_pass(tr, len(traced))
        factor = 2.0 * PROBE_REF_S / (before + probe.seconds())
        traced.append(raw_traced * factor)
        per_pass.append({name: value * factor if PER_LAYER[name] in ("ms", "ns") else value
                         for name, value in layer_metrics(tr, len(per_pass)).items()})
        if time.perf_counter() - start + sum(raw_plain) + raw_traced > seconds:
            break
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["lab.sweep_ms"], values["lab.threads2_speedup"] = threads2_diagnostic(
        tr, probe, runner.cases)
    values["predictor.argmin_overwide"] = float(len(runner.known))
    values["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    return values, {"untraced_wall_s": plain, "traced_wall_s": traced,
                    "probe_s": probe.samples}


def machine():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_VARS:           # before numpy loads, here and in children
        os.environ[var] = "1"
    if not (SRC / "adveig" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'adveig'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import adveig
    if Path(adveig.__file__).resolve().parent != (SRC / "adveig").resolve():
        print(f"perfbench: imported adveig from {adveig.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    probe = HostProbe()
    inputs_s, cases = build_inputs(WORKLOADS[args.workload], args.seed, tracer, probe)
    runner = Runner(cases)
    runner.warm_up()
    if args.trace:
        values, detail = traced_run(runner, tracer, probe, args.seconds)
        units = PER_LAYER
    else:
        values, detail = timed_run(runner, probe, args.seconds)
        values["setup_s"] = statistics.median(detail["import_s"]) + inputs_s
        values["lambda_err_max"] = max(runner.errors, default=1.0)   # none graded: worst
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    failed = len(runner.failures)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "cases": len(cases), "attempted": runner.attempted, "failed": failed,
              "failures": runner.failures[:20], "known_defects": runner.known,
              "metrics": metrics,
              "inputs_s": inputs_s, "detail": detail, "machine": machine()}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    print(f"{args.workload} seed {args.seed}: {len(cases)} cases, "
          f"{runner.attempted} attempted, failed_frac {failed}/{runner.attempted}, "
          f"cases showing a known library defect {len(runner.known)}")
    if not args.trace:
        lat = detail["latency"]
        print(f"  latency samples: {lat['samples']} ({lat['cases_per_pass']} cases x "
              f"{lat['passes']} passes); setup: median import "
              f"{statistics.median(detail['import_s']):.4f} s of {len(detail['import_s'])} "
              f"+ median inputs {inputs_s:.4f} s of {SETUP_REPS}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for case_id, message in runner.failures[:5]:
        print(f"FAILED {case_id}: {message}", file=sys.stderr)
    for case_id, message in runner.known.items():
        print(f"KNOWN DEFECT {case_id}: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
