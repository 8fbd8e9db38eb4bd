#!/usr/bin/env python3
"""geoflow benchmark: two workloads driven through the public entry points.

    python3 perfbench/run.py --workload analyze-warm --seed 1 --seconds 55 --trace 0

It imports geoflow from src/ next to the perfbench directory.

Workloads (closed loop, one client, each request waits for the previous):

  analyze-warm  cli.analyze_report with the default window, samples and
                tol, cycling heisenberg3, heisenberg5:1,2, engel, sphere2
                and euclidean:3:psi=0.3*x1 on structures built and warmed
                up before timing: a library user's steady state.
                Integration and Gram/SVD work dominate; no symbolic work.
  sweep         cli.main(["sweep", spec, file, "--out", csv]) on files of
                SWEEP_BATCH covectors, cycling heisenberg3, engel and
                heisenberg5:1,2, with the default thread pool: the only
                workload that runs the pool and CSV emission.  Each call
                builds its structure, so symbolic build and compile
                take a large share.

Every covector comes from catalog.sample_covector with a generator seeded
by --seed; the program receives only the generated covectors.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (see tracer.py).  Earlier lines, prefixed "# ", give the run
metadata and a readable summary.  Every covector is checked against the
exact table below; one that fails counts in "failed" and makes
"correct" false.
"""

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# (growth, geodesic dimension N, leading constant C) per structure.
EXACT = {
    "heisenberg3": ((2, 3), 5, Fraction(1, 12)),
    "heisenberg5:1,2": ((4, 5), 7, Fraction(1, 12)),
    "engel": ((2, 3, 4), 10, Fraction(1, 8640)),
    "sphere2": ((2,), 2, Fraction(1)),
    "euclidean:3:psi=0.3*x1": ((3,), 3, Fraction(1)),
}
ANALYZE_SPECS = ("heisenberg3", "heisenberg5:1,2", "engel", "sphere2",
                 "euclidean:3:psi=0.3*x1")
SWEEP_SPECS = ("heisenberg3", "engel", "heisenberg5:1,2")
# Rows per sweep call: two, so that the pool runs (a single row runs
# serially) and a run still holds the hundred calls a p90 needs.
SWEEP_BATCH = 2
SWEEP_C_TOL = 1e-3
# Sweep input files per run, reused in turn; each call builds its own
# structure, so reuse saves the program nothing.
SWEEP_FILES = 100
# Covectors drawn per run; a run that gets through them all starts over.
POOL = 2000
# Set-up runs in this many fresh processes per run; the median is reported.
SETUP_REPEATS = 3

def _analyze_ok(spec, report, code, table):
    growth, dimension, constant = table[spec]
    flag = report.get("flag")
    return (code == 0 and flag is not None
            and tuple(flag["growth"]) == growth
            and flag["geodesic_dimension"] == dimension
            and Fraction(flag["leading_constant"]["rational"]) == constant)


def _sweep_failures(spec, lines, csv_path, table):
    """Rows that fail the gate; a missing or reordered row fails too."""
    growth, dimension, constant = table[spec]
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    failed = abs(len(lines) - len(rows))
    for line, row in zip(lines, rows):
        ok = (row["covector"] == line and row["status"] == "ok"
              and row["growth"] == " ".join(str(g) for g in growth)
              and row["dimension"] == str(dimension)
              and abs(float(row["C_fit"]) - float(constant))
              <= SWEEP_C_TOL * float(constant))
        failed += not ok
    return failed


class Workload:
    """Inputs drawn from the seed, a set-up step, and numbered requests.

    request(i, traced) returns (covectors attempted, covectors failed);
    `traced` picks the structures built under the tracer where a
    workload keeps structures across requests."""

    def __init__(self, geoflow, seed, table):
        self.g = geoflow
        self.seed = seed
        self.table = table

    def _stream(self, specs):
        rng = self.g.np.random.default_rng(self.seed)
        return [(specs[i % len(specs)],
                 self.g.catalog.sample_covector(specs[i % len(specs)], rng))
                for i in range(POOL)]

    def close(self):
        pass


class AnalyzeWarm(Workload):
    def setup(self, tracer=None):
        self.stream = self._stream(ANALYZE_SPECS)
        self.systems = self._build()
        if tracer is not None:
            tracer.install()
            try:
                self.traced_systems = self._build()
            finally:
                tracer.uninstall()

    def _build(self):
        g = self.g
        rng = g.np.random.default_rng([self.seed, 1])
        systems = {}
        for spec in ANALYZE_SPECS:
            system = g.catalog.builtin(spec)
            x0 = g.catalog.default_base(system)
            g.cli.analyze_report(system, x0,
                                 g.catalog.sample_covector(spec, rng))
            systems[spec] = (system, x0)
        return systems

    def request(self, i, traced=False):
        spec, p0 = self.stream[i % POOL]
        system, x0 = (self.traced_systems if traced else self.systems)[spec]
        try:
            report, code = self.g.cli.analyze_report(system, x0, p0)
        except self.g.ERRORS:
            return 1, 1
        return 1, int(not _analyze_ok(spec, report, code, self.table))


class Sweep(Workload):
    def setup(self, tracer=None):
        self.close()
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        rng = self.g.np.random.default_rng(self.seed)
        self.files = []
        for j in range(SWEEP_FILES):
            spec = SWEEP_SPECS[j % len(SWEEP_SPECS)]
            lines = [",".join(repr(float(v)) for v in
                              self.g.catalog.sample_covector(spec, rng))
                     for _ in range(SWEEP_BATCH)]
            path = self.work / ("in%04d.txt" % j)
            path.write_text("\n".join(lines) + "\n")
            self.files.append((spec, str(path), lines))
        self.out = str(self.work / "out.csv")
        # One untimed call, so that timing starts on code paths (the
        # pool, CSV output) that have already run in this process.
        self.request(0)

    def request(self, i, traced=False):
        spec, path, lines = self.files[i % len(self.files)]
        code = self.g.cli.main(["sweep", spec, path, "--out", self.out])
        if code != 0:
            return len(lines), len(lines)
        return len(lines), _sweep_failures(spec, lines, self.out, self.table)

    def close(self):
        work = getattr(self, "work", None)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


CLASSES = {"analyze-warm": AnalyzeWarm, "sweep": Sweep}
WORKLOADS = tuple(CLASSES)


class _Geoflow:
    """The geoflow modules the benchmark drives, imported from ./src."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np

        from geoflow import asymptotics, catalog, cli, expr, flag
        from geoflow import geometry, hamiltonian, rho
        self.np = np
        self.catalog = catalog
        self.cli = cli
        # What cli.main maps to exit codes 1 and 3.
        self.ERRORS = (hamiltonian.IntegrationError, flag.FlagError,
                       rho.RhoError, asymptotics.AsymptoticsError,
                       geometry.GeometryError, expr.ExprError)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(np, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "geoflow_threads": os.environ.get("GEOFLOW_THREADS", "unset"),
        "commit": _git_commit(),
    }


def setup_only(name, seed):
    """Imports and one workload set-up; what a fresh process pays before
    its first request."""
    workload = CLASSES[name](_Geoflow(), seed, EXACT)
    workload.setup()
    workload.close()


def setup_seconds(name, seed):
    """Wall time of SETUP_REPEATS fresh processes that start the
    interpreter, import geoflow, run the workload's set-up and exit."""
    code = ("import sys; sys.path.insert(0, %r); import run;"
            " run.setup_only(%r, %d)" % (str(HERE), name, seed))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_untraced(workload, seconds):
    """Closed loop until the deadline; per-request seconds per covector."""
    latencies = []
    attempted = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    # Two requests at least, so that a very short run still has quantiles.
    while i < 2 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        n, bad = workload.request(i)
        latencies.append((time.perf_counter() - t0) / n)
        attempted += n
        failed += bad
        i += 1
    elapsed = time.perf_counter() - start
    return latencies, attempted, failed, elapsed


def run_traced(workload, tracer, seconds):
    """Each request runs untraced and then traced on the same inputs, so
    the overhead compares like with like under the same machine load."""
    plain = traced = 0.0
    attempted = failed = covectors = 0
    tracer.reset()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        n, bad = workload.request(i, traced=False)
        t1 = time.perf_counter()
        tracer.install()
        try:
            n2, bad2 = workload.request(i, traced=True)
        finally:
            tracer.uninstall()
        traced += time.perf_counter() - t1
        plain += t1 - t0
        attempted += n + n2
        failed += bad + bad2
        covectors += n2
        i += 1
    return tracer.counters(), covectors, plain, traced, attempted, failed


def layer_metrics(counts, covectors, plain, traced):
    def per(key):
        return counts.get(key, 0) / covectors

    symbolic = sum(per("expr.%s.calls" % name)
                   for name in ("parse", "diff", "simplify", "substitute"))
    values = {}
    for layer in ("hamiltonian", "rho", "expr", "geometry", "cli", "flag",
                  "asymptotics", "catalog", "exact"):
        values[layer + ".self_s"] = per(layer + ".self_s")
    values.update({
        "hamiltonian.calls": per("hamiltonian.calls"),
        "hamiltonian.integrations": per("hamiltonian.integrations"),
        "hamiltonian.targets": per("hamiltonian.targets"),
        "hamiltonian.evals": per("hamiltonian.evals"),
        "rho.calls": per("rho.calls"),
        "rho.svd_calls": per("rho.svd_calls"),
        "rho.evals": per("rho.evals"),
        "expr.symbolic_calls": symbolic,
        "expr.compile_calls": per("expr.compile_exprs.calls"),
        "expr.compile_s": per("expr.compile_exprs.time_s"),
        "expr.evals": per("expr.evals"),
        "geometry.bracket_calls": per("geometry.lie_bracket.calls"),
        "geometry.aux_frame_calls": per("geometry.aux_frame_at.calls"),
        "flag.flag_at_calls": per("flag.flag_at.calls"),
        "flag.svd_calls": per("flag.svd_calls"),
        "asymptotics.calls": per("asymptotics.calls"),
        "trace.overhead_frac": traced / plain - 1.0,
    })
    return values


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geoflow" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no geoflow sources under %s\n"
                         % (ROOT / "src"))
        return 2
    g = _Geoflow()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    workload = CLASSES[args.workload](g, args.seed, EXACT)
    try:
        if tracer is None:
            setups = setup_seconds(args.workload, args.seed)
            workload.setup()
            latencies, attempted, failed, elapsed = run_untraced(
                workload, args.seconds)
            deciles = statistics.quantiles(latencies, n=10)
            values = {
                "setup_s": statistics.median(setups),
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": deciles[8],
                "cov_per_s": attempted / elapsed,
                "ok_frac": (attempted - failed) / attempted,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            summary = {"fail_frac": failed / attempted,
                       "setup_runs_s": setups,
                       "latency_samples": len(latencies),
                       "beyond_p90": sum(v > deciles[8] for v in latencies)}
        else:
            workload.setup(tracer)
            counts, covectors, plain, traced, attempted, failed = run_traced(
                workload, tracer, args.seconds)
            values = layer_metrics(counts, covectors, plain, traced)
            summary = {"fail_frac": failed / attempted,
                       "traced_covectors": covectors}
    finally:
        workload.close()

    units = _units()
    print("# meta " + json.dumps(metadata(g.np, args), sort_keys=True))
    print("# summary " + json.dumps(summary, sort_keys=True))
    for name, value in values.items():
        print("# %-28s %14.6g %s" % (name, value, units.get(name, "")))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
