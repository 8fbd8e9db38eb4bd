#!/usr/bin/env python3
"""Check the ROADMAP "Baseline" claims with the tracer's counters.

    python3 perfbench/baseline.py --seed 0 > perfbench/baseline_seed.json

For each analyze structure: one warm analyze_report under the tracer,
counting integrations, right-hand-side evaluations (calls of the
structure's compiled RHS) and numpy.linalg.svd calls, plus the untraced
warm wall time (median of REPEATS).  Then the 72-covector sweep (24 each
of heisenberg3, engel and heisenberg5:1,2), serial and with the default
thread pool, alternating REPEATS times.  Prints one JSON object.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

import run
from tracer import Tracer

REPEATS = 5
SWEEP_PER_SPEC = 24


def _rhs_counter(system):
    # Count calls of the compiled right-hand side from outside: replace
    # the structure's cached evaluator with a counting one.
    rhs = system._cache["rhs_fn"]
    box = [0]

    def counted(values):
        box[0] += 1
        return rhs(values)

    system._cache["rhs_fn"] = counted
    return box


def analyze_counts(g, tracer, seed):
    rng = g.np.random.default_rng(seed)
    out = {}
    for spec in run.ANALYZE_SPECS:
        warm = g.catalog.sample_covector(spec, rng)
        p0 = g.catalog.sample_covector(spec, rng)
        plain = g.catalog.builtin(spec)
        x0 = g.catalog.default_base(plain)
        g.cli.analyze_report(plain, x0, warm)
        walls = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            g.cli.analyze_report(plain, x0, p0)
            walls.append(time.perf_counter() - start)
        tracer.install()
        try:
            system = g.catalog.builtin(spec)
            g.cli.analyze_report(system, x0, warm)
            box = _rhs_counter(system)
            tracer.reset()
            g.cli.analyze_report(system, x0, p0)
        finally:
            tracer.uninstall()
        counts = tracer.counters()
        out[spec] = {
            "warm_analyze_s": statistics.median(walls),
            "integrations": counts.get("hamiltonian.integrations", 0),
            "rhs_calls": box[0],
            "svd_calls": sum(v for k, v in counts.items()
                             if k.endswith(".svd_calls")),
        }
    return out


def sweep_times(g, seed, workdir):
    rng = g.np.random.default_rng(seed)
    files = []
    for spec in run.SWEEP_SPECS:
        path = os.path.join(workdir, spec.replace(":", "_") + ".txt")
        with open(path, "w") as handle:
            for _ in range(SWEEP_PER_SPEC):
                p0 = g.catalog.sample_covector(spec, rng)
                handle.write(",".join(repr(float(v)) for v in p0) + "\n")
        files.append((spec, path))
    out_csv = os.path.join(workdir, "out.csv")
    times = {"serial": [], "threaded": []}
    for _ in range(REPEATS):
        for mode in ("serial", "threaded"):
            if mode == "serial":
                os.environ["GEOFLOW_THREADS"] = "1"
            else:
                os.environ.pop("GEOFLOW_THREADS", None)
            start = time.perf_counter()
            for spec, path in files:
                if g.cli.main(["sweep", spec, path, "--out", out_csv]) != 0:
                    raise SystemExit("sweep failed on %s" % spec)
            times[mode].append(time.perf_counter() - start)
    os.environ.pop("GEOFLOW_THREADS", None)
    return {mode: {"median_s": statistics.median(v), "runs_s": v,
                   "covectors": SWEEP_PER_SPEC * len(files)}
            for mode, v in times.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not (run.ROOT / "src" / "geoflow" / "__init__.py").is_file():
        sys.stderr.write("baseline: no geoflow sources under %s\n"
                         % (run.ROOT / "src"))
        return 2
    g = run._Geoflow()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as workdir:
        result = {
            "meta": run.metadata(g.np, argparse.Namespace(
                workload="baseline", seed=args.seed, seconds=None,
                trace=True)),
            "analyze": analyze_counts(g, tracer, args.seed),
            "sweep_72": sweep_times(g, args.seed, workdir),
        }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
