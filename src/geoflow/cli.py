"""Command line front end: catalog lookup, analysis orchestration,
report and table emission.

Exit codes: 0 all checks pass, 1 usage error, 2 the covector is
degenerate at its base, non-ample or non-equiregular, 3 numerical failure
(a flow that blows up, a flag or Gram data that degenerate along the
flow, a flag deeper than the flow's jet order, or a tolerance check that
did not pass).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys as _sys
from fractions import Fraction

import numpy as np

from . import asymptotics as asym
from . import catalog
from . import exact
from . import expr
from . import flag as fl
from . import geometry as geo
from . import hamiltonian as ham
from . import rho as rh

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the artifact
    contract reserves 2 for degenerate inputs and wants 1 here."""

    def error(self, message):
        self.print_usage(_sys.stderr)
        _sys.stderr.write("error: %s\n" % message)
        raise SystemExit(EXIT_USAGE)


def _floats_arg(text):
    try:
        vals = np.array([float(v) for v in str(text).split(",")])
    except ValueError:
        vals = None
    if vals is None or not np.all(np.isfinite(vals)):
        raise argparse.ArgumentTypeError(
            "expected comma-separated finite floats, got %r" % text)
    return vals


def _window_arg(text):
    vals = _floats_arg(text)
    if vals.size != 2:
        raise argparse.ArgumentTypeError("window needs exactly two floats")
    window = (float(vals[0]), float(vals[1]))
    try:
        asym.fit_times(window)
    except asym.AsymptoticsError as err:
        raise argparse.ArgumentTypeError(str(err))
    return window


def _int_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)


def _samples_arg(text):
    samples = _int_arg(text)
    if samples < 4:
        raise argparse.ArgumentTypeError(
            "the fit needs at least 4 samples for its 3 unknowns, got %d"
            % samples)
    return samples


def _nmax_arg(text):
    nmax = _int_arg(text)
    if nmax < 2:
        raise argparse.ArgumentTypeError(
            "the alternating sums start at n = 2, so --nmax must be at"
            " least 2, got %d" % nmax)
    return nmax


def _tol_arg(text):
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a float, got %r" % text)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError(
            "the tolerance must be a finite number > 0, got %r" % text)
    return tol


def _rational_entry(value):
    frac = Fraction(value)
    return {"rational": "%d/%d" % (frac.numerator, frac.denominator),
            "float": float(frac)}


def _resolve_system(args):
    if args.file:
        system = geo.load_structure(args.file)
    elif args.structure:
        system = catalog.builtin(args.structure)
    else:
        raise geo.GeometryError("no structure given: pass a catalog name"
                                " or --file")
    if args.drift is not None or args.potential is not None:
        drift = args.drift.split(",") if args.drift is not None else None
        system = catalog.with_overrides(system, drift=drift,
                                        potential=args.potential)
    return system


def _resolve_base(args, system):
    if args.base is not None:
        if args.base.size != system.dim:
            raise geo.GeometryError("base point has %d components, the"
                                    " chart has %d" % (args.base.size,
                                                       system.dim))
        return args.base
    return catalog.default_base(system)


def _resolve_covector(args, system):
    if args.covector is None:
        raise geo.GeometryError("%s needs --covector" % args.command)
    if args.covector.size != system.dim:
        raise geo.GeometryError("covector has %d components, the chart"
                                " has %d" % (args.covector.size, system.dim))
    return args.covector


def _out_stream(args):
    if args.out:
        return open(args.out, "w", newline="")
    return _sys.stdout


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        _sys.stdout.write(text)


def _flag_section(flag):
    return {
        "growth": list(flag.growth),
        "raw_ranks": list(flag.raw_ranks),
        "increments": list(flag.increments),
        "ample": bool(flag.ample),
        "step": int(flag.step),
        "young_rows": list(flag.young_rows),
        "geodesic_dimension": int(flag.dimension),
        "homogeneous_weight": int(flag.weight),
        "leading_constant": _rational_entry(flag.leading),
        "diagnostics": [str(v) for v in flag.diagnostics],
    }


def _fit_grid(window, samples):
    """fit_times(window, samples) to read ahead, or none where the fit
    will raise on the window."""
    try:
        return asym.fit_times(window, samples)
    except asym.AsymptoticsError:
        return []


def analyze_report(system, x0, p0, window=asym.FIT_WINDOW,
                   samples=asym.FIT_SAMPLES, tol=ham.DEFAULT_TOL,
                   constant_tol=1e-3, rho_gap_tol=1e-5, ricci_tol=1e-2,
                   fit=True):
    """Run the full pipeline at one covector and emit a JSON-ready report
    plus the exit code the analysis maps to."""
    report = {
        "structure": system.name,
        "base": [float(v) for v in x0],
        "covector": [float(v) for v in p0],
    }
    # The base flag is read from the geodesic's jet at t = 0, so a
    # stationary covector is rejected before any jet grows.  Only the base
    # flag's FlagError is a degenerate covector; one raised along the flow
    # is a numerical failure.  One geodesic serves every stage, the times
    # its jet at t = 0 reaches in one batch, and one Gram pass serves rho
    # and the fit.
    geodesic = ham.Geodesic(system, x0, p0, tol)
    gram_times = rh.rho_times()
    if fit:
        fit_grid = _fit_grid(window, samples)
        gram_times += [0.0] + fit_grid
    fl.read_ahead(geodesic, fl.equiregular_times(window[1]) + gram_times)
    try:
        flag = fl.flag_from(geodesic)
    except fl.FlagError as err:
        report["status"] = "degenerate covector: %s" % err
        return report, EXIT_DEGENERATE
    verdict, growths = fl.equiregular_from(geodesic, flag, window[1])
    report["flag"] = _flag_section(flag)
    report["equiregular"] = bool(verdict)
    report["growth_along_flow"] = [list(g) for g in growths]
    if not flag.ample or not verdict:
        report["status"] = ("non-ample covector" if not flag.ample
                            else "growth vector changes along the flow")
        return report, EXIT_DEGENERATE

    if fit and not fit_grid:
        # A window the fit cannot use raises here, after the flag stages.
        fit_grid = asym.fit_times(window, samples)
    gram = rh.gram_from(geodesic, flag, gram_times)
    rho_gram = rh.rho_from(gram)
    order, rho_flow = rh.volume_series_from(geodesic, flag)
    rho_gap = abs(rho_gram - rho_flow)
    report["rho"] = {"gram": rho_gram, "flow": rho_flow, "gap": rho_gap}
    checks = {"rho_two_path": rho_gap <= rho_gap_tol}

    if fit:
        fitted = asym.fit_expansion_from(geodesic, flag, gram, fit_grid)
        report["fit"] = asym.fit_report(fitted)
        c_exact = float(flag.leading)
        rel_gap = abs(fitted.constant - c_exact) / c_exact
        report["fit"]["constant_rel_gap"] = rel_gap
        checks["leading_constant"] = rel_gap <= constant_tol
        oracle = asym.ricci_oracle(system, x0, p0)
        if oracle is not None:
            gap = abs(fitted.trace_r - oracle)
            report["ricci_oracle"] = {"value": oracle,
                                      "fitted": fitted.trace_r,
                                      "gap": gap}
            checks["ricci_oracle"] = gap <= ricci_tol
        report["exponent"] = {"series_order": order,
                              "expected": flag.dimension}
        checks["exponent"] = order == flag.dimension

    report["checks"] = checks
    report["status"] = "ok" if all(checks.values()) else "checks failed"
    return report, EXIT_OK if all(checks.values()) else EXIT_NUMERIC


def cmd_analyze(args):
    system = _resolve_system(args)
    x0 = _resolve_base(args, system)
    p0 = _resolve_covector(args, system)
    report, code = analyze_report(
        system, x0, p0, window=args.window,
        samples=args.samples, tol=args.tol, constant_tol=args.constant_tol,
        rho_gap_tol=args.rho_gap_tol, ricci_tol=args.ricci_tol,
        fit=not args.no_fit)
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


_SWEEP_COLUMNS = ["covector", "growth", "dimension", "rho", "C_fit",
                  "trR_fit", "residual", "status"]


def _sweep_row(system, x0, line, window, samples, tol):
    text = line.strip()
    row = {key: "" for key in _SWEEP_COLUMNS}
    row["covector"] = text
    try:
        p0 = np.array([float(v) for v in text.split(",")])
        if not np.all(np.isfinite(p0)):
            raise ValueError("covector entries must be finite")
        if p0.size != system.dim:
            raise geo.GeometryError("covector size mismatch")
        geodesic = ham.Geodesic(system, x0, p0, tol)
        fit_grid = asym.fit_times(window, samples)
        gram_times = rh.rho_times() + [0.0] + fit_grid
        fl.read_ahead(geodesic, gram_times)
        flag = fl.flag_from(geodesic)
        row["growth"] = " ".join(str(v) for v in flag.growth)
        if not flag.ample:
            row["status"] = "non-ample"
            return row
        row["dimension"] = str(flag.dimension)
        gram = rh.gram_from(geodesic, flag, gram_times)
        row["rho"] = repr(rh.rho_from(gram))
        fitted = asym.fit_expansion_from(geodesic, flag, gram, fit_grid)
        row["C_fit"] = repr(float(fitted.constant))
        row["trR_fit"] = repr(float(fitted.trace_r))
        row["residual"] = repr(float(fitted.residual_norm))
        row["status"] = "ok"
    except ham.IntegrationError as err:
        row["status"] = "integration-failure: %s" % err
    except (fl.FlagError, fl.NonFiniteError, fl.JetOrderError, rh.RhoError,
            asym.AsymptoticsError) as err:
        row["status"] = "degenerate: %s" % err
    except (ValueError, geo.GeometryError) as err:
        row["status"] = "bad-input: %s" % err
    return row


def cmd_sweep(args):
    system = _resolve_system(args)
    x0 = _resolve_base(args, system)
    with open(args.covectors) as handle:
        lines = [ln for ln in handle if ln.strip()]
    stream = _out_stream(args)
    writer = csv.DictWriter(stream, fieldnames=_SWEEP_COLUMNS)
    writer.writeheader()
    for line in lines:
        writer.writerow(_sweep_row(system, x0, line, args.window,
                                   args.samples, args.tol))
    if stream is not _sys.stdout:
        stream.close()
    return EXIT_OK


def cmd_expansion(args):
    system = _resolve_system(args)
    x0 = _resolve_base(args, system)
    p0 = _resolve_covector(args, system)
    # The base flag comes first, as in analyze_report: a degenerate
    # covector exits 2 before any jet grows or anything is written.
    geodesic = ham.Geodesic(system, x0, p0, args.tol)
    grid = asym.fit_times(args.window, args.samples)
    fl.read_ahead(geodesic, [0.0] + grid)
    try:
        flag = fl.flag_from(geodesic)
    except fl.FlagError as err:
        _sys.stderr.write("degenerate covector: %s\n" % err)
        return EXIT_DEGENERATE
    if not flag.ample:
        _sys.stderr.write("non-ample covector\n")
        return EXIT_DEGENERATE
    fitted = asym.fit_expansion_from(
        geodesic, flag, rh.gram_from(geodesic, flag, [0.0] + grid), grid)
    stream = _out_stream(args)
    asym.write_fit_csv(fitted, stream)
    if stream is not _sys.stdout:
        stream.close()
    return EXIT_OK


def _identity_batteries(nmax):
    cap = lambda hi: min(nmax, hi)
    yield ("determinant factorial formula",
           range(1, nmax + 1),
           lambda n: exact.det_nhat(n) == exact.det_formula(n))
    yield ("closed-form inverse",
           range(1, cap(8) + 1),
           lambda n: exact.nhat_inverse_closed(n)
           == exact.nhat(n).inverse())
    yield ("trace identity",
           range(1, cap(10) + 1),
           lambda n: (lambda pair: pair[0] == pair[1])(
               exact.trace_identity(n)))
    yield ("alternating sum A",
           range(2, cap(12) + 1),
           lambda n: exact.comb_identity_A(n) == Fraction(1, 2))
    yield ("alternating sum B",
           range(2, cap(12) + 1),
           lambda n: exact.comb_identity_B(n) == Fraction(1, 2))
    yield ("partial row sums",
           range(1, cap(12) + 1),
           lambda n: all((lambda pair: pair[0] == pair[1])(
               exact.lemma_b0(n, k)) for k in range(1, cap(12) + 1)))
    yield ("generalized Hilbert inverse",
           range(1, cap(8) + 1),
           lambda n: _hilbert_case(n))
    yield ("Hilbert row sums",
           range(1, cap(8) + 1),
           lambda n: _hilbert_sums_case(n))


def _hilbert_sequences(n):
    a = [Fraction(i) for i in range(1, n + 1)]
    b = [Fraction(1 - j) for j in range(1, n + 1)]
    return a, b


def _hilbert_case(n):
    a, b = _hilbert_sequences(n)
    if exact.hilbert_inverse_closed(a, b) != exact.hilbert_matrix(a, b).inverse():
        return False
    a2 = [Fraction(2 * i + 1, 2) for i in range(1, n + 1)]
    b2 = [Fraction(-3 * j + 2, 3) for j in range(1, n + 1)]
    return (exact.hilbert_inverse_closed(a2, b2)
            == exact.hilbert_matrix(a2, b2).inverse())


def _hilbert_sums_case(n):
    a, b = _hilbert_sequences(n)
    sums = exact.hilbert_row_sums_closed(a, b)
    inv = exact.hilbert_matrix(a, b).inverse()
    by_rows = [sum(inv.rows[i], Fraction(0)) for i in range(n)]
    if sums != by_rows:
        return False
    return sums[-1] == -exact.eta1_value(n) or sums[-1] == exact.eta1_value(n)


def cmd_verify_identities(args):
    lines = []
    all_ok = True
    for label, span, check in _identity_batteries(args.nmax):
        span = list(span)
        ok = all(check(n) for n in span)
        all_ok = all_ok and ok
        lines.append("%s %s (n = %d..%d)"
                     % ("PASS" if ok else "FAIL", label, span[0], span[-1]))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_NUMERIC


def cmd_list_builtins(args):
    rows = catalog.list_builtins()
    width = max(len(name) for name, _ in rows)
    text = "\n".join("%-*s  %s" % (width, name, desc) for name, desc in rows)
    _emit(args, text + "\n")
    return EXIT_OK


def _add_common(parser, covector=True):
    parser.add_argument("structure", nargs="?",
                        help="catalog name, e.g. heisenberg3 or"
                             " euclidean:3:psi=0.1*x1")
    parser.add_argument("--file", help="structure as a JSON file instead"
                                       " of a catalog name")
    parser.add_argument("--base", type=_floats_arg,
                        help="base point, comma-separated floats"
                             " (default: origin)")
    if covector:
        parser.add_argument("--covector", type=_floats_arg,
                            help="initial covector, comma-separated floats")
    parser.add_argument("--drift", help="override drift components,"
                                        " comma-separated expressions")
    parser.add_argument("--potential", help="override potential expression")
    parser.add_argument("--tol", type=_tol_arg, default=ham.DEFAULT_TOL,
                        help="Taylor flow tolerance")
    parser.add_argument("--window", type=_window_arg, default=asym.FIT_WINDOW,
                        help="fit window as lo,hi")
    parser.add_argument("--samples", type=_samples_arg,
                        default=asym.FIT_SAMPLES,
                        help="fit sample count")
    parser.add_argument("--out", help="write output to this path instead"
                                      " of stdout")


@functools.cache
def _build_parser():
    """The argument parser, built on the first call of main and reused."""
    parser = _Parser(prog="geoflow",
                     description="volume expansion along optimal-control"
                                 " geodesics: flags, invariants, fits")
    sub = parser.add_subparsers(dest="command")

    p_an = sub.add_parser("analyze", help="full pipeline at one covector")
    _add_common(p_an)
    p_an.add_argument("--constant-tol", type=_tol_arg, default=1e-3,
                      help="relative gap allowed between fitted and exact"
                           " leading constants")
    p_an.add_argument("--rho-gap-tol", type=_tol_arg, default=1e-5,
                      help="gap allowed between the two rho computations")
    p_an.add_argument("--ricci-tol", type=_tol_arg, default=1e-2,
                      help="gap allowed against a closed-form curvature"
                           " trace")
    p_an.add_argument("--no-fit", action="store_true",
                      help="stop after the flag and rho stages")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="batch analysis over a covector"
                                        " file, CSV out")
    _add_common(p_sw, covector=False)
    p_sw.add_argument("covectors", help="file with one comma-separated"
                                        " covector per line")
    p_sw.set_defaults(func=cmd_sweep)

    p_ex = sub.add_parser("expansion", help="emit the (t, ratio, h, model)"
                                            " fit table as CSV")
    _add_common(p_ex)
    p_ex.set_defaults(func=cmd_expansion)

    p_vi = sub.add_parser("verify-identities",
                          help="exact rational identity battery")
    p_vi.add_argument("--nmax", type=_nmax_arg, default=12,
                      help="upper bound for the identity ranges")
    p_vi.add_argument("--out", help="write output to this path")
    p_vi.set_defaults(func=cmd_verify_identities)

    p_lb = sub.add_parser("list-builtins", help="catalog names and"
                                                " descriptions")
    p_lb.add_argument("--out", help="write output to this path")
    p_lb.set_defaults(func=cmd_list_builtins)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(_sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ham.IntegrationError as err:
        _sys.stderr.write("integration failure: %s\n" % err)
        return EXIT_NUMERIC
    except (fl.FlagError, fl.NonFiniteError, fl.JetOrderError, rh.RhoError,
            asym.AsymptoticsError) as err:
        _sys.stderr.write("numerical failure: %s\n" % err)
        return EXIT_NUMERIC
    except (geo.GeometryError, expr.ExprError, OSError) as err:
        _sys.stderr.write("error: %s\n" % err)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
