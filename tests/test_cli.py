"""Command-line interface: exit codes, JSON/CSV output shapes, and the
batch sweep."""

import json
from fractions import Fraction

import numpy as np
import pytest

import geoflow.asymptotics as asym
import geoflow.catalog as catalog
import geoflow.cli as cli
import geoflow.exact as exact
import geoflow.expr as expr
import geoflow.flag as fl
import geoflow.geometry as geo
import geoflow.hamiltonian as ham
import geoflow.rho as rh

import oracles

MARTINET = {"name": "martinet", "dim": 3, "rank": 2,
            "X0": ["0", "0", "0"],
            "frame": [["1", "0", "0"], ["0", "1", "x1^2"]],
            "Q": "0", "density": "1"}

# exp(x1) overflows at x1 = 709.78..., which the flow from the base point
# (709.7, 0) reaches within the fit window.
OVERFLOWING_DENSITY = {"dim": 2, "rank": 2, "X0": ["0", "0"],
                       "frame": [["1", "0"], ["0", "1"]], "Q": "0",
                       "density": "exp(x1)"}


def rank_one_chain(step):
    """x1' = u, x_(i+1)' = x_i: growth (1, 2, ..., step) at every covector
    with p1 != 0 at the origin."""
    return {"name": "chain%d" % step, "dim": step, "rank": 1,
            "X0": ["0"] + ["x%d" % i for i in range(1, step)],
            "frame": [["1"] + ["0"] * (step - 1)], "Q": "0", "density": "1"}


def _chain_covector(step):
    return ",".join(repr(0.5 * (-1) ** i / (i + 1)) if i else "1"
                    for i in range(step))


def run(argv):
    """main() returns an int, argparse usage errors raise SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as stop:
        return int(stop.code or 0)


def test_analyze_flat_plane(capsys):
    rc = run(["analyze", "euclidean:2", "--covector", "1,0"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["flag"]["geodesic_dimension"] == 2
    assert report["flag"]["leading_constant"]["float"] == pytest.approx(1.0)
    assert report["status"] == "ok"


def test_analyze_heisenberg_full_pipeline(capsys):
    rc = run(["analyze", "heisenberg3", "--covector", "1,0,1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    flag = report["flag"]
    assert flag["growth"] == [2, 3]
    assert flag["geodesic_dimension"] == 5
    assert flag["leading_constant"]["rational"] == "1/12"
    assert report["equiregular"] is True
    assert report["rho"]["gap"] <= 1e-5
    assert report["checks"] and all(report["checks"].values())
    assert report["fit"]["constant_rel_gap"] <= 1e-3


def test_analyze_stationary_covector_exits_degenerate(capsys):
    rc = run(["analyze", "heisenberg3", "--covector", "0,0,1"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["status"].startswith("degenerate covector")
    assert "flag" not in report


def test_analyze_structure_file_nonequiregular(tmp_path, capsys):
    path = tmp_path / "mart.json"
    path.write_text(json.dumps(MARTINET))
    rc = run(["analyze", "--file", str(path), "--covector", "1,1,0.7"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert report["status"] == "growth vector changes along the flow"
    assert report["equiregular"] is False
    assert report["growth_along_flow"][0] == [2, 2, 3]


def test_analyze_numerical_failure_exit(capsys):
    cases = [
        ["analyze", "euclidean:2", "--covector", "1,0",
         "--drift", "20*x1^2,0"],
        # the fit's time rescaling overflows or underflows
        ["analyze", "euclidean:2", "--covector", "1,0",
         "--window", "0.1,1e300"],
        ["analyze", "euclidean:2", "--covector", "1,0",
         "--window", "1e-300,1e-299"],
        # x3 reaches about 1e295 by t = 0.05, where the frame is no
        # longer independent in floating point: a flag failure along the
        # flow, not at the base
        ["analyze", "heisenberg3", "--covector", "1e150,0,1"],
        # the flow's Taylor series overflows at the start
        ["analyze", "heisenberg3", "--covector", "1,0,1e30"],
        # the flag's squared velocity overflows, or its column norms do
        ["analyze", "heisenberg3", "--covector", "1e200,0,1"],
        ["analyze", "heisenberg3", "--covector", "1,0,1",
         "--base", "1e200,0,0"],
    ]
    for argv in cases:
        assert run(argv) == 3, argv
        assert capsys.readouterr().err.startswith(
            ("integration failure", "numerical failure")), argv


def test_flag_failing_along_the_flow_is_numerical(tmp_path, capsys):
    # The frame degenerates at x1 = 1, which the flow from (0.9, 0)
    # reaches; the base covector is fine.
    path = tmp_path / "degenerating-frame.json"
    path.write_text(json.dumps({
        "dim": 2, "rank": 2, "X0": ["0", "0"],
        "frame": [["1", "0"], ["1", "x1 - 1"]], "Q": "0", "density": "1"}))
    assert run(["analyze", "--file", str(path), "--base", "0.9,0",
                "--covector", "1,0"]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: frame fields are dependent at")


def test_flow_leaving_the_domain_exits_three(capsys):
    # x1 reaches 0, where the drift's log(x1) is undefined.
    assert run(["analyze", "--file", str(oracles.NODE_KINDS),
                "--base", "0.05,0", "--covector=-1,0.3"]) == 3
    assert capsys.readouterr().err.startswith(
        "integration failure: flow blew up near t=")


def test_density_failing_along_the_flow_is_numerical(tmp_path, capsys):
    path = tmp_path / "overflowing-density.json"
    path.write_text(json.dumps(OVERFLOWING_DENSITY))
    argv = ["analyze", "--file", str(path), "--base", "709.7,0",
            "--covector", "1,0"]
    # with the fit the Gram pass meets the overflow, at a fit time
    assert run(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert " at t=" in err and "density is not finite" in err
    # without it nothing reads the density along the flow: rho's second
    # path reads the density's series at the base
    assert run(argv + ["--no-fit"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rho"]["gap"] <= 1e-10


def test_analyze_no_fit_skips_the_expansion(capsys):
    rc = run(["analyze", "heisenberg3", "--covector", "1,0,1", "--no-fit"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "fit" not in report
    assert set(report["checks"]) == {"rho_two_path"}


def test_analyze_weight_shows_up_in_rho(capsys):
    rc = run(["analyze", "euclidean:2:psi=0.3*x1", "--covector", "1,0",
              "--base", "0.1,-0.2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["base"] == [0.1, -0.2]
    assert report["rho"]["gram"] == pytest.approx(0.3, abs=1e-9)


def test_usage_errors_exit_one(tmp_path, capsys):
    batch = tmp_path / "covs.txt"
    batch.write_text("1,0\n")
    flat = ["analyze", "euclidean:2", "--covector", "1,0"]
    cases = [
        [],
        ["bogus"],
        ["analyze", "nosuchspace", "--covector", "1"],
        ["analyze", "euclidean:2"],
        ["analyze", "euclidean:2", "--covector", "a,b"],
        ["analyze", "euclidean:2", "--covector", "1,0", "--window", "0.2"],
        ["analyze", "euclidean:2", "--covector", "1,0,0"],
        ["sweep", "euclidean:2", "/no/such/file.txt"],
        flat + ["--window", "0.2,0.1"],
        flat + ["--window", "0,0.1"],
        flat + ["--window", "0.1,inf"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,nan"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1",
         "--base", "0,nan,0"],
        ["analyze", "euclidean:2", "--covector", "1,,0"],
        ["analyze", "heisenberg3:7", "--covector", "1,0,0"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1",
         "--base", "0,,0"],
        flat + ["--samples", "-3"],
        flat + ["--samples", "0"],
        flat + ["--samples", "2"],
        flat + ["--tol", "0"],
        flat + ["--tol", "-1"],
        flat + ["--tol", "nan"],
        flat + ["--rho-gap-tol", "nan"],
        flat + ["--constant-tol", "-1"],
        ["sweep", "euclidean:2", str(batch), "--samples", "3"],
        ["sweep", "euclidean:2", str(batch), "--tol", "inf"],
        ["expansion", "euclidean:2", "--covector", "1,0", "--window",
         "0.1,0.1"],
        ["expansion", "euclidean:2", "--covector", "1,0", "--tol", "-1e-9"],
        ["expansion", "heisenberg3", "--covector", "1,0"],
        ["expansion", "heisenberg3", "--covector", "1,0,0.5,3"],
        ["verify-identities", "--nmax", "1"],
        ["verify-identities", "--nmax", "0"],
        ["verify-identities", "--nmax", "-3"],
    ]
    flat2 = {"dim": 2, "rank": 2, "X0": ["0", "0"],
             "frame": [["1", "0"], ["0", "1"]], "Q": "0", "density": "1"}
    line = {"dim": 1, "rank": 1, "X0": ["0"], "frame": [["1"]], "Q": "0",
            "density": "1"}
    malformed = [
        ('{"dim": 3, "rank": 2,', "0,1,0"),
        ("[" * 100000 + "]" * 100000, "0,1,0"),
        (dict(MARTINET, dim="two"), "0,1,0"),
        (dict(flat2, dim=2.7), "1,0"),
        (dict(line, rank=True), "1"),
        ([MARTINET], "0,1,0"),
        (dict(MARTINET, Q=0), "0,1,0"),
        (dict(MARTINET, density=["1"]), "0,1,0"),
        (dict(MARTINET, X0="0,0,0"), "0,1,0"),
        (dict(MARTINET, X0=["0", "0"]), "0,1,0"),
        (dict(MARTINET, frame=["1", "0", "0"]), "0,1,0"),
        (dict(MARTINET, frame=[["1", 0, "0"], ["0", "1", "x1^2"]]), "0,1,0"),
    ]
    for i, (content, covector) in enumerate(malformed):
        path = tmp_path / ("malformed%d.json" % i)
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
        cases.append(["analyze", "--file", str(path), "--covector",
                      covector])
    for argv in cases:
        assert run(argv) == 1, argv
        capsys.readouterr()
    # a density that vanishes at the base point; the point prints as plain
    # floats
    path = tmp_path / "vanishing-density.json"
    path.write_text(json.dumps(dict(flat2, density="x1")))
    assert run(["analyze", "--file", str(path), "--covector", "1,0"]) == 1
    assert capsys.readouterr().err == ("error: density is not positive at"
                                       " [0.0, 0.0]\n")
    # a density that overflows at the base point is not finite there
    path = tmp_path / "overflowing-density.json"
    path.write_text(json.dumps(dict(flat2, density="exp(x1)")))
    assert run(["analyze", "--file", str(path), "--covector", "1,0",
                "--base", "1000,0"]) == 1
    assert capsys.readouterr().err == ("error: density is not finite at"
                                       " [1000.0, 0.0]\n")


def test_main_reuses_one_parser(capsys):
    assert run(["analyze", "heisenberg3", "--covector", "0.6,0.8,1",
                "--no-fit", "--potential", "x1^2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(["analyze", "heisenberg3", "--covector", "0.6,0.8,1"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert "fit" not in first and "fit" in second
    assert first["structure"] == "heisenberg3 (potential=x1^2)"
    assert second["structure"] == "heisenberg3"
    assert run(["list-builtins"]) == 0
    assert "heisenberg3" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


HEISENBERG_NAMED_FLAT = {"name": "euclidean:3", "dim": 3, "rank": 2,
                         "X0": ["0", "0", "0"],
                         "frame": [["1", "0", "-x2/2"], ["0", "1", "x1/2"]],
                         "Q": "0", "density": "1"}
FLAT_NAMED_ODDLY = {"name": "mystery", "dim": 2, "rank": 2,
                    "X0": ["0", "0"], "frame": [["1", "0"], ["0", "1"]],
                    "Q": "0", "density": "exp(0.2*x1)"}


@pytest.mark.parametrize("argv, oracle", [
    (["euclidean:2", "--potential", "x1^2", "--covector", "1,0"], None),
    (["sphere2", "--potential", "x1^2", "--covector", "2,0"], None),
    ([HEISENBERG_NAMED_FLAT, "--covector", "1,0.2,0.8"], None),
    (["euclidean:2", "--drift", "0,0", "--covector", "1,0"], 0.0),
    ([FLAT_NAMED_ODDLY, "--covector", "0.6,0.8"], 0.0),
    (["sphere2", "--covector", "0,2"], 1.0),
    (["euclidean:3:psi=0.3*x1", "--covector", "1,0,0"], 0.0),
])
def test_ricci_oracle_binds_to_the_structure(argv, oracle, tmp_path,
                                              capsys):
    if isinstance(argv[0], dict):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(argv[0]))
        argv = ["--file", str(path)] + argv[1:]
    rc = run(["analyze"] + argv)
    report = json.loads(capsys.readouterr().out)
    assert rc == 0, report["checks"]
    if oracle is None:
        assert "ricci_oracle" not in report
    else:
        assert report["ricci_oracle"]["value"] == pytest.approx(oracle)
        assert report["checks"]["ricci_oracle"] is True


def test_report_names_the_overrides(capsys):
    run(["analyze", "sphere2", "--potential", "x1^2", "--covector", "2,0"])
    assert json.loads(capsys.readouterr().out)["structure"] == (
        "sphere2 (potential=x1^2)")
    run(["analyze", "heisenberg3", "--drift", "x2,0,0", "--potential",
         "x1^2", "--covector", "1,0,1", "--no-fit"])
    assert json.loads(capsys.readouterr().out)["structure"] == (
        "heisenberg3 (drift=x2,0,0; potential=x1^2)")
    run(["analyze", "sphere2", "--covector", "2,0", "--no-fit"])
    assert json.loads(capsys.readouterr().out)["structure"] == "sphere2"


def test_verify_identities_all_pass(capsys):
    rc = run(["verify-identities", "--nmax", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_list_builtins_names(capsys):
    rc = run(["list-builtins"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heisenberg3" in out
    assert "engel" in out
    assert "heisenberg5" in out


def test_sweep_statuses_in_input_order(tmp_path, capsys):
    covectors = ["1,0,1", "0,0,1", "1,0", "0.6,0.8,nan", "1e150,0,1",
                 "0.6,0.8,1.1", "1e160,0,1", "1e200,0,1", "1,0,1e30"]
    batch = tmp_path / "covs.txt"
    batch.write_text("".join(c + "\n" for c in covectors))
    rc = run(["sweep", "heisenberg3", str(batch)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    # each row is what a sweep of that covector alone produces
    for i, cov in enumerate(covectors):
        single = tmp_path / ("one%d.txt" % i)
        single.write_text(cov + "\n")
        assert run(["sweep", "heisenberg3", str(single)]) == 0
        alone = capsys.readouterr().out.strip().splitlines()
        assert alone == [lines[0], lines[i + 1]]
    assert lines[0].rstrip() == ("covector,growth,dimension,rho,C_fit,"
                                 "trR_fit,residual,status")
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[0] == '"1'  # quoted because the covector contains commas
    assert lines[1].rstrip().endswith("ok")
    assert "degenerate" in lines[2]
    assert "bad-input" in lines[3]
    assert "bad-input" in lines[4]
    # the flow reaches x3 ~ 1e295, where the completion degenerates
    assert (',,,,,"degenerate: auxiliary completion degenerated at'
            in lines[5])
    assert lines[6].rstrip().endswith("ok")
    # the energy at the start overflows, so the geodesic fails before the
    # flag: a failure with no growth vector, not non-ample
    for line in lines[7:9]:
        assert (",,,,,,,integration-failure: energy is not finite at t=0.0"
                in line)
        assert "non-ample" not in line
    # the jet at t = 0 is not finite, and the flag is read from it
    assert ",,,,,,,integration-failure: " in lines[9]
    ok_fields = lines[1].rsplit(",", 5)
    assert float(ok_fields[2]) == pytest.approx(1.0 / 12.0, rel=1e-3)


def test_sweep_row_failing_in_the_fit_window_has_no_rho(tmp_path, capsys):
    # G is finite at rho's nodes around 0 and fails at a fit time: the
    # one Gram pass fails, so the row carries no rho, like any other
    # degenerate row.
    path = tmp_path / "overflowing-density.json"
    path.write_text(json.dumps(OVERFLOWING_DENSITY))
    batch = tmp_path / "covs.txt"
    batch.write_text("1,0\n")
    rc = run(["sweep", "--file", str(path), "--base", "709.7,0",
              str(batch)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    # the failing time named is the earliest along the flow
    assert lines[1].startswith('"1,0",2,2,,,,,"degenerate: auxiliary'
                               ' completion degenerated at t=0.0915')


def test_sweep_empty_file_emits_header_only(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("")
    rc = run(["sweep", "heisenberg3", str(batch)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines() == ["covector,growth,dimension,rho,"
                                        "C_fit,trR_fit,residual,status"]


def test_expansion_table_matches_flat_square_law(capsys):
    rc = run(["expansion", "euclidean:2", "--covector", "1,0",
              "--samples", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip() == "t,ratio,h,model"
    assert len(lines) == 13
    for line in lines[1:]:
        t, ratio, h, model = (float(v) for v in line.split(","))
        assert ratio == pytest.approx(t * t, rel=1e-8)
        assert abs(h) <= 1e-8


def test_expansion_degenerate_covector_exits_two(tmp_path, capsys):
    # as in analyze: a stationary or non-ample covector is degenerate,
    # not a numerical failure, and no table is written
    target = tmp_path / "table.csv"
    cases = {"0,0,0,0": "degenerate covector: ",
             "0,1,0,0": "non-ample covector\n"}
    for covector, message in cases.items():
        assert run(["expansion", "engel", "--covector", covector,
                    "--out", str(target)]) == 2, covector
        captured = capsys.readouterr()
        assert captured.err.startswith(message), covector
        assert captured.out == ""
        assert not target.exists()


def test_out_flag_writes_files_not_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = run(["analyze", "heisenberg3", "--covector", "1,0,1",
              "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["flag"]["leading_constant"]["rational"] == "1/12"

    listing = tmp_path / "identities.txt"
    rc = run(["verify-identities", "--nmax", "4", "--out", str(listing)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert all(line.startswith("PASS")
               for line in listing.read_text().strip().splitlines())


def test_report_json_is_stable_under_roundtrip(capsys):
    rc = run(["analyze", "engel", "--covector", "0.8,0.6,0.5,-0.4"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    assert report["flag"]["growth"] == [2, 3, 4]
    assert report["flag"]["geodesic_dimension"] == 10


# analyze_report values recorded before every stage read one geodesic per
# covector: (covector, rho gram, rho flow, fitted C, trace_r) at the chart
# origin, and the geodesic dimension N, the exact order of det A's series.
GOLDEN = {
    "heisenberg3": ([1.0, 0.2, 0.8], 9.055256544598933e-13,
                    -2.490511406213542e-14, 0.08333333310648401,
                    0.25597377059568405, 5),
    "heisenberg5:1,2": ([0.5, -0.4, 0.6, 0.3, 1.1], 2.9605947323337506e-13,
                        6.248916593759567e-14, 0.08333331800111028,
                        2.606573189797711, 7),
    "engel": ([0.8, 0.6, 0.5, -0.4], -0.3750000000005369,
              -0.37500031048410376, 0.00011574073375599939,
              -0.2269843519396305, 10),
    "sphere2": ([0.6, 0.8], 0.0, 0.0, 0.9999999947100635,
                0.2499490341765579, 2),
    "euclidean:3:psi=0.3*x1": ([0.6, -0.8, 0.5], 0.18000000000001348,
                               0.18000000000000074, 0.9999999999999957,
                               -2.442258153492567e-13, 3),
}


def test_analyze_matches_recorded_values():
    # within the tolerances of analyze_report's own checks
    for name, (cov, rho_g, rho_f, const, trace, order) in GOLDEN.items():
        system = catalog.builtin(name)
        report, code = cli.analyze_report(system, np.zeros(system.dim),
                                          np.array(cov))
        assert code == 0, name
        assert report["rho"]["gram"] == pytest.approx(rho_g, abs=1e-5)
        assert report["rho"]["flow"] == pytest.approx(rho_f, abs=1e-5)
        assert report["fit"]["constant"] == pytest.approx(const, rel=1e-3)
        assert report["fit"]["trace_r"] == pytest.approx(trace, abs=1e-2)
        assert report["exponent"] == {"series_order": order,
                                      "expected": order}


def test_analyze_serves_each_time_once(monkeypatch):
    # Each stage asks the one geodesic for its own times; a time already
    # served, 0 included, is never flowed again.
    served = []
    inner = ham.transition_many

    def counted(sys, x0, p0, times, *args, **kwargs):
        served.extend(times)
        return inner(sys, x0, p0, times, *args, **kwargs)

    monkeypatch.setattr(ham, "transition_many", counted)
    jets = _counting(monkeypatch, ham, "_jet")
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    # the growth checks, rho's nodes and the fit; rho's second path and
    # the exponent check read the t = 0 jet and serve no time
    reads = ([0.2 * i / 4 for i in range(1, 5)] + rh.rho_times()
             + list(np.geomspace(1e-2, 2e-1, 24)))
    assert sorted(served) == sorted({float(t) for t in reads})
    assert len(served) == 31
    assert len(jets) == 1


def test_analyze_jet_budget(monkeypatch):
    # One Taylor jet at t = 0 serves every time of both signs.
    jets = _counting(monkeypatch, ham, "_jet")
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    assert len(jets) == 1


def test_engel_two_path_rho_gap_stays_small():
    system = catalog.builtin("engel")
    rng = np.random.default_rng(41)
    for _ in range(8):
        p0 = catalog.sample_covector("engel", rng)
        report, code = cli.analyze_report(system, np.zeros(4), p0)
        assert code == 0
        assert report["rho"]["gap"] <= 1e-10


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_base_flag_per_covector(monkeypatch, tmp_path, capsys):
    flags = _counting(monkeypatch, fl, "flag_from")
    profiles = _counting(monkeypatch, fl, "_growth_profile")
    columns = _counting(monkeypatch, fl, "_jacobi_columns")
    grams = _counting(monkeypatch, rh, "gram_from")
    batches = _counting(monkeypatch, ham, "transition_many")
    auxes = _counting(monkeypatch, geo, "aux_frame_at")
    log_dets = _counting(monkeypatch, ham, "signed_log_det")
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    assert len(flags) == 1
    # one Gram pass serves rho and the fit
    assert len(grams) == 1
    # The jet at t = 0 reaches every time the stages read, so one batch
    # serves them, and one rank pass over the base, the 4 points along the
    # flow and the Gram points serves the three stages that read ranks;
    # they made 3 batches and 3 passes, one per stage.  The Gram pass
    # takes the base completion once and reads the kept frames, and the
    # fit reads one stack of volume ratios.
    assert (len(batches), len(profiles), len(columns)) == (1, 1, 1)
    assert (len(auxes), len(log_dets)) == (1, 1)

    del flags[:], grams[:]
    batch = tmp_path / "covs.txt"
    batch.write_text("0.8,0.6,0.5,-0.4\n")
    assert run(["sweep", "engel", str(batch)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1].endswith("ok")
    assert len(flags) == 1
    assert len(grams) == 1


def test_analyze_lapack_budget(monkeypatch):
    # Each stage stacks its per-point linear algebra: one call per level,
    # not one per point, which made 334 SVDs and 73 log-determinants here.
    # The level Gram determinants are eliminated, not read from an SVD,
    # which took the SVDs from 17 to 14, and one rank pass of 3 levels
    # serves the base flag, the growth along the flow and the Gram points,
    # which took them to 8: 3 for the ranks, 5 for the Gram levels.  The
    # exponent check reads det A's series, so the fit makes the one
    # least-squares solve.
    svds = _counting(monkeypatch, np.linalg, "svd")
    slogdets = _counting(monkeypatch, np.linalg, "slogdet")
    solves = _counting(monkeypatch, np.linalg, "lstsq")
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    assert len(svds) <= 8
    assert len(slogdets) <= 1
    assert len(solves) == 1


def test_flag_point_evaluates_frame_and_controls_once(monkeypatch):
    # Level 0 of a flag point is its frame, and the later levels read the
    # flow's jets.  A separate controls evaluator and a second frame
    # evaluation per point made 99 frame evaluations and 876 evaluator
    # calls here, and evaluating one point per call made 64 and 353: each
    # stage now evaluates its points as one stack per call.  The geodesic
    # evaluates the start energy and the base density once each, which
    # took the count from 27 to 25, rho's second path reads no density or
    # energy along the flow, which took it to 23, and the flag reads no
    # control jet and no bracket evaluator, which took it to 17.  One
    # rank pass evaluates the frames of all the points the stages read,
    # the Gram pass reads them and one density stack, and the fit reads
    # those densities: 8, and 2 frame evaluations, one of them the base
    # completion's.
    frames = _counting(monkeypatch, geo.ControlSystem, "frame_matrix")
    evals = [0]
    inner = expr.compile_exprs

    def compiled(exprs):
        fn = inner(exprs)

        def counted(values):
            evals[0] += 1
            return fn(values)

        return counted

    monkeypatch.setattr(expr, "compile_exprs", compiled)
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    assert len(frames) <= 2
    assert "controls_fn" not in system._cache
    assert evals[0] <= 8


def test_analyze_compiles_one_control_evaluator(monkeypatch):
    # The flow and the density series each compile one Taylor evaluator;
    # the flag reads the flow's jet, whatever the order a level asks for,
    # and compiles none.
    calls = _counting(monkeypatch, expr, "compile_taylor")
    system = catalog.builtin("engel")
    _, code = cli.analyze_report(system, np.zeros(4),
                                 np.array([0.8, 0.6, 0.5, -0.4]))
    assert code == 0
    assert len(calls) == 2
    assert not [key for key in system._cache if isinstance(key, tuple)
                and any("poisson" in str(part) for part in key)]


def test_analyze_checks_the_flag_before_integrating(monkeypatch):
    # The base flag reads the jet at t = 0: a degenerate or non-ample
    # covector exits 2 with that one jet, after the one batch that serves
    # the times the jet reaches and the one rank pass there, and with no
    # volume work: no log-determinant and no density, at the base or
    # along the flow.
    calls = _counting(monkeypatch, ham, "transition_many")
    jets = _counting(monkeypatch, ham, "_jet")
    log_dets = _counting(monkeypatch, ham, "signed_log_det")
    densities = _counting(monkeypatch, geo.ControlSystem, "density_values")
    system = catalog.builtin("engel")
    report, code = cli.analyze_report(system, np.zeros(4), np.zeros(4))
    assert code == 2
    assert report["status"].startswith("degenerate covector")
    assert (len(jets), len(calls)) == (1, 1)
    assert (len(log_dets), len(densities)) == (0, 0)
    del jets[:], calls[:]
    report, code = cli.analyze_report(system, np.zeros(4),
                                      np.array([0.0, 1.0, 0.0, 0.0]))
    assert code == 2
    assert report["status"] == "non-ample covector"
    assert (len(jets), len(calls)) == (1, 1)
    assert (len(log_dets), len(densities)) == (0, 0)


@pytest.mark.parametrize("step", [6, 9])
def test_deep_rank_one_chains(tmp_path, capsys, step):
    # One Young row of length s: N = s^2 and C = det_formula(s).  The flag
    # reads the jet's orders up to s, the series of rho orders up to 2s.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(rank_one_chain(step)))
    rc = run(["analyze", "--file", str(path), "--covector",
              _chain_covector(step), "--no-fit"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    flag = report["flag"]
    assert flag["growth"] == list(range(1, step + 1))
    assert flag["geodesic_dimension"] == step ** 2
    assert (Fraction(flag["leading_constant"]["rational"])
            == exact.det_formula(step))


@pytest.mark.parametrize("step", range(3, 10))
def test_rank_one_chains_pass_the_fit(step):
    # det A(t) = c t^(s^2): the exponent check reads that order from the
    # series, past 64 points of the circle from step 8 (N = 64) on.
    system = geo.structure_from_dict(rank_one_chain(step))
    report, code = cli.analyze_report(
        system, np.zeros(step), np.array(
            [float(v) for v in _chain_covector(step).split(",")]))
    assert code == 0, report["status"]
    assert report["exponent"] == {"series_order": step ** 2,
                                  "expected": step ** 2}


def test_a_step_beyond_the_jet_order_fails_by_name(tmp_path, capsys,
                                                   monkeypatch):
    # Step 11 needs det A's series to order 22 > ORDER = 20: the series of
    # rho raises, a numerical failure, not a degenerate covector.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(rank_one_chain(11)))
    argv = ["analyze", "--file", str(path), "--covector",
            _chain_covector(11), "--no-fit"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the series of rho needs the flow's Taylor order"
        " 22 at step 11, beyond its jet order 20\n")
    # With a jet of order 10, the flag's level 11 is out of reach.
    monkeypatch.setattr(ham, "ORDER", 10)
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: flag level 11 needs the flow's Taylor order 11,"
        " beyond its jet order 10\n")
    with pytest.raises(fl.JetOrderError):
        fl.flag_at(geo.structure_from_dict(rank_one_chain(11)),
                   np.zeros(11), np.ones(11))


def test_reading_ahead_changes_no_result(monkeypatch):
    # What the read-ahead computes, the stages would compute on their own:
    # without it, every report, sweep row and error is the same, the
    # failures met ahead (a blow-up, a degenerating completion, a density
    # that overflows or vanishes along the flow, a frame that degenerates)
    # included.
    structure = geo.structure_from_dict
    chain = structure(rank_one_chain(6))
    cases = [
        (catalog.builtin("engel"), [0, 0, 0, 0], [0.8, 0.6, 0.5, -0.4], {}),
        (catalog.builtin("engel"), [0, 0, 0, 0], [0.8, 0.6, 0.5, -0.4],
         {"window": (0.02, 1.0)}),
        (catalog.builtin("engel"), [0, 0, 0, 0], [0, 1, 0, 0], {}),
        (catalog.builtin("engel"), [0, 0, 0, 0], [0, 0, 0, 0], {}),
        (catalog.builtin("heisenberg3"), [0, 0, 0], [1e150, 0, 1], {}),
        (catalog.builtin("heisenberg3"), [0.2, -0.1, 0.4], [0.6, 0.8, 1.1],
         {"fit": False}),
        (catalog.builtin("sphere2"), [0, 0], [0.6, -0.8], {}),
        (structure(MARTINET), [0, 0, 0], [1, 1, 0.7], {}),
        (structure(OVERFLOWING_DENSITY), [709.7, 0], [1, 0], {}),
        (structure(dict(OVERFLOWING_DENSITY, density="x1")), [0, 0], [1, 0],
         {}),
        (structure(dict(OVERFLOWING_DENSITY, frame=[["1", "0"],
                                                    ["1", "x1 - 1"]])),
         [0.9, 0], [1, 0], {}),
        (catalog.with_overrides(catalog.builtin("euclidean:2"),
                                drift=["20*x1^2", "0"]), [0, 0], [1, 0], {}),
        (chain, [0] * 6, [1, 0.3, -0.2, 0.1, 0.5, -0.4], {"fit": False}),
        # the flow leaves the domain of log(x1) before t = 0.05
        (geo.load_structure(oracles.NODE_KINDS), [0.05, 0], [-1, 0.3], {}),
    ]

    def outcomes():
        out = []
        for system, x0, p0, options in cases:
            x0, p0 = np.array(x0, float), np.array(p0, float)
            try:
                out.append(cli.analyze_report(system, x0, p0, **options))
            except Exception as err:
                out.append((type(err), str(err)))
            text = ",".join(repr(float(v)) for v in p0)
            out.append(cli._sweep_row(system, x0, text, asym.FIT_WINDOW,
                                      asym.FIT_SAMPLES, ham.DEFAULT_TOL))
        return out

    ahead = outcomes()
    monkeypatch.setattr(fl, "read_ahead", lambda *args: None)
    assert outcomes() == ahead
    raised = {result[0].__name__ for result in ahead[::2]
              if isinstance(result[0], type)}
    codes = {result[1] for result in ahead[::2]
             if not isinstance(result[0], type)}
    assert raised == {"IntegrationError", "RhoError", "GeometryError",
                      "AsymptoticsError", "FlagError"}
    assert codes == {0, 2}
