"""Digest of geoflow's command output, for byte-identity comparisons.

Runs a fixed set of `geoflow` commands in-process against the `src/` of
the checkout this file belongs to, and prints one line per command: the
argv, the exit code, the sha256 of stdout followed by stderr, and the
Taylor jets (`hamiltonian._jet` calls) and serving batches
(`hamiltonian.transition_many` calls) the command computed, so that a
change's budget is diffed together with its outputs.  Run it in two
checkouts and diff the two outputs:

    python3 tools/report_digest.py > digest.txt

Structure and covector files are written to a temporary directory, but
for the tests' `node_kinds.json`, which is read in place.  The paths of
that directory and of the checkout are replaced by `<tmp>` and `<repo>`
in the argv and in the hashed output, so checkouts in different places
give the same lines.  Warnings are shown every time they are raised, so a
command's output does not depend on the commands before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile
import traceback
import warnings

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from geoflow import catalog  # noqa: E402
from geoflow import cli  # noqa: E402
from geoflow import hamiltonian as ham  # noqa: E402

# Structures analyzed at 4 covectors each, drawn by catalog.sample_covector
# from default_rng(41); the sampler is named by the spec's family.
SAMPLED = ["euclidean:3", "euclidean:2:psi=0.3*x1 - x2^2", "sphere2",
           "heisenberg3", "heisenberg5:1,2", "heisenberg5:2,5", "engel"]

MARTINET = {"name": "martinet", "dim": 3, "rank": 2, "X0": ["0", "0", "0"],
            "frame": [["1", "0", "0"], ["0", "1", "x1^2"]],
            "Q": "0", "density": "1"}

# A density that vanishes at the origin.
VANISHING_DENSITY = {"dim": 2, "rank": 2, "X0": ["0", "0"],
                     "frame": [["1", "0"], ["0", "1"]], "Q": "0",
                     "density": "x1"}

# A density that overflows far from the origin: at x1 = 709.78..., which
# the flow from the base point (709.7, 0) reaches within the fit window.
OVERFLOWING_DENSITY = dict(VANISHING_DENSITY, density="exp(x1)")
OVERFLOW_BASE = ["--base", "709.7,0"]

# A frame that degenerates at x1 = 1, which the flow from (0.9, 0) reaches.
DEGENERATING_FRAME = {"dim": 2, "rank": 2, "X0": ["0", "0"],
                      "frame": [["1", "0"], ["1", "x1 - 1"]], "Q": "0",
                      "density": "1"}

# The tests' structure whose Hamiltonian field has every node kind.
NODE_KINDS = ROOT / "tests" / "node_kinds.json"


def rank_one_chain(step):
    """x1' = u, x_(i+1)' = x_i: growth (1, 2, ..., step)."""
    return {"dim": step, "rank": 1,
            "X0": ["0"] + ["x%d" % i for i in range(1, step)],
            "frame": [["1"] + ["0"] * (step - 1)], "Q": "0", "density": "1"}


# Step 6 reads the flow's jet to order 6 for the flag and 12 for rho's
# series; step 11 would need order 22 > ORDER for the series.  Steps 8
# and 9 (N = 64 and 81), analyzed with the fit at the first 8 and 9
# entries of the step-11 covector, are the first whose det A series
# needs more than rho.SERIES_POINTS points of the circle.
CHAIN6_COVECTORS = ["1,0.3,-0.2,0.1,0.5,-0.4", "0.8,-0.6,0,0.2,0,0.1"]
CHAIN11_COVECTOR = "1,0.3,-0.2,0.1,0.5,-0.4,0.2,0,0.1,-0.1,0.3"
DEEP_CHAIN_STEPS = (8, 9)

SWEEPS = {
    "heisenberg3": ["1,0,1", "0,0,1", "1,0", "0.6,0.8,nan", "0.6,0.8,1.1",
                    "1e150,0,1", "1e200,0,1", "-0.3,0.9,-0.7"],
    "engel": ["0.8,0.6,0.5,-0.4", "0,1,0,0", "0,0,0,0", "1,2,3",
              "0.9,-0.4,0.3,0.6"],
    "euclidean:2": ["1,0", "0,0", "0.6,-0.8", "x,1"],
}


def _covector_text(p):
    return ",".join(repr(float(v)) for v in p)


def commands(tmp):
    """The argv lists, in the order they run."""
    out = []
    for name in SAMPLED:
        rng = np.random.default_rng(41)
        for _ in range(4):
            p = catalog.sample_covector(name, rng)
            out.append(["analyze", name, "--covector=" + _covector_text(p)])
    files = {"martinet": MARTINET, "vanishing-density": VANISHING_DENSITY,
             "overflowing-density": OVERFLOWING_DENSITY,
             "degenerating-frame": DEGENERATING_FRAME,
             "chain6": rank_one_chain(6), "chain11": rank_one_chain(11)}
    files.update(("chain%d" % step, rank_one_chain(step))
                 for step in DEEP_CHAIN_STEPS)
    for stem, data in files.items():
        (tmp / (stem + ".json")).write_text(json.dumps(data))
    for name, rows in SWEEPS.items():
        (tmp / (name + ".txt")).write_text("".join(r + "\n" for r in rows))
    (tmp / "overflowing-density.txt").write_text("1,0\n0.6,0.8\n")
    (tmp / "chain6.txt").write_text("".join(r + "\n"
                                            for r in CHAIN6_COVECTORS))
    martinet = str(tmp / "martinet.json")
    overflowing = str(tmp / "overflowing-density.json")
    out += [
        # stationary, non-ample and non-equiregular covectors
        ["analyze", "heisenberg3", "--covector", "0,0,1"],
        ["analyze", "engel", "--covector", "0,0,0,0"],
        ["analyze", "engel", "--covector", "0,1,0,0"],
        ["analyze", "--file", martinet, "--covector", "1,1,0.7"],
        ["analyze", "--file", martinet, "--covector", "1,0.3,0.2"],
        # the same straight-line covector at two small scales
        ["analyze", "heisenberg3", "--covector", "1e-13,0,0"],
        ["analyze", "heisenberg3", "--covector", "1e-12,0,0"],
        # off-origin bases
        ["analyze", "euclidean:2:psi=0.3*x1", "--covector", "1,0",
         "--base", "0.1,-0.2"],
        ["analyze", "engel", "--covector", "0.8,0.6,0.5,-0.4",
         "--base", "0.3,0,0,0"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1.1",
         "--base", "0.2,-0.1,0.4"],
        # no fit, other windows and tolerances
        ["analyze", "heisenberg3", "--covector", "1,0,1", "--no-fit"],
        ["analyze", "engel", "--covector", "0.8,0.6,0.5,-0.4", "--no-fit"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1.1",
         "--window", "0.005,0.1", "--samples", "12", "--tol", "1e-10"],
        # a window whose times span several jets
        ["analyze", "engel", "--covector", "0.8,0.6,0.5,-0.4",
         "--window", "0.02,1"],
        # every node kind in the Hamiltonian field
        ["analyze", "--file", str(NODE_KINDS), "--covector", "0.6,0.8",
         "--base", "1,0"],
        # drift and potential overrides
        ["analyze", "sphere2", "--covector", "0,2", "--base", "1,0",
         "--potential", "x1^2"],
        ["analyze", "euclidean:2", "--covector", "0.6,-0.8",
         "--drift", "1,0"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1.1",
         "--drift", "x2,0,0", "--potential", "x1^2"],
        ["analyze", "heisenberg3", "--covector", "0.6,0.8,1.1",
         "--drift", "0,0,x1*x2"],
        # numerical failures and usage errors
        ["analyze", "euclidean:2", "--covector", "1,0",
         "--drift", "20*x1^2,0"],
        ["analyze", "euclidean:2", "--covector", "1,0",
         "--window", "0.1,1e300"],
        ["analyze", "heisenberg3", "--covector", "1e150,0,1"],
        ["analyze", "heisenberg3", "--covector", "1e200,0,1"],
        ["analyze", "heisenberg3", "--covector", "1,0,1e30"],
        ["analyze", "--file", str(tmp / "degenerating-frame.json"),
         "--covector", "1,0", "--base", "0.9,0"],
        ["analyze", "--file", str(tmp / "vanishing-density.json"),
         "--covector", "1,0"],
        ["analyze", "--file", str(tmp / "vanishing-density.json"),
         "--covector", "1,0", "--no-fit"],
        ["analyze", "--file", overflowing, "--covector", "1,0",
         "--base", "1000,0"],
        ["analyze", "--file", overflowing, "--covector", "1,0"]
        + OVERFLOW_BASE,
        ["analyze", "--file", overflowing, "--covector", "1,0", "--no-fit"]
        + OVERFLOW_BASE,
        # a deep flag, and a step beyond the jet's order
        ["analyze", "--file", str(tmp / "chain6.json"), "--covector",
         CHAIN6_COVECTORS[0], "--no-fit"],
        ["analyze", "--file", str(tmp / "chain11.json"), "--covector",
         CHAIN11_COVECTOR, "--no-fit"],
    ]
    out += [["analyze", "--file", str(tmp / ("chain%d.json" % step)),
             "--covector", ",".join(CHAIN11_COVECTOR.split(",")[:step])]
            for step in DEEP_CHAIN_STEPS]
    out += [
        ["analyze", "euclidean:2", "--covector", "1,0,0"],
        ["analyze", "nosuchspace", "--covector", "1"],
        ["analyze", "heisenberg3:7", "--covector", "0.6,0.8,1.1"],
    ]
    out += [["sweep", name, str(tmp / (name + ".txt"))] for name in SWEEPS]
    out += [
        ["sweep", "--file", overflowing,
         str(tmp / "overflowing-density.txt")] + OVERFLOW_BASE,
        ["sweep", "--file", str(tmp / "chain6.json"),
         str(tmp / "chain6.txt")],
        ["expansion", "euclidean:2", "--covector", "1,0"],
        ["expansion", "engel", "--covector", "0.8,0.6,0.5,-0.4",
         "--samples", "10"],
        # stationary and non-ample covectors
        ["expansion", "engel", "--covector", "0,0,0,0"],
        ["expansion", "engel", "--covector", "0,1,0,0"],
        ["list-builtins"],
        ["verify-identities", "--nmax", "8"],
    ]
    return out


@contextlib.contextmanager
def _counted(owner, names):
    """{name: calls} of the functions `names` of `owner` while open."""
    counts = dict.fromkeys(names, 0)
    inner = {name: getattr(owner, name) for name in names}

    def counting(name):
        def call(*args, **kwargs):
            counts[name] += 1
            return inner[name](*args, **kwargs)
        return call

    for name in names:
        setattr(owner, name, counting(name))
    try:
        yield counts
    finally:
        for name in names:
            setattr(owner, name, inner[name])


def run(argv):
    """(exit code, stdout + stderr, jets, batches) of one in-process
    command.  An exception that escapes `main` is recorded as the code
    "raised" and its last traceback line is appended to the output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(), \
            _counted(ham, ["_jet", "transition_many"]) as counts:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as err:  # a traceback of the command line
            code = "raised"
            stderr.write("".join(traceback.format_exception_only(err)))
    return (code, stdout.getvalue() + stderr.getvalue(), counts["_jet"],
            counts["transition_many"])


def main():
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        for argv in commands(tmp):
            code, text, jets, batches = run(argv)
            shown = [a.replace(str(tmp), "<tmp>").replace(str(ROOT), "<repo>")
                     for a in argv]
            text = text.replace(str(tmp), "<tmp>").replace(str(ROOT),
                                                           "<repo>")
            digest = hashlib.sha256(text.encode()).hexdigest()
            print("%s\t%s\t%s\tjets=%d batches=%d"
                  % (" ".join(shown), code, digest, jets, batches))


if __name__ == "__main__":
    main()
