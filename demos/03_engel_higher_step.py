"""A step-3 structure: the Engel distribution on R^4.

Generic covectors give growth (2, 3, 4), geodesic dimension 10, and the
Young-diagram constant 1/8640.  Near the non-generic stratum (small
first control) the flag stalls and the analysis reports it instead of
fitting garbage.
"""

import numpy as np

import geoflow.asymptotics as asym
import geoflow.catalog as cat
import geoflow.flag as fl
import geoflow.hamiltonian as ham
import geoflow.rho as rh


def main():
    sys = cat.builtin("engel")
    x0 = np.zeros(4)
    p0 = np.array([0.8, 0.6, 0.5, -0.4])

    geodesic = ham.Geodesic(sys, x0, p0)
    flag = fl.flag_from(geodesic)
    print("generic covector", tuple(float(v) for v in p0))
    print("  growth    :", flag.growth)
    print("  dimension :", flag.dimension)
    print("  constant  : %s = %.3e" % (flag.leading, float(flag.leading)))
    print("  order     : %d (expect 10)"
          % rh.volume_series_from(geodesic, flag)[0])
    fit = asym.fit_expansion(sys, x0, p0)
    gap = abs(fit.constant - float(flag.leading)) / float(flag.leading)
    print("  fitted C  : %.6e (rel gap %.1e)" % (fit.constant, gap))

    stalled = np.array([0.0, 1.0, 0.0, 0.0])
    bad = fl.flag_at(sys, x0, stalled)
    print("\nstalled covector", tuple(float(v) for v in stalled))
    print("  growth  :", bad.growth)
    print("  ample   :", bad.ample)
    for note in bad.diagnostics:
        print("  note    :", note)


if __name__ == "__main__":
    main()
