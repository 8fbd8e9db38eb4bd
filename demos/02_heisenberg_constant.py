"""The Heisenberg group and the constant 1/12.

Rank 2 on R^3 with one bracket step: the growth vector along any
nonstationary geodesic is (2, 3), the geodesic dimension is 5, and the
leading coefficient of the volume expansion is exactly 1/12.  The fit
recovers it from pure numerics to nine digits.
"""

import numpy as np

import geoflow.asymptotics as asym
import geoflow.catalog as cat
import geoflow.flag as fl
import geoflow.hamiltonian as ham
import geoflow.rho as rh


def main():
    sys = cat.builtin("heisenberg3")
    x0 = np.zeros(3)
    p0 = np.array([1.0, 0.2, 0.8])

    geodesic = ham.Geodesic(sys, x0, p0)
    flag = fl.flag_from(geodesic)
    print("growth vector      :", flag.growth)
    print("geodesic dimension :", flag.dimension)
    print("young rows         :", flag.young_rows)
    print("exact constant     : %s = %.10f"
          % (flag.leading, float(flag.leading)))

    order, _ = rh.volume_series_from(geodesic, flag)
    print("order of det A     : %d (expect 5)" % order)
    print("rho                : %.2e (expect 0)" % rh.rho(sys, x0, p0))

    fit = asym.fit_expansion(sys, x0, p0)
    gap = abs(fit.constant - float(flag.leading)) / float(flag.leading)
    print("fitted constant    : %.10f (rel gap %.1e)" % (fit.constant, gap))
    print("fitted trace       : %+.4f (no closed form; reported only)"
          % fit.trace_r)


if __name__ == "__main__":
    main()
