"""Reading curvature off the volume expansion.

On the round 2-sphere the ratio along a unit-speed geodesic is exactly
t sin t, so the t^2 coefficient of the stripped remainder must be -1/6
and the recovered trace equals the Ricci curvature 1.  This is the
classical Riemannian limit of the machinery.
"""

import numpy as np

import geoflow.asymptotics as asym
import geoflow.catalog as cat
import geoflow.rho as rh


def main():
    sys = cat.builtin("sphere2")
    x0 = np.array([1.0, 0.0])
    p0 = np.array([0.0, 1.0])

    ts = [0.05, 0.1, 0.2, 0.4]
    log_r = rh.log_volume_ratios(sys, x0, p0, ts)
    print("unit geodesic on the round sphere")
    print("  t       r(t)          t*sin(t)")
    for t, lr in zip(ts, log_r):
        print("  %.2f  %12.9f  %12.9f" % (t, np.exp(lr), t * np.sin(t)))

    fit = asym.fit_expansion(sys, x0, p0)
    oracle = asym.ricci_oracle(sys, x0, p0)
    print("  fitted trace : %.6f" % fit.trace_r)
    print("  exact Ricci  : %.6f" % oracle)
    print("  fitted C     : %.8f (expect 1)" % fit.constant)

    fast = np.array([0.0, 2.0])
    ffit = asym.fit_expansion(sys, x0, fast, window=(5e-3, 1e-1))
    print("\ndouble-speed geodesic: trace scales with squared speed")
    print("  fitted trace : %.5f   oracle : %.5f"
          % (ffit.trace_r, asym.ricci_oracle(sys, x0, fast)))


if __name__ == "__main__":
    main()
