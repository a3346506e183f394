"""The safety filter as a Euclidean projection.

Evaluates the barrier row table for a reference state approaching the
workspace wall, prints the binding row's inequality, and shows how the QP
clips an outward human force while leaving an inward one untouched.
"""

import numpy as np

from safeadmit import (AdmittanceParams, AdmittanceState, ConstraintSet,
                       EcbfGains, WorkspaceConstraint, assemble_qp, filter_force)


def main():
    ws = WorkspaceConstraint(x_min=(-0.13, -0.13), x_max=(0.13, 0.13), r=0.04)
    cset = ConstraintSet(workspace=ws, gains=EcbfGains())
    params = AdmittanceParams()
    g = params.input_gain

    # reference just inside the shrunk boundary (0.09 m), drifting outward
    state = AdmittanceState(x1=(0.088, 0.0), x2=(0.03, 0.0))
    drift = np.zeros(2)

    print("state: x = (0.088, 0), xdot = (0.03, 0); wall at 0.09 m")
    rows = cset.evaluate(state, drift, g)
    problem = assemble_qp(rows, (0.0, 0.0))
    i = cset.names.index("ws_max_x")
    a, b = problem.A[i, 0], problem.b[i]
    print(f"binding row 'ws_max_x': h = {rows.h[i]:.2e}, Lf_h = {rows.lf_h[i]:.2e}")
    print(f"  inequality: {a:.4f} * u_x <= {b:.4f}  (i.e. u_x <= {b / a:.2f} N)")

    for f_e in [(5.0, 0.0), (80.0, 0.0), (-20.0, 0.0)]:
        f_hat, f_comp, diag = filter_force(cset, state, drift, g, f_e)
        tag = "clipped" if diag.active else "passed through"
        print(f"f_e = {f_e[0]:+6.1f} N -> f_hat = {f_hat[0]:+8.2f} N "
              f"({tag}, compensation {f_comp[0]:+.2f} N)")


if __name__ == "__main__":
    main()
