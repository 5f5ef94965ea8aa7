"""Generate one of these surfaces from a minimal-surface sphere congruence.

A minimal surface carries a two-parameter family of spheres (radius
field W along its normals); when the companion field Omega solves a
first-order system coupled through a constant c, the envelope of those
spheres is exactly a surface whose middle spheres cut the unit sphere
along great circles.  The conserved first integral of the system is,
pointwise, that great-circle property of the envelope.  The checks take
W and Omega as jets on grid lines; the verdict, as `ribaucour congruence`
reaches it, folds every check of the envelope into one record, block of
grid rows by block.  Enneper's Omega is the exact quadrature of Omega
from W: the published Omega fails the system (see the README).
"""

import numpy as np

from ribaucour import (CongruenceState, analytic_example, check_middle_sphere,
                       envelope, first_integral, identity_entry,
                       integrate_system)
from ribaucour.cli import TOL_CONGRUENCE
from ribaucour.congruence import envelope_checks
from ribaucour.grids import Domain

u = v = np.linspace(-1, 1, 41)
U, V = np.meshgrid(u, v, indexing="ij")

for name in ("catenoid", "enneper"):
    ac = analytic_example(name)
    print(f"\n=== {name} ===")
    print(f"closed-form radius field W over the {name}; "
          f"coupling constant c = {ac.constants.c}")
    # every check of the closed forms as `ribaucour congruence` runs it:
    # the envelope block by block, W and Omega on each block's grid
    # lines, one record per report entry
    checks = envelope_checks(ac.patch,
                             lambda b, _: ac.w_jet(u[b, None], v[None, :]),
                             U, V, ac.envelope_records(u, v))
    worst = {r.name: r.max_abs for r in checks.residuals.values()}
    print(f"  first-order system residuals : max "
          f"{worst['congruence_system']:.2e}")
    print(f"  first-integral drift         : "
          f"{worst['first_integral_drift']:.2e}")

    # march the same fields out of their value at the chart origin by
    # Runge-Kutta; the envelope of the integrated W is checked block by
    # block, and its pass compares the fields with the closed forms too
    st0 = ac.state(0.0, 0.0)
    init = CongruenceState(*(float(np.asarray(x)) for x in st0.as_tuple()))
    integ = integrate_system(ac.patch, init, ac.constants,
                             domain=Domain(-1, 1, -1, 1), step=0.01)
    integrated = envelope_checks(
        ac.patch, integ.w_rows, integ.U, integ.V,
        lambda b, env, chart: (ac.agreement(integ, b, chart.scalars[0]),
                               *integ.envelope_records(b, env)))
    agree = integrated.residuals["analytic_agreement"].max_abs
    print(f"  integration vs closed form   : max {agree:.2e} "
          f"(step 0.01, path gap {integ.path_gap:.2e})")

    # the envelope of the sphere family on the whole grid, for the one
    # per-sample statement: the middle-sphere residual, relative to the
    # size of its terms |X|^2 + 2 |(H/K) <X,N>| + 1, is the first integral
    env = envelope(ac.patch, ac.w_jet(U, V), U, V)
    ms = check_middle_sphere(env)
    F = first_integral(ac.state(U, V), ac.constants)
    xn = np.sum(env.X * env.N, axis=-1)
    terms = (np.sum(env.X * env.X, axis=-1)
             + np.abs(2.0 * env.hover_k * xn) + 1.0)
    print(f"  envelope middle spheres      : max rel "
          f"{worst['envelope_middle_sphere']:.2e}")
    print(f"  pointwise = first integral   : max "
          f"{np.max(np.abs(ms.values - F / terms)[ms.valid]):.2e}")
    print(f"  H/K of envelope = -c Omega   : max rel "
          f"{worst['envelope_hover_ratio']:.2e}")
    print(f"  second-order identities      : Omega "
          f"{worst['hessian_identity_omega']:.2e}, W "
          f"{worst['hessian_identity_w']:.2e}, gradient link "
          f"{worst['gradient_link']:.2e}")
    print(f"  generated fundamental forms  : max rel "
          f"{worst['generated_forms']:.2e}")

    # the verdict of `ribaucour congruence` in both modes: its records of
    # the checks, its tolerances, its judge
    records = [*checks.residuals.values(), *integ.checks.residuals.values(),
               *integrated.residuals.values()]
    entries = [identity_entry(r.name, r.max_abs, TOL_CONGRUENCE[r.name],
                              r.n_valid, r.n_excluded) for r in records]
    print(f"  all checks passed: {all(e['pass'] for e in entries)}")
