"""Swap the two generators and watch the curvatures change places.

Swapping (f1, f2) -> (f2, f1) produces a second surface of the same
kind — the dual.  Its support function is the reciprocal of the
original, its principal curvature radii are the negatives of the
original ones in crossed directions, and the radius ratio H/K is shared.
"""

import numpy as np

from ribaucour import (Domain, evaluate_pair, identity_entries, make_dual,
                       make_patch, verify_c2, verify_form_relations,
                       verify_hk_equality)

pair = make_dual(make_patch("z", "exp(z)", Domain(-1.0, 1.0, -1.0, 1.0)))
print(f"pair  {pair.patch.label()}")
print(f"dual  {pair.dual.label()}")

_, _, Z = pair.patch.domain.mesh(41, 41)
fields, dual_fields = evaluate_pair(pair, Z=Z)
ok = fields.valid & dual_fields.valid

print("\nsample values on the shared chart:")
print(f"{'z':>14s} {'rho':>10s} {'rho*':>10s} {'k1':>10s} {'k1*':>10s} "
      f"{'k2':>10s} {'k2*':>10s}")
for i, j in ((8, 8), (20, 20), (32, 12), (12, 32)):
    z = Z[i, j]
    print(f"{z:>14.2f} {fields.rho_val[i, j]:>10.5f} "
          f"{dual_fields.rho_val[i, j]:>10.5f} {fields.k1[i, j]:>10.5f} "
          f"{dual_fields.k1[i, j]:>10.5f} {fields.k2[i, j]:>10.5f} "
          f"{dual_fields.k2[i, j]:>10.5f}")

prod = fields.rho_val[ok] * dual_fields.rho_val[ok]
print(f"\nmax |rho rho* - 1|          = {np.max(np.abs(prod - 1.0)):.2e}")

# each check is a ResidualField: per-sample residuals, a validity mask and
# the name of its report entry; the report's tolerances judge them
checks = (*verify_c2(pair, fields=(fields, dual_fields)),
          *verify_hk_equality(pair, fields=(fields, dual_fields)),
          *verify_form_relations(pair, fields=(fields, dual_fields)))
print("\nthe identities of `ribaucour dual` (curvature switch -1/k* = 1/k, "
      "crossed directions,\nshared H/K, mu* = -mu, form relations):")
entries = identity_entries(checks)
for res, entry in zip(checks, entries):
    print(f"  {res.name:<26s}: max {res.max_abs:.2e} "
          f"(tol {entry['tolerance']:.0e}) over {res.n_valid} samples")
print(f"\nall checks passed: {all(e['pass'] for e in entries)}")
