"""Build one surface from a holomorphic pair and verify what defines it.

Two holomorphic functions f1, f2 determine a surface whose middle
spheres (centres X + (H/K) N, radii |H/K|) all cut the fixed unit
sphere along great circles.  This script samples one such surface,
prints the identities that certify the construction, and writes the
mesh next to this file.
"""

import os

import numpy as np

from ribaucour import (Domain, check_middle_sphere, evaluate_patch,
                       hopf_residual, immerse, make_patch)
from ribaucour.mesh import export_obj, mesh_from_fields
from ribaucour.ribaucour_core import support_pde_residual

patch = make_patch("z", "exp(z)", Domain(-1.0, 1.0, -1.0, 1.0))
print(f"surface of the pair {patch.label()}")

# a single chart point, fully expanded: the same fields as a grid's,
# with 0-d samples
s = immerse(patch, 0.3 + 0.2j)
print(f"\nat z = 0.3+0.2i:")
print(f"  position X        = {np.round(s.X, 6)}")
print(f"  unit normal N     = {np.round(s.N, 6)}")
print(f"  support <X, N>    = {s.rho_val:.6f}")
print(f"  principal k1, k2  = {s.k1:.6f}, {s.k2:.6f}")
print(f"  radius ratio H/K  = {s.hover_k:.6f}")
c = s.X + s.hover_k * s.N
r = abs(s.hover_k)
print(f"  middle sphere     : centre {np.round(c, 6)}, radius {r:.6f}")
print(f"  |centre|^2 - r^2  = {c @ c - r * r:.6f}  (= -1: the circle "
      "shared with the unit sphere lies in a plane through the origin, "
      "i.e. is a great circle)")

# the same statements over a whole grid
fields = evaluate_patch(patch, 81, 81)
pde = support_pde_residual(fields)
sphere = check_middle_sphere(fields)
hopf = hopf_residual(fields)
print(f"\nover an 81 x 81 grid ({pde.n_valid} valid samples):")
print(f"  support identity rho^2 + rho Lap rho - 1 - |grad rho|^2 : "
      f"max {pde.max_abs:.2e}")
print(f"  middle spheres cut great circles                        : "
      f"max {sphere.max_abs:.2e}")
print(f"  shape coefficient mu = S(f1) - S(f2), holomorphic       : "
      f"max {hopf.max_abs:.2e} (relative)")

out = os.path.join(os.path.dirname(__file__) or ".", "surface.obj")
mesh = mesh_from_fields(fields)
export_obj(mesh, out)
print(f"\nwrote {out} ({mesh.n_vertices} vertices, {2 * mesh.n_quads} faces)")
