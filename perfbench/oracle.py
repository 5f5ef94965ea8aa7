"""Output oracle for written OBJ meshes, independent of the jet machinery.

Recomputes a seeded sample of vertices and normals from closed forms in
plain numpy: N is the inverse stereographic image of f1, rho the support
function of the pair, and

    X = e^{-2 tau} (rho_u N_u + rho_v N_v) + rho N,
    e^{2 tau} = 4 |f1'|^2 / (1 + |f1|^2)^2,

with the chart partials from 5-point stencils (as in the repository's
finite-difference test oracles).  Only the pairs listed in
``CLOSED_FORMS`` can be checked.
"""
from __future__ import annotations

import numpy as np

TOLERANCE = 1e-6
N_POINTS = 64
# small enough that the stencils' truncation error (about h^4) sits
# below the 9 significant digits the OBJ writer prints
STEP = 2e-4
W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

# expression text -> (f, f')
CLOSED_FORMS = {
    "exp(z)/(1+z^2)": (lambda z: np.exp(z) / (1 + z**2),
                       lambda z: np.exp(z) * (z - 1)**2 / (1 + z**2)**2),
    "sin(z)*cos(z)/(z+3)": (
        lambda z: np.sin(2 * z) / (2 * (z + 3)),
        lambda z: (np.cos(2 * z) * (z + 3) - np.sin(2 * z) / 2) / (z + 3)**2),
}


def _normal(f1, z):
    f = f1(z)
    s = np.abs(f) ** 2
    return np.stack([2 * f.real, 2 * f.imag, s - 1.0], axis=-1) / (1 + s)[..., None]


def _rho(f1, df1, f2, df2, z):
    return (np.abs(df1(z)) * (1 + np.abs(f2(z)) ** 2)
            / (np.abs(df2(z)) * (1 + np.abs(f1(z)) ** 2)))


def closed_form(params: dict, z: np.ndarray):
    """Position and unit normal of the pair's surface at chart points z."""
    f1, df1 = CLOSED_FORMS[params["f1"]]
    f2, df2 = CLOSED_FORMS[params["f2"]]
    off = STEP * np.arange(-2, 3)
    zu = z[:, None] + off[None, :]
    zv = z[:, None] + 1j * off[None, :]
    rho_u = _rho(f1, df1, f2, df2, zu) @ W1 / STEP
    rho_v = _rho(f1, df1, f2, df2, zv) @ W1 / STEP
    n_u = np.einsum("k,nkc->nc", W1, _normal(f1, zu)) / STEP
    n_v = np.einsum("k,nkc->nc", W1, _normal(f1, zv)) / STEP
    e2tau = 4 * np.abs(df1(z)) ** 2 / (1 + np.abs(f1(z)) ** 2) ** 2
    N = _normal(f1, z)
    X = ((rho_u[:, None] * n_u + rho_v[:, None] * n_v) / e2tau[:, None]
         + _rho(f1, df1, f2, df2, z)[:, None] * N)
    return X, N


def check_obj(path: str, params: dict, seed: int) -> tuple[bool, str]:
    """Compare seeded vertices and normals of an OBJ file with the closed
    form; every grid node must have been written."""
    nu, nv = params["nu"], params["nv"]
    idx = np.random.default_rng(seed).choice(nu * nv, size=N_POINTS,
                                             replace=False)
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        n = int(lines[0].split()[3])
        if n != nu * nv:
            return False, f"{n} vertices written, {nu * nv} grid nodes"
        got_x = np.array([lines[1 + k].split()[1:] for k in idx], dtype=float)
        got_n = np.array([lines[1 + n + k].split()[1:] for k in idx],
                         dtype=float)
    except (OSError, IndexError, ValueError) as exc:
        return False, f"unreadable OBJ: {exc!r}"
    u0, u1, v0, v1 = (float(x) for x in params["domain"].split(":"))
    i, j = np.divmod(idx, nv)
    X, N = closed_form(params, np.linspace(u0, u1, nu)[i]
                       + 1j * np.linspace(v0, v1, nv)[j])
    err = max(float(np.max(np.abs(got_x - X))),
              float(np.max(np.abs(got_n - N))))
    return err <= TOLERANCE, f"max error {err:.2e} at {N_POINTS} vertices"
