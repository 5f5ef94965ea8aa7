"""Independent oracles shared by the test modules.

The finite-difference oracles recompute geometry from sampled values
only (positions, normals, plain field values), never through the jet
machinery under test, so agreement between the two routes is
independent evidence.  The congruence oracle re-derives closed-form
data by exact sympy quadrature, from the printed Gauss map and W text,
beside the printed closed forms and Enneper's published Omega (failing).
The march oracle integrates the congruence system by four RK4 sweeps
with one right-hand side per direction and a tuple of arrays per node.
The support oracle is the quotient of |.|^2 products, built from the
real and imaginary part jets by the product rule (valid away from
poles).  The normal oracles give N's second partials two ways: from jet
products of the stereographic formula, and from the Gauss formula of
the round sphere over a frame's N, N_u, N_v and tau.  The curvature
oracle is the Gauss curvature of a conformal metric from the second
partials of its log factor.  The minimal-patch
oracles take the immersion from a Gauss-Legendre line integral of the
Weierstrass formula, its partials from the formula itself, and the unit
normal and the chart contract from its tangents.  The
line-march oracle is the RK4 march of one lane on Python floats, the
kernel's operations in the package's order.  The OBJ oracle
writes the file record by record, and the holomorphy oracle
differentiates the Hopf coefficient's samples by Cauchy-Riemann
stencils.  The jet oracle differentiates expression trees
symbolically, unsimplified, one rule per node type, where ``eval_jet``
carries Taylor jets through the tree.  ``same_bits`` compares a blocked
result with its whole-grid evaluation bit for bit.  A GridChecks keeps
only a summary of each residual, so ``spy_blocks`` records the blocks
it is given, ``assemble_blocks`` puts them together into whole-grid
records, and ``same_summary`` compares a summary with such a record.
"""

import numpy as np
import sympy as sp

from ribaucour import ResidualField, evaluate_patch
from ribaucour.congruence import _cosh_sinh, _on_samples
from ribaucour.holoexpr import (BinOp, Call, Const, HoloExpr, Neg, Pow,
                                Var, eval_jet, to_text)
from ribaucour.jets import RJet2, im_jet, re_jet
from ribaucour.minimal import _weierstrass
from ribaucour.ribaucour_core import GridChecks
from ribaucour.sphere_geom import _inverted_where_large

# the real chart coordinates of the symbolic oracle
U_SYM, V_SYM = sp.symbols("u v", real=True)

STEP = 1e-3

# fourth-order central weights on a 5-point stencil (offsets -2..2)
W1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def stencil(z0, h=STEP):
    """(n, 5, 5) complex samples around each z0; axis 1 steps the real
    part (u), axis 2 the imaginary part (v)."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    off = np.arange(-2, 3, dtype=float)
    return (z0[:, None, None] + h * off[None, :, None]
            + 1j * h * off[None, None, :])


def fd_du(F, h=STEP):
    """d/du at the stencil centre from (n, 5, 5, ...) samples."""
    return np.einsum("k,nk...->n...", W1, F[:, :, 2]) / h


def fd_dv(F, h=STEP):
    return np.einsum("k,nk...->n...", W1, F[:, 2, :]) / h


def fd_duu(F, h=STEP):
    return np.einsum("k,nk...->n...", W2, F[:, :, 2]) / (h * h)


def fd_dvv(F, h=STEP):
    return np.einsum("k,nk...->n...", W2, F[:, 2, :]) / (h * h)


def fd_duv(F, h=STEP):
    return np.einsum("j,k,njk...->n...", W1, W1, F) / (h * h)


def fd_partials_scalar(value, u0, v0, h=STEP):
    """(du, dv, duu, duv, dvv) of value(u, v) at one point by 5-point
    stencils; ``value`` may return a scalar or a fixed-shape array."""
    us = u0 + h * np.arange(-2, 3)
    vs = v0 + h * np.arange(-2, 3)
    Fu = np.array([value(u, v0) for u in us])
    Fv = np.array([value(u0, v) for v in vs])
    Fuv = np.array([[value(u, v) for v in vs] for u in us])
    du = np.einsum("j,j...->...", W1, Fu) / h
    dv = np.einsum("j,j...->...", W1, Fv) / h
    duu = np.einsum("j,j...->...", W2, Fu) / (h * h)
    dvv = np.einsum("j,j...->...", W2, Fv) / (h * h)
    duv = np.einsum("j,k,jk...->...", W1, W1, Fuv) / (h * h)
    return du, dv, duu, duv, dvv


def fd_principal_curvatures(patch, z0, h=STEP):
    """Principal curvatures at points z0 from finite-differenced
    fundamental forms (I = <dX,dX>, II = -<dX,dN> symmetrised), beside
    the support-route values at the same points.

    Returns (k1_fd, k2_fd, k1_support, k2_support, ok) with ``ok`` the
    samples whose whole stencil is usable.
    """
    Z = stencil(z0, h)
    fields = evaluate_patch(patch, Z=Z)
    X, N = fields.X, fields.N
    Xu, Xv = fd_du(X, h), fd_dv(X, h)
    Nu, Nv = fd_du(N, h), fd_dv(N, h)
    E = np.sum(Xu * Xu, axis=-1)
    F = np.sum(Xu * Xv, axis=-1)
    G = np.sum(Xv * Xv, axis=-1)
    L = -np.sum(Xu * Nu, axis=-1)
    M = -0.5 * (np.sum(Xu * Nv, axis=-1) + np.sum(Xv * Nu, axis=-1))
    P = -np.sum(Xv * Nv, axis=-1)
    with np.errstate(all="ignore"):
        den = E * G - F * F
        K = (L * P - M * M) / den
        H = (E * P + G * L - 2.0 * F * M) / (2.0 * den)
        disc = np.sqrt(np.maximum(H * H - K, 0.0))
        k1_fd = H + disc
        k2_fd = H - disc
    k1_s = fields.k1[:, 2, 2]
    k2_s = fields.k2[:, 2, 2]
    ok = (np.all(fields.valid, axis=(1, 2))
          & np.all(np.isfinite(X.reshape(X.shape[0], -1)), axis=1)
          & np.all(np.isfinite(N.reshape(N.shape[0], -1)), axis=1)
          & np.isfinite(k1_fd) & np.isfinite(k2_fd)
          & np.isfinite(k1_s) & np.isfinite(k2_s) & (den > 0.0))
    return k1_fd, k2_fd, k1_s, k2_s, ok


def enneper_position(U, V):
    """Enneper's surface in its curvature-line chart, shape (..., 3)."""
    return np.stack([U - U**3 / 3 + U * V**2,
                     -(V - V**3 / 3 + V * U**2),
                     U**2 - V**2], axis=-1)


def catenoid_position(U, V):
    """The catenoid around the z-axis with waist radius 1, (..., 3)."""
    return np.stack([np.cosh(V) * np.cos(U), np.cosh(V) * np.sin(U), V],
                    axis=-1)


def rel_gap(a, b):
    """Elementwise |a-b| / max(|a|, |b|), zero when both vanish."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(all="ignore"):
        out = np.abs(a - b) / scale
    return np.where(scale == 0.0, 0.0, out)


def differentiate(e: HoloExpr) -> HoloExpr:
    """Exact derivative tree d/dz, unsimplified."""
    match e:
        case Var():
            return Const(1.0)
        case Const():
            return Const(0.0)
        case BinOp("+", a, b):
            return BinOp("+", differentiate(a), differentiate(b))
        case BinOp("-", a, b):
            return BinOp("-", differentiate(a), differentiate(b))
        case BinOp("*", a, b):
            return BinOp("+", BinOp("*", differentiate(a), b),
                         BinOp("*", a, differentiate(b)))
        case BinOp("/", a, b):
            num = BinOp("-", BinOp("*", differentiate(a), b),
                        BinOp("*", a, differentiate(b)))
            return BinOp("/", num, Pow(b, 2))
        case Pow(b, n):
            if n == 0:
                return Const(0.0)
            return BinOp("*", BinOp("*", Const(complex(n)), Pow(b, n - 1)),
                         differentiate(b))
        case Neg(a):
            return Neg(differentiate(a))
        case Call("exp", a):
            return BinOp("*", Call("exp", a), differentiate(a))
        case Call("log", a):
            return BinOp("/", differentiate(a), a)
        case Call("sin", a):
            return BinOp("*", Call("cos", a), differentiate(a))
        case Call("cos", a):
            return Neg(BinOp("*", Call("sin", a), differentiate(a)))
        case Call("sinh", a):
            return BinOp("*", Call("cosh", a), differentiate(a))
        case Call("cosh", a):
            return BinOp("*", Call("sinh", a), differentiate(a))
    raise TypeError(f"not a HoloExpr node: {e!r}")


def symbolic_k1(patch):
    """k1 = 4 |g'|^2 / (a (1 + |g|^2)^2) of a minimal patch as a sympy
    expression in u, v."""
    u, v = U_SYM, V_SYM
    def abs2(e):
        re, im = sp.sympify(to_text(e), rational=True, locals={
            "z": u + sp.I * v, "i": sp.I}).as_real_imag()
        return re**2 + im**2
    return sp.simplify(4 * abs2(differentiate(patch.g))
                       / (sp.nsimplify(patch.a) * (1 + abs2(patch.g))**2))


def quadrature_omega(patch, w_expr):
    """Recover Omega symbolically from W via Omega_u = W_u/k1,
    Omega_v = W_v/k2, up to an additive constant (exact quadrature;
    raises if not integrable)."""
    u, v = U_SYM, V_SYM
    k1 = symbolic_k1(patch)
    omega_u = sp.simplify(sp.diff(w_expr, u) / k1)
    omega_v = sp.simplify(sp.diff(w_expr, v) / -k1)
    anti = sp.integrate(omega_u, u)
    remainder = sp.simplify(omega_v - sp.diff(anti, v))
    if remainder.has(u):
        raise RuntimeError(
            f"congruence data over {patch.name!r} is not integrable: "
            f"v-derivative mismatch {remainder} depends on u")
    return sp.simplify(anti + sp.integrate(remainder, v))


# the shipped W and Omega printed, and Enneper's published Omega
CLOSED_FORM_TEXTS = {
    "catenoid-w": "(1 + u**2 + v**2) / (2*cosh(v))",
    "catenoid-omega": "-2*v*sinh(v) + (u**2 + v**2)*cosh(v)/2 + 5*cosh(v)/2",
    "enneper-w": "2*cosh(u) / (1 + u**2 + v**2)",
    "enneper-omega": "(5 + u**2 + v**2)*cosh(u) + 4*u*sinh(u) + 5*cosh(u)",
    "enneper-corrected-omega":
        "u**2*cosh(u) - 4*u*sinh(u) + v**2*cosh(u) + 5*cosh(u)",
}


@_on_samples
def enneper_omega_published(u, v):
    ch, sh = _cosh_sinh(u)
    return (5.0 + u * u + v * v) * ch + 4.0 * u * sh + 5.0 * ch


def abs2_by_parts(j):
    """RJet2 of |f|^2 as (Re f)^2 + (Im f)^2 by the jet product rule."""
    p, q = re_jet(j), im_jet(j)
    return p * p + q * q


def support_quotient(j1, j2):
    """Support jet |f1'| (1 + |f2|^2) / (|f2'| (1 + |f1|^2)) from order-3
    complex jets, as the square root of a quotient of |.|^2 products.
    These products grow like |f|^4 and cancel near a pole, so use this
    only on samples away from the poles of f1 and f2."""
    with np.errstate(all="ignore"):
        num = abs2_by_parts(j1.derivative()) * ((abs2_by_parts(j2) + 1.0) ** 2)
        den = abs2_by_parts(j2.derivative()) * ((abs2_by_parts(j1) + 1.0) ** 2)
        return (num / den).sqrt()


def normal_second_partials(j):
    """(N_uu, N_uv, N_vv), each of shape (..., 3), of f's sphere frame
    from an order-3 complex jet of f, by jet products of
    N = (2 Re h, 2 Im h, |h|^2 - 1) / (1 + |h|^2) with h = 1/f wherever
    |f| > 1, where N's second and third components change sign, as the
    frame is built."""
    h, flip = _inverted_where_large(j)
    sign = 1.0 if flip is None else np.where(flip, -1.0, 1.0)
    with np.errstate(all="ignore"):
        w = 2.0 / (abs2_by_parts(h) + 1.0)
        n = (re_jet(h) * w, im_jet(h) * (sign * w), sign - sign * w)
    return tuple(np.stack([np.asarray(getattr(c, part), dtype=float)
                           * np.ones(np.shape(j.z)) for c in n], axis=-1)
                 for part in ("duu", "duv", "dvv"))


def gauss_second_partials(frame):
    """(N_uu, N_uv, N_vv), each of shape (..., 3), of a sphere frame by
    the Gauss formula of the round sphere over its N, N_u, N_v and tau:

        N_uu = -e^{2 tau} N + tau_u N_u - tau_v N_v,
        N_uv = tau_v N_u + tau_u N_v,
        N_vv = -e^{2 tau} N - tau_u N_u + tau_v N_v."""
    tu = np.asarray(frame.tau.du, dtype=float)[..., None]
    tv = np.asarray(frame.tau.dv, dtype=float)[..., None]
    e2t = np.asarray(frame.e2tau)[..., None]
    n, n_u, n_v = frame.normal, frame.normal_du, frame.normal_dv
    with np.errstate(all="ignore"):
        return (-e2t * n + tu * n_u - tv * n_v, tv * n_u + tu * n_v,
                -e2t * n - tu * n_u + tv * n_v)


def conformal_curvature(logfac: RJet2):
    """Gauss curvature of the metric e^{2 logfac}(du^2 + dv^2):
    -e^{-2 logfac} (logfac_uu + logfac_vv)."""
    with np.errstate(all="ignore"):
        return -np.exp(-2.0 * np.asarray(logfac.val, dtype=float)) * (
            np.asarray(logfac.duu, dtype=float)
            + np.asarray(logfac.dvv, dtype=float))


# 24-node Gauss-Legendre rule on [0, 1] for the position integral
_GL_T, _GL_W = np.polynomial.legendre.leggauss(24)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W


def patch_position(patch, U, V) -> np.ndarray:
    """X = origin + Re(z int_0^1 (X_u - i X_v)(t z) dt) of a minimal
    patch, shape (..., 3), the integral by the 24-node Gauss-Legendre
    rule."""
    z = np.asarray(U) + 1j * np.asarray(V)
    acc = 0.0
    with np.errstate(all="ignore"):
        for t, w in zip(_GL_T, _GL_W):
            g, g1 = eval_jet(patch.g, t * z, 1).values
            acc = acc + w * _weierstrass(0.5 * patch.a / g1, g)
    return np.asarray(patch.origin) + (z[..., None] * acc).real


def position_derivatives(patch, U, V) -> dict:
    """First and second partials of a minimal patch's X, each of shape
    (..., 3), read off X_u - i X_v = F (1 - g^2, i (1 + g^2), 2 g) and
    its z-derivative (X is harmonic: X_vv = -X_uu)."""
    g, g1, g2 = eval_jet(patch.g, np.asarray(U) + 1j * np.asarray(V),
                         2).values
    with np.errstate(all="ignore"):
        F = 0.5 * patch.a / g1
        w = _weierstrass(F, g)
        # d/dz of F (1 - g^2, ...) with F' = -F g''/g' and 2 F g' = a
        dw = (_weierstrass(-F * g2 / g1, g)
              + patch.a * np.stack([-g, 1j * g, np.ones_like(g)], axis=-1))
    return {"Xu": w.real, "Xv": -w.imag,
            "Xuu": dw.real, "Xuv": -dw.imag, "Xvv": -dw.real}


def patch_normal(patch, U, V):
    """Unit normal X_v x X_u / |X_v x X_u| of a minimal patch from its
    tangents: the orientation N = -stereo(g) of its frame."""
    d = position_derivatives(patch, U, V)
    n = np.cross(d["Xv"], d["Xu"])
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def conformality_residual(patch, U, V) -> dict:
    """Max deviations of a minimal patch from the chart contract on the
    samples: inner product <X_u,X_v>, length gap ||X_u|-|X_v|| and
    off-diagonal second-form coefficient."""
    d = position_derivatives(patch, U, V)
    Xu, Xv = d["Xu"], d["Xv"]
    return {
        "inner": float(np.max(np.abs(np.sum(Xu * Xv, axis=-1)))),
        "length": float(np.max(np.abs(np.linalg.norm(Xu, axis=-1)
                                      - np.linalg.norm(Xv, axis=-1)))),
        "second_uv": float(np.max(np.abs(
            np.sum(d["Xuv"] * patch_normal(patch, U, V), axis=-1)))),
    }


def _d1(F, h, axis):
    """Fourth-order centred first derivative along an axis; output loses
    two samples at each end of that axis."""
    F = np.moveaxis(F, axis, 0)
    out = (F[:-4] - 8.0 * F[1:-3] + 8.0 * F[3:-1] - F[4:]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def hopf_stencil_residual(patch, nu=161, nv=161):
    """Discrete Cauchy-Riemann residual |a_u - b_v| + |a_v + b_u| of the
    Hopf coefficient mu = a + ib, by fourth-order stencils on an nu x nv
    grid of its own, on interior samples whose full 5x5 neighbourhood is
    valid.  It uses mu's values only, not the Schwarzians.

    For a holomorphic field sampled with equal steps the h^4 error terms
    of the u- and v-stencils coincide and cancel, so the residual decays
    like h^6 (about 0.13, 4.4e-3, 1.0e-4 and 2.0e-6 at 81^2, 161^2, 321^2
    and 641^2 on the pair exp(z)/(1+z^2), sin(z)cos(z)/(z+3) over
    [0.1, 0.9]^2): an absolute bound needs a fine grid."""
    fields = evaluate_patch(patch, nu, nv)
    hu, hv = patch.domain.spacing(nu, nv)
    a, b = np.real(fields.mu), np.imag(fields.mu)
    au = _d1(a, hu, 0)[:, 2:-2]
    av = _d1(a, hv, 1)[2:-2, :]
    bu = _d1(b, hu, 0)[:, 2:-2]
    bv = _d1(b, hv, 1)[2:-2, :]
    r = np.abs(au - bv) + np.abs(av + bu)
    ok = np.ones((nu - 4, nv - 4), dtype=bool)
    for di in range(5):
        for dj in range(5):
            ok &= fields.valid[di:nu - 4 + di, dj:nv - 4 + dj]
    ok &= np.isfinite(r)
    return ResidualField(r, ok, "hopf_holomorphy")


def _fmt(x):
    return "%.9g" % (x + 0.0)


def obj_reference_text(mesh):
    """The OBJ text of a mesh, formatted one number and one line at a
    time: a header, ``v``/``vn`` records with nine significant digits
    (-0 printed as 0) and two ``f`` triangles per quad."""
    lines = ["# surface mesh: %d vertices, %d faces"
             % (mesh.n_vertices, 2 * mesh.n_quads)]
    for p in mesh.vertices:
        lines.append("v %s %s %s" % (_fmt(p[0]), _fmt(p[1]), _fmt(p[2])))
    for n in mesh.normals:
        lines.append("vn %s %s %s" % (_fmt(n[0]), _fmt(n[1]), _fmt(n[2])))
    for a, b, c, d in mesh.quads + 1:
        lines.append("f %d %d %d" % (a, b, c))
        lines.append("f %d %d %d" % (a, c, d))
    return "\n".join(lines) + "\n"


def _rhs_u(consts, coef, y):
    om, o1, o2, w = y
    phi, pv, k1 = coef
    a = consts.c * w - 0.5 * consts.c3
    b = consts.c * om - w - 0.5 * consts.c2
    return (phi * o1,
            -(pv / phi) * o2 + phi * a + phi * k1 * b,
            (pv / phi) * o1,
            o1 * k1 * phi)


def _rhs_v(consts, coef, y):
    om, o1, o2, w = y
    phi, pu, k2 = coef
    a = consts.c * w - 0.5 * consts.c3
    b = consts.c * om - w - 0.5 * consts.c2
    return (phi * o2,
            (pu / phi) * o2,
            -(pu / phi) * o1 + phi * a + phi * k2 * b,
            o2 * k2 * phi)


def _rk4_march(f, coef, t, i0, y0):
    """RK4 along uniform nodes t outward from index i0; ``coef[k]`` holds
    the chart coefficients at node k/2.  Returns one tuple per node."""
    ys = [None] * len(t)
    ys[i0] = y0
    def step(i, d):
        h, y = t[i + d] - t[i], ys[i]
        c0, c1, c2 = coef[2 * i], coef[2 * i + d], coef[2 * i + 2 * d]
        s1 = f(c0, y)
        s2 = f(c1, tuple(a + 0.5 * h * b for a, b in zip(y, s1)))
        s3 = f(c1, tuple(a + 0.5 * h * b for a, b in zip(y, s2)))
        s4 = f(c2, tuple(a + h * b for a, b in zip(y, s3)))
        ys[i + d] = tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                          for a, b1, b2, b3, b4 in zip(y, s1, s2, s3, s4))
    for i in range(i0, len(t) - 1):
        step(i, 1)
    for i in range(i0, 0, -1):
        step(i, -1)
    return ys


def slope_line(k, y):
    """``congruence._slope`` of one lane on Python floats, its operations
    in its order: rows k and state y are sequences of 7 and 4 floats."""
    return (k[0] * y[3], k[1] * y[3], k[2] * y[3],
            k[3] * y[0] + k[4] * y[1] + k[5] * y[2] + k[6])


def march_line(fill, t, i0, y0) -> np.ndarray:
    """``congruence._march`` of one lane, on Python floats: the states,
    shape (len(t), 4), from the 4 floats y0 at node i0, forward to the
    last node, then backward to the first.  One ``fill`` (of
    ``congruence._kernel_rows``) writes the kernel rows of every
    abscissa."""
    n = len(t)
    K = np.empty((2 * n - 1, 7, 1))
    fill(K, 0, 1)
    rows, t = K[:, :, 0].tolist(), t.tolist()
    ys = [None] * n
    ys[i0] = tuple(y0)
    for d, last in ((1, n - 1), (-1, 0)):
        for i in range(i0, last, d):
            h, y = t[i + d] - t[i], ys[i]
            at_mid = rows[2 * i + d]
            s1 = slope_line(rows[2 * i], y)
            s2 = slope_line(at_mid, [a * (0.5 * h) + b
                                     for a, b in zip(s1, y)])
            s3 = slope_line(at_mid, [a * (0.5 * h) + b
                                     for a, b in zip(s2, y)])
            s4 = slope_line(rows[2 * i + 2 * d],
                            [a * h + b for a, b in zip(s3, y)])
            # as in _march: ((2 s2 + s1 + 2 s3 + s4) (h/6)) + y
            ys[i + d] = tuple(b + (b2 * 2.0 + b1 + b3 * 2.0 + b4) * (h / 6.0)
                              for b, b1, b2, b3, b4 in zip(y, s1, s2, s3, s4))
    return np.array(ys)


def march_congruence(patch, init, consts, u, v, iu0, iv0):
    """The congruence system integrated over the grid u x v from the
    state ``init`` at node (iu0, iv0) by four sweeps: the initial row,
    then every column; the initial column, then every row.

    Returns ((Omega, Omega1, Omega2), W's RJet2, path_gap) of the
    row-first fill; path_gap is its max field gap to the column-first
    fill.  W's partials come from the system at the nodes."""
    y0 = tuple(np.array([float(x)]) for x in init.as_tuple())

    def sweep(along_u, fixed, y_start):
        t, i0 = (u, iu0) if along_u else (v, iv0)
        s = np.linspace(t[0], t[-1], 2 * len(t) - 1)[:, None]
        phi, pu, pv, k1 = (patch.chart(s, fixed[None, :]) if along_u
                           else patch.chart(fixed[None, :], s)).scalars
        if along_u:
            f, coef = (lambda c, y: _rhs_u(consts, c, y)), list(zip(phi, pv, k1))
        else:
            f, coef = (lambda c, y: _rhs_v(consts, c, y)), list(zip(phi, pu, -k1))
        ys = _rk4_march(f, coef, t, i0, y_start)
        fields = [np.stack(c, axis=0 if along_u else 1) for c in zip(*ys)]
        return fields, (phi, pu, pv, k1)

    row, _ = sweep(True, v[iv0:iv0 + 1], y0)
    y, scalars = sweep(False, u, tuple(a.ravel() for a in row))
    col, _ = sweep(False, u[iu0:iu0 + 1], y0)
    alt, _ = sweep(True, v, tuple(a.ravel() for a in col))
    path_gap = max(float(np.max(np.abs(a - b))) for a, b in zip(y, alt))
    om, o1, o2, w = y
    phi, pu, pv, k1 = (c[::2].T for c in scalars)
    du = _rhs_u(consts, (phi, pv, k1), y)
    dv = _rhs_v(consts, (phi, pu, -k1), y)
    k1phi = k1 * phi
    w_jet = RJet2(w, du[3], dv[3], du[1] * k1phi - o1 * k1 * pu,
                  dv[1] * k1phi - o1 * k1 * pv,
                  -(dv[2] * k1phi - o2 * k1 * pv))
    return (om, o1, o2), w_jet, path_gap


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bits (so -0.0 != 0.0 and NaN == NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == bool:
        return bool(np.array_equal(a, b))
    return bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def spy_blocks(monkeypatch) -> dict:
    """Spy on ``GridChecks.put``.  The dict returned maps each GridChecks
    filled while the spy is on to the (rows, residual records) of every
    block it was given, in order."""
    seen, put = {}, GridChecks.put

    def spying(self, rows, residuals=(), *args, **kwargs):
        residuals = tuple(residuals)
        seen.setdefault(self, []).append((rows, residuals))
        return put(self, rows, residuals, *args, **kwargs)

    monkeypatch.setattr(GridChecks, "put", spying)
    return seen


def assemble_blocks(blocks, shape) -> dict:
    """The whole-grid ResidualField of each entry, put together from the
    (rows, records) of ``blocks``; every row must come from exactly one
    block."""
    whole, count = {}, {}
    for rows, records in blocks:
        for res in records:
            if res.name not in whole:
                values = np.empty(shape, np.asarray(res.values).dtype)
                whole[res.name] = ResidualField(values,
                                                np.empty(shape, bool),
                                                res.name)
                count[res.name] = np.zeros(shape[0], int)
            out = whole[res.name]
            out.values[rows], out.valid[rows] = res.values, res.valid
            count[res.name][rows] += 1
    assert all(np.all(n == 1) for n in count.values()), count
    return whole


def same_summary(summary, ref: ResidualField) -> bool:
    """A CheckSummary holds the whole-grid record's name, counts and
    ``max_abs`` (same bits)."""
    return (summary.name == ref.name and same_bits(summary.max_abs,
                                                   ref.max_abs)
            and (summary.n_valid, summary.n_excluded)
            == (ref.n_valid, ref.n_excluded))
