"""Command-line tools: build and verify surfaces, duals, and congruences.

Subcommands
-----------
``build``       sample the surface of a holomorphic pair (f1, f2), verify
                its defining identities, optionally write OBJ + JSON.
``dual``        build the pair and its dual, verify curvature switching,
                mean-to-Gauss equality and the fundamental-form relations.
``congruence``  run a built-in minimal-surface congruence (closed form or
                grid-integrated), verify the system and its envelope.
``export``      sample and write the OBJ mesh without running checks.

Exit codes: 0 all checks pass, 1 a residual check failed, 2 bad input
(unparsable expression or domain, a numeric literal too large for a
float, non-finite domain bounds, a grid size below 2, a ``--tol-*``
value that is not finite and positive, an integration step that is not
finite and positive or misses the chart origin, a grid too large for
the available memory), 3 nothing to check
(all samples degenerate, or the patch coincides with the fixed unit
sphere), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .congruence import (CongruenceState, analytic_example,
                         check_hessian_identities, envelope, envelope_checks,
                         first_integral, generated_forms_check,
                         hover_ratio_residual, integrate_system,
                         system_residuals)
from .duality import (evaluate_pair, make_dual, verify_c2,
                      verify_form_relations, verify_hk_equality)
from .grids import Domain
from .holoexpr import ParseError
from .mesh import export_obj, mesh_from_fields
from .report import (identity_entry, make_report, report_exit_code,
                     write_report)
from .ribaucour_core import (check_middle_sphere, evaluate_patch,
                             hopf_residual, make_patch, support_pde_residual,
                             unit_sphere_gap)

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

UNIT_SPHERE_TOL = 1e-8
TOL_PDE = 1e-8           # support and middle-sphere identities (--tol-pde)
TOL_HOPF = 1e-10         # mu = S(f1) - S(f2), relative to its terms
TOL_FI = 1e-6            # congruence system and first integral (--tol-fi)
TOL_PROP = 1e-5          # second-order congruence identities
TOL_ENVELOPE = 1e-6      # envelope residuals; W is a jet in both modes
# the dual checks by entry name; --tol-c2 replaces the two 1e-8 values
TOL_DUAL = {
    "curvature_switch": 1e-8,
    "direction_switch": 1e-6,            # radians
    "hover_k_equality": 1e-8,
    "hopf_antisymmetry": 1e-6,
    "first_form_relation": 1e-7,
    "second_form_relation": 1e-7,
    "third_form_relation": 1e-8,
    "support_reciprocal_metric": 1e-10,
}

__all__ = ["main"]


def _print_entries(entries):
    for e in entries:
        if e["vacuous"]:
            print("  %-28s vacuous (%s) -> pass"
                  % (e["name"], e.get("note", "nothing to compare")))
        else:
            mr = e["max_residual"]
            shown = "none" if mr is None else "%.3e" % mr
            print("  %-28s max=%s tol=%.1e samples=%d -> %s"
                  % (e["name"], shown, e["tolerance"], e["samples"],
                     "pass" if e["pass"] else "FAIL"))


def _finish(args, command, inputs, entries, meshes, *,
            all_degenerate=False, unit_sphere=False, notes=(), extra=None):
    report = make_report(command, inputs, entries,
                         all_degenerate=all_degenerate,
                         unit_sphere=unit_sphere, extra=extra, notes=notes)
    code = report_exit_code(report)
    try:
        for mesh, path in meshes:
            export_obj(mesh, path)
        if getattr(args, "report", None):
            write_report(report, args.report)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    _print_entries(entries)
    for note in notes:
        print(f"  note: {note}")
    status = {EXIT_PASS: "PASS", EXIT_RESIDUAL: "FAIL",
              EXIT_DEGENERATE: "DEGENERATE"}[code]
    print(f"{command}: {status} (exit {code})")
    return code


def _residual_entry(res, tolerance, name=None, **kwargs):
    return identity_entry(name or res.name, res.max_abs, tolerance,
                          res.n_valid, res.n_excluded, **kwargs)


def _parse_inputs(args) -> Domain:
    """The --domain rectangle, once the grid sizes, the step and the
    tolerances are checked; raises ValueError for input the command
    cannot run on."""
    if min(args.nu, args.nv) < 2:
        raise ValueError(f"--nu and --nv must be at least 2, "
                         f"got {args.nu} and {args.nv}")
    for flag in ("step", "tol_pde", "tol_c2", "tol_fi"):
        value = getattr(args, flag, 1.0)
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite "
                             f"and positive, got {value}")
    return Domain.parse(args.domain)


def _pair_inputs(args, domain, tolerances):
    return {
        "f1": args.f1,
        "f2": args.f2,
        "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
        "grid": [args.nu, args.nv],
        "tolerances": tolerances,
    }


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    try:
        domain = _parse_inputs(args)
        patch = make_patch(args.f1, args.f2, domain)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    fields = evaluate_patch(patch, args.nu, args.nv)
    inputs = _pair_inputs(args, domain, {"pde": args.tol_pde,
                                         "hopf_holomorphy": TOL_HOPF})
    meshes = [(mesh_from_fields(fields), args.out)] if args.out else []
    if not np.any(fields.valid):
        return _finish(args, "build", inputs, [], meshes, all_degenerate=True,
                       notes=("every sample is degenerate "
                              "(branch point or singular shape operator)",))
    entries = [_residual_entry(support_pde_residual(fields), args.tol_pde),
               _residual_entry(check_middle_sphere(fields), args.tol_pde),
               _residual_entry(hopf_residual(fields), TOL_HOPF)]
    gap = unit_sphere_gap(fields)
    sphere = gap <= UNIT_SPHERE_TOL
    notes = ()
    if sphere:
        notes = ("patch coincides with the fixed unit sphere "
                 "(rho = 1, X = N): nothing nontrivial to build",)
    return _finish(args, "build", inputs, entries, meshes,
                   unit_sphere=sphere, notes=notes,
                   extra={"unit_sphere_gap": gap})


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    try:
        domain = _parse_inputs(args)
        patch = make_patch(args.f1, args.f2, domain)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    pair = make_dual(patch)
    fa, fb = evaluate_pair(pair, args.nu, args.nv)
    inputs = _pair_inputs(args, domain, {
        "curvature": args.tol_c2,
        "direction_rad": TOL_DUAL["direction_switch"],
        "hopf_sum": TOL_DUAL["hopf_antisymmetry"],
    })
    meshes = []
    if args.out:
        meshes.append((mesh_from_fields(fa), args.out))
        dual_out = args.out_dual
        if dual_out is None:
            from pathlib import Path
            p = Path(args.out)
            dual_out = str(p.with_name(p.stem + "_dual" + p.suffix))
        meshes.append((mesh_from_fields(fb), dual_out))
    if not np.any(fa.valid & fb.valid):
        return _finish(args, "dual", inputs, [], meshes, all_degenerate=True,
                       notes=("no sample is usable on both the patch "
                              "and its dual",))
    gap = unit_sphere_gap(fa)
    if gap <= UNIT_SPHERE_TOL:
        return _finish(args, "dual", inputs, [], meshes, unit_sphere=True,
                       notes=("patch coincides with the fixed unit sphere; "
                              "the dual is the same sphere",),
                       extra={"unit_sphere_gap": gap})
    switch = verify_c2(pair, fields=(fa, fb))
    checks = (*switch, *verify_hk_equality(pair, fields=(fa, fb)),
              *verify_form_relations(pair, fields=(fa, fb)))
    tols = {**TOL_DUAL, "curvature_switch": args.tol_c2,
            "hover_k_equality": args.tol_c2}
    # some sample is usable (guard above): none left to switch means
    # every usable sample is umbilic
    vac_note = "totally umbilic patch: no principal data to switch"
    vac = switch[0].n_valid == 0
    entries = []
    for res in checks:
        vacuous = vac and res.name in ("curvature_switch", "direction_switch")
        entries.append(_residual_entry(res, tols[res.name], vacuous=vacuous,
                                       note=vac_note if vacuous else ""))
    return _finish(args, "dual", inputs, entries, meshes,
                   notes=(vac_note,) if vac else (),
                   extra={"unit_sphere_gap": gap})


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def cmd_congruence(args) -> int:
    try:
        domain = _parse_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    ac = analytic_example(args.minimal)
    consts = ac.constants
    inputs = {
        "minimal": args.minimal, "mode": args.mode,
        "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
        "grid": [args.nu, args.nv], "step": args.step,
        "tolerances": {"first_integral": args.tol_fi,
                       "second_order": TOL_PROP},
    }
    details = {
        "constants": {"c": consts.c, "c1": consts.c1,
                      "c2": consts.c2, "c3": consts.c3},
        "omega_source": "quadrature" if ac.used_fallback else "literal",
        "omega": ac.omega_text,
        "literal_system_residual": max(ac.literal_residuals.values()),
        "literal_first_integral_drift": ac.literal_drift,
    }
    notes = ("closed-form data re-derived by quadrature: the published "
             "candidate fails the first-order system (see report details)",
             ) if ac.used_fallback else ()

    if args.mode == "analytic":
        U, V, _ = domain.mesh(args.nu, args.nv)
        wj, oj = ac.w_jet(U, V), ac.omega_jet(U, V)
        # one chart record for every check: phi's jet, the chart scalars
        # and the envelope's frame, each evaluated once on the grid
        phi, _, _, k1 = ac.patch.chart_scalars(U, V)
        chart = {"phi_jet": ac.patch.phi_jet(U, V), "k1": k1}
        sysres = system_residuals(ac.patch, wj, oj, U, V, **chart)
        drift = float(np.max(np.abs(first_integral(
            ac.state(U, V, phi, jets=(wj, oj)), consts))))
        env = envelope(ac.patch, wj, U, V)
        ms = check_middle_sphere(env)
        hid = check_hessian_identities(ac.patch, wj, oj, consts, U, V,
                                       frame=env.frame, **chart)
        gf = generated_forms_check(ac.patch, wj, oj, consts, U, V, env=env,
                                   **chart)
        n = int(np.asarray(U).size)
        entries = [
            identity_entry("congruence_system", max(sysres.values()),
                           args.tol_fi, n, 0),
            identity_entry("first_integral_drift", drift, args.tol_fi, n, 0),
            _residual_entry(ms, TOL_ENVELOPE, "envelope_middle_sphere"),
            identity_entry("hessian_identity_omega", hid.max_hessian_omega,
                           TOL_PROP, hid.n_compared, hid.n_excluded),
            identity_entry("hessian_identity_w", hid.max_hessian_w, TOL_PROP,
                           hid.n_compared, hid.n_excluded),
            identity_entry("gradient_link", hid.max_gradient_link, TOL_PROP,
                           hid.n_compared, hid.n_excluded),
            identity_entry("generated_forms",
                           max(gf.max_rel_first, gf.max_rel_second,
                               gf.max_rel_third),
                           TOL_PROP, gf.n_compared, gf.n_excluded),
            _residual_entry(hover_ratio_residual(env, oj.val, consts),
                            TOL_ENVELOPE),
        ]
    else:
        st0 = ac.state(0.0, 0.0)
        init = CongruenceState(*(float(np.asarray(x))
                                 for x in st0.as_tuple()))
        try:
            integ = integrate_system(ac.patch, init, consts, domain=domain,
                                     step=args.step)
        except ValueError as exc:  # step too wide, or nodes miss the origin
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        U, V = integ.U, integ.V
        # the reference state is dropped before the envelope, which needs
        # the memory
        agree = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                    for a, b in zip(integ.state().as_tuple(),
                                    ac.state(U, V, integ.phi).as_tuple()))
        # the envelope block by block: X, N and the mask only for a mesh
        env = envelope_checks(ac.patch, integ.w, integ.omega, consts, U, V,
                              surface=bool(args.out))
        n = int(np.asarray(U).size)
        entries = [
            identity_entry("path_independence", integ.path_gap, args.tol_fi,
                           n, 0),
            identity_entry("first_integral_drift", integ.drift, args.tol_fi,
                           n, 0),
            identity_entry("analytic_agreement", agree, args.tol_fi, n, 0),
            _residual_entry(env.middle_sphere, TOL_ENVELOPE,
                            "envelope_middle_sphere"),
            _residual_entry(env.hover_ratio, TOL_ENVELOPE),
        ]
        details["integration"] = {"grid": list(np.asarray(U).shape),
                                  "init_node": list(integ.init_node)}
    meshes = [(mesh_from_fields(env), args.out)] if args.out else []
    return _finish(args, "congruence", inputs, entries, meshes,
                   notes=notes, extra=details)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args) -> int:
    try:
        domain = _parse_inputs(args)
        patch = make_patch(args.f1, args.f2, domain)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    fields = evaluate_patch(patch, args.nu, args.nv)
    mesh = mesh_from_fields(fields)
    try:
        export_obj(mesh, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print("export: wrote %s (%d vertices, %d faces)"
          % (args.out, mesh.n_vertices, 2 * mesh.n_quads))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_pair_arguments(sp, out_help, out_required=False):
    sp.add_argument("--f1", required=True,
                    help="holomorphic expression in z for the Gauss map")
    sp.add_argument("--f2", required=True,
                    help="holomorphic expression in z for the companion map")
    sp.add_argument("--domain", default="-1:1:-1:1",
                    help="chart rectangle u0:u1:v0:v1 (default %(default)s)")
    sp.add_argument("--nu", type=int, default=81,
                    help="grid samples along u (default %(default)s)")
    sp.add_argument("--nv", type=int, default=81,
                    help="grid samples along v (default %(default)s)")
    sp.add_argument("--out", required=out_required, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ribaucour",
        description="Surfaces whose middle spheres cut the unit sphere "
                    "along great circles: build, dualise, and generate "
                    "them from minimal-surface sphere congruences.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="sample a surface from a holomorphic "
                                     "pair and verify its identities")
    _add_pair_arguments(b, "write the sampled mesh to this OBJ path")
    b.add_argument("--report", help="write the JSON verification report here")
    b.add_argument("--tol-pde", type=float, default=TOL_PDE,
                   help="tolerance for the support and middle-sphere "
                        "identities (default %(default)s)")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("dual", help="build a pair and its dual and verify "
                                    "the curvature-switching laws")
    _add_pair_arguments(d, "write the primary mesh to this OBJ path "
                           "(dual goes to *_dual.obj)")
    d.add_argument("--out-dual", help="explicit path for the dual mesh")
    d.add_argument("--report", help="write the JSON verification report here")
    d.add_argument("--tol-c2", type=float,
                   default=TOL_DUAL["curvature_switch"],
                   help="tolerance for curvature switching and mean-to-Gauss "
                        "equality (default %(default)s)")
    d.set_defaults(func=cmd_dual)

    c = sub.add_parser("congruence",
                       help="run a built-in minimal-surface congruence and "
                            "verify its envelope")
    c.add_argument("--minimal", choices=("enneper", "catenoid"),
                   required=True, help="which built-in minimal patch")
    c.add_argument("--mode", choices=("analytic", "integrate"),
                   default="analytic",
                   help="closed-form fields or grid integration "
                        "(default %(default)s)")
    c.add_argument("--step", type=float, default=0.01,
                   help="integration step (default %(default)s)")
    c.add_argument("--domain", default="-1:1:-1:1",
                   help="chart rectangle u0:u1:v0:v1 (default %(default)s)")
    c.add_argument("--nu", type=int, default=41,
                   help="grid samples along u, analytic mode "
                        "(default %(default)s)")
    c.add_argument("--nv", type=int, default=41,
                   help="grid samples along v, analytic mode "
                        "(default %(default)s)")
    c.add_argument("--out", help="write the envelope mesh to this OBJ path")
    c.add_argument("--report", help="write the JSON verification report here")
    c.add_argument("--tol-fi", type=float, default=TOL_FI,
                   help="tolerance for the system residuals, first-integral "
                        "drift and integration agreement "
                        "(default %(default)s)")
    c.set_defaults(func=cmd_congruence)

    e = sub.add_parser("export", help="sample a pair and write the OBJ mesh "
                                      "without running checks")
    _add_pair_arguments(e, "OBJ output path", out_required=True)
    e.set_defaults(func=cmd_export)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value such as -1:1:-1:1 for an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--domain" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["--domain=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:  # a grid too large for this machine
        print(f"error: not enough memory for this grid: {exc}",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
