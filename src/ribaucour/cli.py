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
finite and positive, gives a node count that is not finite or misses the
chart origin, ``--out-dual`` without ``--out``, a grid too large for the
available memory), 3 nothing to
check (all samples degenerate, or the patch coincides with the fixed
unit sphere), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .report import (identity_entry, make_report, report_exit_code,
                     write_report)

# each command imports the modules it runs, so a process loads only those
# of its own command (and ribaucour.mesh only for --out)

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

UNIT_SPHERE_TOL = 1e-8
TOL_PDE = 1e-12          # support and middle-sphere identities (--tol-pde),
                         # relative to the sum of their terms' magnitudes
TOL_HOPF = 1e-10         # mu = S(f1) - S(f2), relative to its terms
TOL_FI = 1e-6            # congruence system and first integral (--tol-fi)
TOL_PROP = 1e-5          # second-order congruence identities
# envelope residuals, relative; W is a jet in both modes.  The middle-sphere
# scale |X|^2 + 2|(H/K)<X,N>| + 1 reaches 10 on the default domain (Enneper),
# so this is no looser there than an absolute 1e-6
TOL_ENVELOPE = 1e-7
# the dual checks by entry name; --tol-c2 replaces the two 1e-8 values
TOL_DUAL = {
    "curvature_switch": 1e-8,
    "direction_switch": 1e-6,            # radians
    "hover_k_equality": 1e-8,
    "hopf_antisymmetry": 1e-10,          # relative to mu's terms
    "first_form_relation": 1e-7,
    "second_form_relation": 1e-7,
    "third_form_relation": 1e-8,
}
# the congruence checks by entry name; --tol-fi replaces every TOL_FI value
TOL_CONGRUENCE = {
    **dict.fromkeys(("path_independence", "first_integral_drift",
                     "analytic_agreement", "congruence_system"), TOL_FI),
    **dict.fromkeys(("envelope_middle_sphere", "envelope_hover_ratio"),
                    TOL_ENVELOPE),
    **dict.fromkeys(("hessian_identity_omega", "hessian_identity_w",
                     "gradient_link", "generated_forms"), TOL_PROP),
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


def _write_mesh(fields, path):
    """Mesh one surface's whole-grid samples and write it as OBJ."""
    from .mesh import export_obj, mesh_from_fields

    mesh = mesh_from_fields(fields)
    export_obj(mesh, path)
    return mesh


def _finish(args, command, inputs, entries, surfaces, *,
            all_degenerate=False, unit_sphere=False, notes=(), extra=None):
    report = make_report(command, inputs, entries,
                         all_degenerate=all_degenerate,
                         unit_sphere=unit_sphere, extra=extra, notes=notes)
    code = report_exit_code(report)
    try:
        for fields, path in surfaces:
            _write_mesh(fields, path)
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


def _residual_entry(res, tolerance, **kwargs):
    return identity_entry(res.name, res.max_abs, tolerance, res.n_valid,
                          res.n_excluded, **kwargs)


def _parse_inputs(args):
    """The --domain rectangle, once the grid sizes, the step and the
    tolerances are checked; raises ValueError for input the command
    cannot run on."""
    from .grids import Domain

    if min(args.nu, args.nv) < 2:
        raise ValueError(f"--nu and --nv must be at least 2, "
                         f"got {args.nu} and {args.nv}")
    for flag in ("step", "tol_pde", "tol_c2", "tol_fi"):
        value = getattr(args, flag, 1.0)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"--{flag.replace('_', '-')} must be finite "
                             f"and positive, got {value}")
    return Domain.parse(args.domain)


def _pair_patch(args):
    """(domain, patch) of --domain and the pair (--f1, --f2), or None
    once the error is printed."""
    from .holoexpr import ParseError
    from .ribaucour_core import make_patch

    try:
        domain = _parse_inputs(args)
        return domain, make_patch(args.f1, args.f2, domain)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


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
    from .ribaucour_core import patch_checks

    parsed = _pair_patch(args)
    if parsed is None:
        return EXIT_PARSE
    domain, patch = parsed
    # row block by row block: X, N and the mask only for a mesh
    checks = patch_checks(patch, args.nu, args.nv, surface=bool(args.out))
    inputs = _pair_inputs(args, domain, {"pde": args.tol_pde,
                                         "hopf_holomorphy": TOL_HOPF})
    surfaces = [(checks, args.out)] if args.out else []
    if not checks.usable:
        return _finish(args, "build", inputs, [], surfaces,
                       all_degenerate=True,
                       notes=("every sample is degenerate "
                              "(branch point or singular shape operator)",))
    tols = {"support_pde": args.tol_pde, "middle_sphere": args.tol_pde,
            "hopf_holomorphy": TOL_HOPF}
    entries = [_residual_entry(res, tols[res.name])
               for res in checks.residuals.values()]
    gap = checks.unit_sphere_gap
    sphere = gap <= UNIT_SPHERE_TOL
    notes = ()
    if sphere:
        notes = ("patch coincides with the fixed unit sphere "
                 "(rho = 1, X = N): nothing nontrivial to build",)
    return _finish(args, "build", inputs, entries, surfaces,
                   unit_sphere=sphere, notes=notes,
                   extra={"unit_sphere_gap": gap})


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    from .duality import make_dual, pair_checks

    if args.out_dual and not args.out:
        print("error: --out-dual needs --out", file=sys.stderr)
        return EXIT_PARSE
    parsed = _pair_patch(args)
    if parsed is None:
        return EXIT_PARSE
    domain, patch = parsed
    # row block by row block: both surfaces only for the meshes
    checks, dual = pair_checks(make_dual(patch), args.nu, args.nv,
                               surface=bool(args.out))
    inputs = _pair_inputs(args, domain, {
        "curvature": args.tol_c2,
        "direction_rad": TOL_DUAL["direction_switch"],
        "hopf_sum": TOL_DUAL["hopf_antisymmetry"],
    })
    surfaces = []
    if args.out:
        dual_out = args.out_dual
        if dual_out is None:
            from pathlib import Path
            p = Path(args.out)
            dual_out = str(p.with_name(p.stem + "_dual" + p.suffix))
        surfaces = [(checks, args.out), (dual, dual_out)]
    if not checks.usable:
        return _finish(args, "dual", inputs, [], surfaces,
                       all_degenerate=True,
                       notes=("no sample is usable on both the patch "
                              "and its dual",))
    gap = checks.unit_sphere_gap
    if gap <= UNIT_SPHERE_TOL:
        return _finish(args, "dual", inputs, [], surfaces, unit_sphere=True,
                       notes=("patch coincides with the fixed unit sphere; "
                              "the dual is the same sphere",),
                       extra={"unit_sphere_gap": gap})
    tols = {**TOL_DUAL, "curvature_switch": args.tol_c2,
            "hover_k_equality": args.tol_c2}
    # some sample is usable (guard above): none left to switch means
    # every usable sample is umbilic
    vac_note = "totally umbilic patch: no principal data to switch"
    vac = checks.residuals["curvature_switch"].n_valid == 0
    entries = []
    for res in checks.residuals.values():
        vacuous = vac and res.name in ("curvature_switch", "direction_switch")
        entries.append(_residual_entry(res, tols[res.name], vacuous=vacuous,
                                       note=vac_note if vacuous else ""))
    return _finish(args, "dual", inputs, entries, surfaces,
                   notes=(vac_note,) if vac else (),
                   extra={"unit_sphere_gap": gap})


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def cmd_congruence(args) -> int:
    from .congruence import analytic_example, envelope_checks, integrate_system

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
    details = {"constants": {"c": consts.c, "c1": consts.c1,
                             "c2": consts.c2, "c3": consts.c3}}

    if args.mode == "analytic":
        U, V, _ = domain.mesh(args.nu, args.nv)
        u, v = U[:, 0], V[0]
        w_rows, records = (lambda b, _: ac.w_jet(u[b, None], v[None, :])), \
            ac.envelope_records(u, v)
        folded = []
    else:
        try:
            integ = integrate_system(ac.patch, ac.state(0.0, 0.0), consts,
                                     domain=domain, step=args.step)
        except ValueError as exc:  # the step gives no usable grid
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        U, V, w_rows = integ.U, integ.V, integ.w_rows

        def records(b, env, chart):
            return (ac.agreement(integ, b, chart.scalars[0]),
                    *integ.envelope_records(b, env))
        folded = list(integ.checks.residuals.values())
        details["integration"] = {"grid": list(U.shape),
                                  "init_node": list(integ.init_node)}
    # the envelope and every check of it block by block: X, N and the
    # mask only for a mesh
    checks = envelope_checks(ac.patch, w_rows, U, V, records,
                             surface=bool(args.out))
    tols = {name: args.tol_fi if tol == TOL_FI else tol
            for name, tol in TOL_CONGRUENCE.items()}
    entries = [_residual_entry(res, tols[res.name])
               for res in folded + list(checks.residuals.values())]
    surfaces = [(checks, args.out)] if args.out else []
    return _finish(args, "congruence", inputs, entries, surfaces,
                   extra=details)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args) -> int:
    from .ribaucour_core import patch_checks

    parsed = _pair_patch(args)
    if parsed is None:
        return EXIT_PARSE
    fields = patch_checks(parsed[1], args.nu, args.nv, checks=False,
                          surface=True)
    try:
        mesh = _write_mesh(fields, args.out)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, so every :func:`main` call shares it."""
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
                        "identities, relative to the sum of their terms' "
                        "magnitudes (default %(default)s)")
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
