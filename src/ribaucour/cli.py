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

Exit codes: 0 all checks pass (and ``--help``, ``--version``), 1 a
residual check failed, 2 bad input (a usage error: an unknown option or
subcommand, a missing required option or value; an unparsable expression
or domain, a numeric literal too large for a float, non-finite domain
bounds, a grid size below 2, an integration step that is not finite and
positive or whose node count is not finite or whose nodes miss the chart
origin, ``--out-dual`` without ``--out``, a grid beyond numpy's limit or
too large for the available memory), 3 nothing to check (all samples
degenerate, or the patch coincides with the fixed unit sphere), 4 I/O
failure.  Bad input and I/O failures print one ``error:`` line; only
:func:`main` turns them into exit codes.  Every tolerance is fixed, from
the tables below; each report entry records its own.
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
TOL_PDE = 1e-12          # support and middle-sphere identities, relative
                         # to the sum of their terms' magnitudes
TOL_HOPF = 1e-10         # mu = S(f1) - S(f2), relative to its terms
TOL_FI = 1e-6            # congruence system and first integral
TOL_PROP = 1e-5          # second-order congruence identities
# envelope residuals, relative; W is a jet in both modes.  The middle-sphere
# scale |X|^2 + 2|(H/K)<X,N>| + 1 reaches 10 on the default domain (Enneper),
# so this is no looser there than an absolute 1e-6
TOL_ENVELOPE = 1e-7
# the dual checks by entry name
TOL_DUAL = {
    "curvature_switch": 1e-8,
    "direction_switch": 1e-6,            # radians
    "hover_k_equality": 1e-8,
    "hopf_antisymmetry": 1e-10,          # relative to mu's terms
    "first_form_relation": 1e-7,
    "second_form_relation": 1e-7,
    "third_form_relation": 1e-8,
}
# the congruence checks by entry name
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
    for fields, path in surfaces:
        _write_mesh(fields, path)
    if getattr(args, "report", None):
        write_report(report, args.report)
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
    """The --domain rectangle, once the grid sizes and the step are
    checked; raises ValueError for input the command cannot run on."""
    from .grids import Domain

    if min(args.nu, args.nv) < 2:
        raise ValueError(f"--nu and --nv must be at least 2, "
                         f"got {args.nu} and {args.nv}")
    step = getattr(args, "step", 1.0)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"--step must be finite and positive, got {step}")
    return Domain.parse(args.domain)


def _pair_patch(args):
    """The pair (--f1, --f2) on the --domain rectangle; raises ValueError,
    ParseError included, for input the command cannot run on."""
    from .ribaucour_core import make_patch

    return make_patch(args.f1, args.f2, _parse_inputs(args))


def _inputs(args, domain, tolerances, **named):
    """A report's ``inputs``: the named arguments, the chart rectangle,
    the grid and the tolerances."""
    return {**named, "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
            "grid": [args.nu, args.nv], "tolerances": tolerances}


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    from .ribaucour_core import patch_checks

    patch = _pair_patch(args)
    # row block by row block: X, N and the mask only for a mesh
    checks = patch_checks(patch, args.nu, args.nv, surface=bool(args.out))
    inputs = _inputs(args, patch.domain, {"pde": TOL_PDE,
                                          "hopf_holomorphy": TOL_HOPF},
                     f1=args.f1, f2=args.f2)
    surfaces = [(checks, args.out)] if args.out else []
    if not checks.usable:
        return _finish(args, "build", inputs, [], surfaces,
                       all_degenerate=True,
                       notes=("every sample is degenerate "
                              "(branch point or singular shape operator)",))
    tols = {"support_pde": TOL_PDE, "middle_sphere": TOL_PDE,
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
        raise ValueError("--out-dual needs --out")
    patch = _pair_patch(args)
    # row block by row block: both surfaces only for the meshes
    checks, dual = pair_checks(make_dual(patch), args.nu, args.nv,
                               surface=bool(args.out))
    inputs = _inputs(args, patch.domain, {
        "curvature": TOL_DUAL["curvature_switch"],
        "direction_rad": TOL_DUAL["direction_switch"],
        "hopf_sum": TOL_DUAL["hopf_antisymmetry"],
    }, f1=args.f1, f2=args.f2)
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
    # some sample is usable (guard above): none left to switch means
    # every usable sample is umbilic
    vac_note = "totally umbilic patch: no principal data to switch"
    vac = checks.residuals["curvature_switch"].n_valid == 0
    entries = []
    for res in checks.residuals.values():
        vacuous = vac and res.name in ("curvature_switch", "direction_switch")
        entries.append(_residual_entry(res, TOL_DUAL[res.name],
                                       vacuous=vacuous,
                                       note=vac_note if vacuous else ""))
    return _finish(args, "dual", inputs, entries, surfaces,
                   notes=(vac_note,) if vac else (),
                   extra={"unit_sphere_gap": gap})


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def cmd_congruence(args) -> int:
    from .congruence import analytic_example, envelope_checks, integrate_system

    domain = _parse_inputs(args)
    ac = analytic_example(args.minimal)
    consts = ac.constants
    inputs = _inputs(args, domain, {"first_integral": TOL_FI,
                                    "second_order": TOL_PROP},
                     minimal=args.minimal, mode=args.mode, step=args.step)
    details = {"constants": {"c": consts.c}}

    if args.mode == "analytic":
        U, V, _ = domain.mesh(args.nu, args.nv)
        block = ac.envelope_block(U[:, 0], V[0])
        folded = []
    else:
        # ValueError where the step gives no usable grid
        integ = integrate_system(ac.patch, ac.state(0.0, 0.0), consts,
                                 domain=domain, step=args.step)
        U, V, block = integ.U, integ.V, integ.envelope_block(ac)
        folded = list(integ.checks.residuals.values())
        details["integration"] = {"grid": list(U.shape),
                                  "init_node": list(integ.init_node)}
    # the envelope and every check of it block by block: X, N and the
    # mask only for a mesh
    checks = envelope_checks(ac.patch, block, U, V, surface=bool(args.out))
    entries = [_residual_entry(res, TOL_CONGRUENCE[res.name])
               for res in folded + list(checks.residuals.values())]
    surfaces = [(checks, args.out)] if args.out else []
    return _finish(args, "congruence", inputs, entries, surfaces,
                   extra=details)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args) -> int:
    from .ribaucour_core import patch_checks

    fields = patch_checks(_pair_patch(args), args.nu, args.nv, checks=False,
                          surface=True)
    mesh = _write_mesh(fields, args.out)
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


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ValueError, for :func:`main`."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves
    it unchanged, so every :func:`main` call shares it."""
    p = _Parser(
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
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("dual", help="build a pair and its dual and verify "
                                    "the curvature-switching laws")
    _add_pair_arguments(d, "write the primary mesh to this OBJ path "
                           "(dual goes to *_dual.obj)")
    d.add_argument("--out-dual", help="explicit path for the dual mesh")
    d.add_argument("--report", help="write the JSON verification report here")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help or --version, once printed
        return exc.code
    except ValueError as exc:  # bad input, a usage error included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:  # a grid too large for this machine
        print(f"error: not enough memory for this grid: {exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
