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
failure (an output's missing directory is found before any work).  Bad
input and I/O failures print one ``error:`` line; only :func:`main` turns
them into exit codes.  One status rule, :func:`_finish`, judges every
command; each entry's fixed tolerance is in ``report.TOLERANCES``.
"""
from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys

from . import __version__
from .report import (identity_entries, make_report, report_exit_code,
                     write_report)

# each command imports the modules it runs, so a process loads only those
# of its own command (and ribaucour.mesh only for --out)

EXIT_PASS = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

UNIT_SPHERE_TOL = 1e-8
# the notes of the status rule, the same for every command
_DEGENERATE = ("every sample is degenerate "
               "(branch point or singular shape operator)")
_UNIT_SPHERE = "patch coincides with the fixed unit sphere (rho = 1, X = N)"
_UMBILIC = "totally umbilic patch: no principal data to switch"
# the arguments each command's report names in its inputs, besides the
# chart rectangle and the grid
_INPUTS = {"build": ("f1", "f2"), "dual": ("f1", "f2"),
           "congruence": ("minimal", "mode", "step")}

__all__ = ["main"]


def _write_mesh(fields, path):
    """Mesh one surface's whole-grid samples and write it as OBJ."""
    from .mesh import export_obj, mesh_from_fields

    mesh = mesh_from_fields(fields)
    export_obj(mesh, path)
    return mesh


def _finish(args, domain, checks, dual=None, *, first=(), vacuous=(),
            extra=None):
    """Judge ``checks`` (a GridChecks), after the records ``first``: no
    usable sample gives no entries, a gap within UNIT_SPHERE_TOL flags the
    unit sphere, the entries named in ``vacuous`` are a totally umbilic
    patch's.  Write the meshes of ``checks`` and ``dual`` and the report;
    print the verdict."""
    usable = checks.usable
    sphere = checks.unit_sphere_gap <= UNIT_SPHERE_TOL
    entries = identity_entries([*first, *checks.residuals.values()],
                               vacuous, _UMBILIC) if usable else []
    notes = tuple(note for on, note in ((not usable, _DEGENERATE),
                                        (sphere, _UNIT_SPHERE),
                                        (vacuous, _UMBILIC)) if on)
    inputs = {**{k: getattr(args, k) for k in _INPUTS[args.command]},
              "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
              "grid": [args.nu, args.nv]}
    report = make_report(args.command, inputs, entries,
                         all_degenerate=not usable, unit_sphere=sphere,
                         extra=extra, notes=notes)
    code = report_exit_code(report)
    for fields, path in ((checks, args.out),
                         (dual, getattr(args, "out_dual", None))):
        if path:
            _write_mesh(fields, path)
    if args.report:
        write_report(report, args.report)
    for e in entries:
        if e["vacuous"]:
            print("  %-28s vacuous (%s) -> pass" % (e["name"], e["note"]))
        else:
            mr = e["max_residual"]
            shown = "none" if mr is None else "%.3e" % mr
            print("  %-28s max=%s tol=%.1e samples=%d -> %s"
                  % (e["name"], shown, e["tolerance"], e["samples"],
                     "pass" if e["pass"] else "FAIL"))
    for note in notes:
        print(f"  note: {note}")
    status = {EXIT_PASS: "PASS", EXIT_RESIDUAL: "FAIL",
              EXIT_DEGENERATE: "DEGENERATE"}[code]
    print(f"{args.command}: {status} (exit {code})")
    return code


def _check_outputs(args):
    """Fill in the dual mesh's default path (*_dual beside --out); raise
    ValueError for --out-dual without --out, OSError for an output whose
    directory is missing."""
    if getattr(args, "out_dual", None):
        if not args.out:
            raise ValueError("--out-dual needs --out")
    elif args.command == "dual" and args.out:
        from pathlib import Path
        p = Path(args.out)
        args.out_dual = str(p.with_name(p.stem + "_dual" + p.suffix))
    for key in ("out", "out_dual", "report"):
        path = getattr(args, key, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)


def _parse_inputs(args):
    """The --domain rectangle, once the grid and the step are checked;
    raises ValueError, or MemoryError beyond numpy's limit, for bad input.
    """
    from .grids import Domain

    if min(args.nu, args.nv) < 2:
        raise ValueError(f"--nu and --nv must be at least 2, "
                         f"got {args.nu} and {args.nv}")
    step = getattr(args, "step", 1.0)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"--step must be finite and positive, got {step}")
    domain = Domain.parse(args.domain)
    if getattr(args, "mode", "analytic") == "analytic":  # samples nu x nv
        domain.lines(args.nu, args.nv)
    return domain


def _pair_patch(args):
    """The pair (--f1, --f2) on the --domain rectangle, outputs checked;
    raises ValueError, ParseError included, for bad input."""
    from .ribaucour_core import make_patch

    patch = make_patch(args.f1, args.f2, _parse_inputs(args))
    _check_outputs(args)
    return patch


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    from .ribaucour_core import patch_checks

    patch = _pair_patch(args)
    # row block by row block: X, N and the mask only for a mesh
    checks = patch_checks(patch, args.nu, args.nv, surface=bool(args.out))
    return _finish(args, patch.domain, checks,
                   extra={"unit_sphere_gap": checks.unit_sphere_gap})


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def cmd_dual(args) -> int:
    from .duality import make_dual, pair_checks

    patch = _pair_patch(args)
    # row block by row block: both surfaces only for the meshes
    checks, dual = pair_checks(make_dual(patch), args.nu, args.nv,
                               surface=bool(args.out))
    # some sample usable, none left to switch: every usable one is umbilic
    switch = ("curvature_switch", "direction_switch")
    umbilic = checks.usable and checks.residuals[switch[0]].n_valid == 0
    return _finish(args, patch.domain, checks, dual,
                   vacuous=switch if umbilic else (),
                   extra={"unit_sphere_gap": checks.unit_sphere_gap})


# ---------------------------------------------------------------------------
# congruence
# ---------------------------------------------------------------------------

def cmd_congruence(args) -> int:
    from .congruence import analytic_example, envelope_checks, integrate_system

    domain = _parse_inputs(args)
    _check_outputs(args)
    ac = analytic_example(args.minimal)
    details = {"constants": {"c": ac.constants.c}}
    if args.mode == "analytic":
        U, V, _ = domain.mesh(args.nu, args.nv)
        block = ac.envelope_block(U[:, 0], V[0])
        first = ()
    else:
        # ValueError where the step gives no usable grid
        integ = integrate_system(ac.patch, ac.state(0.0, 0.0), ac.constants,
                                 domain=domain, step=args.step)
        U, V, block = integ.U, integ.V, integ.envelope_block(ac)
        first = integ.checks.residuals.values()
        details["integration"] = {"grid": list(U.shape),
                                  "init_node": list(integ.init_node)}
    # the envelope and every check of it block by block: X, N and the
    # mask only for a mesh
    checks = envelope_checks(ac.patch, block, U, V, surface=bool(args.out))
    return _finish(args, domain, checks, first=first, extra=details)


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
