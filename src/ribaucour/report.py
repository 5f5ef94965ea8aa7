"""Verification reports: a stable JSON summary of residual checks.

The library's checks measure and never judge: each returns residuals
(a :class:`~ribaucour.ribaucour_core.ResidualField`, or the largest
residual with its sample counts).  Where an identity's terms give it a
scale, as for the support, middle-sphere and Hopf identities, the
residual is relative to it, so one tolerance serves surfaces of any
size.  :data:`TOLERANCES` holds each entry's tolerance, and
:func:`identity_entry` is the one place that turns a residual and a
tolerance into a verdict, so every entry of every command passes or
fails by the same rule; :func:`identity_entries` applies both to records.

A report is a plain dict with a versioned schema (``ribaucour-report/3``:
``inputs`` holds the arguments, ``identities`` one entry per check,
``details`` only command-specific context, never a second verdict).
Serialisation is deterministic (sorted keys, fixed indentation, no
timestamps), so identical inputs produce byte-identical files.  Exit
codes for the command-line tools are a total function of the report:

* 0 — every identity entry passed,
* 1 — some entry failed,
* 3 — nothing to check: every sample degenerate, or the patch is the
  fixed unit sphere itself (the configuration all other checks are
  measured against).

Parse failures (2) and I/O failures (4) occur before or after a report
exists and are handled by the CLI layer.
"""
from __future__ import annotations

SCHEMA = "ribaucour-report/3"

__all__ = ["SCHEMA", "TOLERANCES", "identity_entries", "identity_entry",
           "make_report", "report_exit_code", "write_report"]

# the tolerance of each report entry, by its name
TOLERANCES = {
    # support and middle-sphere identities, relative to the sum of their
    # terms' magnitudes
    **dict.fromkeys(("support_pde", "middle_sphere"), 1e-12),
    "hopf_holomorphy": 1e-10,  # mu = S(f1) - S(f2), relative to its terms
    "curvature_switch": 1e-8,
    "direction_switch": 1e-6,            # radians
    "hover_k_equality": 1e-8,
    "hopf_antisymmetry": 1e-10,          # relative to mu's terms
    "first_form_relation": 1e-7,
    "second_form_relation": 1e-7,
    "third_form_relation": 1e-8,
    # congruence system and first integral
    **dict.fromkeys(("path_independence", "first_integral_drift",
                     "analytic_agreement", "congruence_system"), 1e-6),
    # envelope residuals, relative; W is a jet in both modes.  The
    # middle-sphere scale |X|^2 + 2|(H/K)<X,N>| + 1 reaches 10 on the
    # default domain (Enneper), so this is no looser there than an
    # absolute 1e-6
    **dict.fromkeys(("envelope_middle_sphere", "envelope_hover_ratio"),
                    1e-7),
    # second-order congruence identities
    **dict.fromkeys(("hessian_identity_omega", "hessian_identity_w",
                     "gradient_link", "generated_forms"), 1e-5),
}


def identity_entry(name: str, max_residual: float, tolerance: float,
                   samples: int, excluded: int, *,
                   vacuous: bool = False, note: str = "") -> dict:
    """One verified identity.  It passes when the residual is finite and
    within tolerance and at least half of the grid is comparable; a
    ``vacuous`` entry (nothing to compare by construction, e.g.
    curvature-direction checks on a totally umbilic patch) passes with
    zero samples."""
    import math

    total = samples + excluded
    fraction = samples / total if total else 0.0
    finite = max_residual is not None and math.isfinite(float(max_residual))
    passed = vacuous or (samples > 0 and fraction >= 0.5 and finite
                         and float(max_residual) <= tolerance)
    entry = {
        "name": name,
        "max_residual": float(max_residual) if finite else None,
        "tolerance": float(tolerance),
        "samples": int(samples),
        "excluded": int(excluded),
        "comparable_fraction": round(fraction, 6),
        "vacuous": bool(vacuous),
        "pass": bool(passed),
    }
    if note:
        entry["note"] = note
    return entry


def identity_entries(records, vacuous=(), note: str = "") -> list:
    """The entry of each record (anything with ``name``, ``max_abs``,
    ``n_valid`` and ``n_excluded``) at its :data:`TOLERANCES` value; those
    named in ``vacuous`` are vacuous, with ``note``."""
    return [identity_entry(r.name, r.max_abs, TOLERANCES[r.name],
                           r.n_valid, r.n_excluded, vacuous=r.name in vacuous,
                           note=note if r.name in vacuous else "")
            for r in records]


def make_report(command: str, inputs: dict, identities: list, *,
                all_degenerate: bool = False, unit_sphere: bool = False,
                extra: dict | None = None, notes: tuple = ()) -> dict:
    """Assemble the full report dict for one CLI command run."""
    from . import __version__

    passed = (not all_degenerate and not unit_sphere
              and all(e["pass"] for e in identities))
    report = {
        "schema": SCHEMA,
        "tool": {"name": "ribaucour", "version": __version__},
        "command": command,
        "inputs": inputs,
        "identities": identities,
        "summary": {
            "passed": bool(passed),
            "all_degenerate": bool(all_degenerate),
            "unit_sphere": bool(unit_sphere),
            "notes": list(notes),
        },
    }
    if extra:
        report["details"] = extra
    return report


def report_exit_code(report: dict) -> int:
    s = report["summary"]
    if s["all_degenerate"] or s["unit_sphere"]:
        return 3
    return 0 if s["passed"] else 1


def _jsonable(value):
    """Strict-JSON copy: non-finite floats become None, numpy scalars and
    sequences become plain Python values."""
    import math

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def write_report(report: dict, path) -> None:
    import json

    text = json.dumps(_jsonable(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
