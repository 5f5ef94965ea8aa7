"""Verification reports: a stable JSON summary of residual checks.

The library's checks measure and never judge: each returns residuals
(a :class:`~ribaucour.ribaucour_core.ResidualField`, or the largest
residual with its sample counts).  Where an identity's terms give it a
scale, as for the support, middle-sphere and Hopf identities, the
residual is relative to it, so one tolerance serves surfaces of any
size.  :func:`identity_entry` is the one
place that turns a residual and a tolerance into a verdict, so every
entry of every command passes or fails by the same rule.

A report is a plain dict with a versioned schema (``ribaucour-report/2``:
``identities`` holds one entry per check, ``details`` only
command-specific context, never a second verdict).  Serialisation is
deterministic (sorted keys, fixed indentation, no timestamps), so
identical inputs produce byte-identical files.  Exit codes for the
command-line tools are a total function of the report:

* 0 — every identity entry passed,
* 1 — some entry failed,
* 3 — nothing to check: every sample degenerate, or the patch is the
  fixed unit sphere itself (the configuration all other checks are
  measured against).

Parse failures (2) and I/O failures (4) occur before or after a report
exists and are handled by the CLI layer.
"""
from __future__ import annotations

SCHEMA = "ribaucour-report/2"

__all__ = ["SCHEMA", "identity_entry", "make_report", "report_exit_code",
           "write_report"]


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
    if vacuous:
        passed = True
    else:
        passed = (samples > 0 and fraction >= 0.5 and finite
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
