"""Traced replay: an operation as explicit calls into the layers.

Each command is replayed as the public library calls that
``ribaucour.cli`` makes for it, with a span around each call into a
layer.  Spans record name, start, end, parent span and operation id;
they stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.

Spans live here, in the benchmark, not in the library; a replay that no
longer resembles the CLI shows up as a low ``trace.coverage`` and a high
``cli.self_s``.  Pass/fail verdicts of replayed reports are not used.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np
import ribaucour as rb
from ribaucour.ribaucour_core import support_pde_residual
from ribaucour.sphere_geom import frame_from_jet

# tolerance for the replayed report entries; only their size matters here
REPORT_TOL = 1e-6


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of each span, in the order of ``spans``."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _count_valid(rec: dict, *fields) -> None:
    rec["valid"] = sum(int(np.count_nonzero(f.valid)) for f in fields)
    rec["evaluated"] = sum(int(np.asarray(f.valid).size) for f in fields)


def _evaluate(tr: Tracer, patch, nu: int, nv: int):
    """``evaluate_patch`` spelled out layer by layer."""
    _, _, Z = patch.domain.mesh(nu, nv)
    jets = []
    for f in (patch.f1, patch.f2):
        with tr.span("holoexpr.eval_jet") as s:
            jets.append(rb.eval_jet(f, Z, 3))
            s["samples"] = int(Z.size)
    with tr.span("sphere_geom.frame_from_jet"):
        frame = frame_from_jet(jets[0])
    with tr.span("ribaucour_core.support_jet"):
        rho = rb.support_jet(*jets)
    with tr.span("ribaucour_core.shape_from_support") as s:
        fields = rb.shape_from_support(frame, rho)
        _count_valid(s, fields)
    fields.Z = Z
    fields.patch = patch
    return fields


def _entry(name: str, value: float, samples: int, excluded: int = 0) -> dict:
    return rb.identity_entry(name, value, REPORT_TOL, samples, excluded)


def _write(tr: Tracer, cmd, outdir: str, command: str, entries: list,
           extra: dict | None = None) -> None:
    if "report" not in cmd.files:
        return
    report = rb.make_report(command, dict(cmd.params), entries, extra=extra)
    with tr.span("report.write_report"):
        rb.write_report(report, os.path.join(outdir, "replay_"
                                             + cmd.files["report"]))


def replay_build(tr: Tracer, cmd, outdir: str) -> None:
    p = cmd.params
    patch = rb.make_patch(p["f1"], p["f2"], rb.Domain.parse(p["domain"]))
    nu, nv = p["nu"], p["nv"]
    fields = _evaluate(tr, patch, nu, nv)
    mesh = None
    if "out" in cmd.files:
        with tr.span("mesh.mesh_from_fields"):
            mesh = rb.mesh_from_fields(fields)
    with tr.span("ribaucour_core.residuals"):
        checks = [support_pde_residual(fields), rb.check_middle_sphere(fields)]
    with tr.span("ribaucour_core.holomorphy"):
        checks.append(rb.check_laguerre_holomorphy(patch, max(nu, 161),
                                                   max(nv, 161)))
    with tr.span("ribaucour_core.residuals"):
        gap = rb.unit_sphere_gap(fields)
    if mesh is not None:
        path = os.path.join(outdir, "replay_" + cmd.files["out"])
        with tr.span("mesh.export_obj") as s:
            rb.export_obj(mesh, path)
        s["bytes"] = os.path.getsize(path)
    _write(tr, cmd, outdir, "build",
           [_entry(r.name, r.max_abs, r.n_valid, r.n_excluded)
            for r in checks], extra={"unit_sphere_gap": gap})


def replay_dual(tr: Tracer, cmd, outdir: str) -> None:
    """No workload writes the dual's files, so neither does the replay."""
    p = cmd.params
    patch = rb.make_patch(p["f1"], p["f2"], rb.Domain.parse(p["domain"]))
    nu, nv = p["nu"], p["nv"]
    pair = rb.make_dual(patch)
    with tr.span("duality.evaluate_pair") as s:
        fa, fb = rb.evaluate_pair(pair, nu, nv)
        _count_valid(s, fa, fb)
    with tr.span("ribaucour_core.residuals"):
        rb.unit_sphere_gap(fa)
    with tr.span("duality.verify"):
        rb.verify_c2(pair, nu, nv, fields=(fa, fb))
        rb.verify_hk_equality(pair, nu, nv, fields=(fa, fb))
        rb.verify_form_relations(pair, nu, nv, fields=(fa, fb))


def replay_congruence(tr: Tracer, cmd, outdir: str) -> None:
    p = cmd.params
    domain = rb.Domain.parse(p.get("domain", "-1:1:-1:1"))
    with tr.span("congruence.analytic_example"):
        ac = rb.analytic_example(p["minimal"])
    consts = ac.constants
    if p.get("mode", "analytic") == "analytic":
        U, V, _ = domain.mesh(41, 41)
        with tr.span("congruence.checks"):
            wj, oj = ac.w_jet(U, V), ac.omega_jet(U, V)
            sysres = rb.system_residuals(ac.patch, wj, oj, U, V)
            drift = float(np.max(np.abs(rb.first_integral(ac.state(U, V),
                                                          consts))))
        with tr.span("congruence.envelope") as s:
            env = rb.envelope(ac.patch, wj, U, V)
            _count_valid(s, env)
        with tr.span("congruence.checks"):
            ms = rb.check_middle_sphere(env)
            hid = rb.check_hessian_identities(ac.patch, wj, oj, consts, U, V)
            gf = rb.generated_forms_check(ac.patch, wj, oj, consts, U, V,
                                          env=env)
        values = {"congruence_system": max(sysres.values()),
                  "first_integral_drift": drift,
                  "envelope_middle_sphere": ms.max_abs,
                  "hessian_identity_omega": hid.max_hessian_omega,
                  "generated_forms": gf.max_rel_first}
    else:
        st0 = ac.state(0.0, 0.0)
        init = rb.CongruenceState(*(float(np.asarray(x))
                                    for x in st0.as_tuple()))
        with tr.span("congruence.integrate_system"):
            integ = rb.integrate_system(ac.patch, init, consts, domain=domain,
                                        step=float(p["step"]))
        U, V = integ.U, integ.V
        with tr.span("congruence.checks"):
            ref = ac.state(U, V)
            agree = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
                        for a, b in zip(integ.state().as_tuple(),
                                        ref.as_tuple()))
        with tr.span("congruence.envelope") as s:
            env = rb.envelope(ac.patch, integ.w, U, V)
            _count_valid(s, env)
        with tr.span("congruence.checks"):
            ms = rb.check_middle_sphere(env)
        values = {"path_independence": integ.path_gap,
                  "first_integral_drift": integ.drift,
                  "analytic_agreement": agree,
                  "envelope_middle_sphere": ms.max_abs}
    n = int(np.asarray(U).size)
    _write(tr, cmd, outdir, "congruence",
           [_entry(k, v, n) for k, v in values.items()])


REPLAYS = {"build": replay_build, "dual": replay_dual,
           "congruence": replay_congruence}


def replay_op(tr: Tracer, commands, outdir: str) -> None:
    """Replay one operation under a root span ``cli.op``."""
    with tr.span("cli.op"):
        for cmd in commands:
            with tr.span("cli." + cmd.kind):
                REPLAYS[cmd.kind](tr, cmd, outdir)
