"""Benchmark of the ribaucour command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its ``src/``.  A run
has ``PHASES`` phases, so that every kind of sample is spread over the
whole run rather than bunched in one stretch of the machine's speed:

* a set-up probe: a fresh interpreter that times ``import ribaucour``
  plus the workload's one-time set-up (``setup_s``);
* a cold round: each command of one operation as a fresh
  ``python -m ribaucour.cli`` process (``cold_cli_s``).  The first
  round's outputs are the reference, checked by the output oracle;
* a batch of warm operations in one long-lived worker process (see
  ``worker.py``), through ``ribaucour.cli.main``, one at a time.  With
  ``--trace 1`` each is followed by a traced replay for per-layer
  numbers.

Every operation is checked: it fails if it raises, exits other than 0
or 1, or writes output (standard output included) that differs from the
reference.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import check_obj  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PHASES = 2
MIN_TRACED = 3
BUDGET_S = 170.0          # a run must end within 180 s

# per-layer metric -> (unit, end-to-end metrics and workloads it should move)
LAYERS = {
    "import.ribaucour_s": ("s", "setup_s, cold_cli_s on all workloads"),
    "import.sympy_loaded": ("count", "setup_s on pair_deep"),
    "minimal.patch_derivation_s": ("s", "setup_s, cold_cli_s on congruence"),
    "holoexpr.eval_jet_s": (
        "s", "op_p50_s, samples_per_s, cold_cli_s on pair_deep; "
             "none on congruence"),
    "holoexpr.eval_jet.samples_per_s": (
        "1/s", "op_p50_s, samples_per_s, cold_cli_s on pair_deep; "
               "none on congruence"),
    "sphere_geom.frame_from_jet_s": (
        "s", "op_p50_s, samples_per_s, peak_rss_mb on pair_deep"),
    "ribaucour_core.support_jet_s": (
        "s", "op_p50_s, samples_per_s, peak_rss_mb on pair_deep"),
    "ribaucour_core.shape_from_support_s": (
        "s", "op_p50_s, samples_per_s, peak_rss_mb on pair_deep"),
    "ribaucour_core.holomorphy_s": ("s", "op_p50_s on pair_deep"),
    "ribaucour_core.residuals_s": ("s", "op_p50_s on pair_deep"),
    "ribaucour_core.valid_fraction": ("ratio", "none (share of samples "
                                               "not masked)"),
    "duality.evaluate_pair_s": ("s", "op_p50_s on pair_deep"),
    "duality.verify_s": ("s", "op_p50_s on pair_deep"),
    "mesh.mesh_from_fields_s": (
        "s", "op_p50_s, samples_per_s, cold_cli_s on pair_deep"),
    "mesh.export_obj_s": (
        "s", "op_p50_s, samples_per_s, cold_cli_s on pair_deep"),
    "mesh.export_obj.bytes_per_s": (
        "B/s", "op_p50_s, samples_per_s, cold_cli_s on pair_deep"),
    "report.write_report_s": ("s", "op_p50_s on pair_deep, congruence"),
    "congruence.analytic_example_s": ("s", "op_p50_s on congruence"),
    "congruence.integrate_system_s": (
        "s", "op_p50_s, samples_per_s on congruence"),
    "congruence.envelope_s": ("s", "op_p50_s, samples_per_s on congruence"),
    "congruence.checks_s": ("s", "op_p50_s on congruence"),
    "cli.self_s": ("s", "op_p50_s (operation time no layer span covers)"),
    "trace.overhead_s": ("s", "none (traced minus untraced op_p50_s)"),
    "trace.coverage": ("ratio", "none (layer self time / untraced op_p50_s)"),
}
END_TO_END = {"setup_s": "s", "cold_cli_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB",
              "checks_passed_ratio": "ratio"}


class RunError(Exception):
    """The run cannot produce a result."""


def machine() -> dict:
    """The machine and software every result was measured with."""
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (d / "level").read_text().strip()
        kind = (d / "type").read_text().strip()[0]
        caches[f"L{level}{kind if level == '1' else ''}"] = (
            (d / "size").read_text().strip())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "sympy": metadata.version("sympy"),
            "loadavg_start": [round(x, 2) for x in os.getloadavg()]}


def checked_setup(setup: dict) -> dict:
    module = Path(setup["module"]).resolve()
    if ROOT / "src" not in module.parents:
        raise RunError(f"imported ribaucour from {module}, not the checkout")
    return setup


class Runner:
    """Starts the run's processes, all before one deadline."""

    def __init__(self, workload, outdir: Path):
        self.workload = workload
        self.outdir = outdir
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        # one thread: the operations are a single-threaded closed loop
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self.env = env

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunError("time budget exhausted")
        return left

    def worker_argv(self, mode: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), self.workload.name,
                mode, str(self.outdir)]

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            return subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"timed out: {' '.join(argv[:4])}") from exc

    def probe(self) -> dict:
        proc = self.run(self.worker_argv("probe"))
        if proc.returncode != 0:
            raise RunError("set-up probe failed:\n"
                           + proc.stderr.decode(errors="replace")[-2000:])
        return checked_setup(json.loads(proc.stdout))

    def cold_round(self) -> dict:
        """One operation, each command as a fresh CLI process."""
        codes, digests, total = [], [], 0.0
        for cmd in self.workload.commands:
            t0 = time.perf_counter()
            proc = self.run([sys.executable, "-m", "ribaucour.cli",
                             *cmd.argv(str(self.outdir))])
            total += time.perf_counter() - t0
            codes.append(proc.returncode)
            hashes = [hashlib.sha256(proc.stdout).hexdigest()]
            for name in cmd.files.values():
                path = self.outdir / name
                hashes.append(hashlib.sha256(path.read_bytes()).hexdigest()
                              if path.exists() else "missing")
            digests.append(hashes)
        return {"t": total, "codes": codes, "digests": digests}


class Worker:
    """The long-lived worker process: one JSON line per request."""

    def __init__(self, runner: Runner, mode: str):
        self.err = open(runner.outdir / "worker.err", "w+b")
        self.proc = subprocess.Popen(
            runner.worker_argv(mode), cwd=ROOT, env=runner.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            text=True)
        self.timer = threading.Timer(runner.remaining(), self.proc.kill)
        self.timer.start()
        self.setup = checked_setup(self._reply())

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.err.seek(0)
            raise RunError("worker stopped:\n"
                           + self.err.read().decode(errors="replace")[-2000:])
        return json.loads(line)

    def call(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.timer.cancel()
        self.proc.stdin.close()     # a worker waiting for a request exits
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def judge(ops: list[dict]) -> list[str]:
    """Failure reason of each CLI operation ('' if it passed).  The first
    operation's outputs are the reference for the rest."""
    reasons, reference = [], None
    for op in ops:
        if "error" in op:
            reasons.append(op["error"])
        elif any(c not in (0, 1) for c in op["codes"]):
            reasons.append(f"exit codes {op['codes']}")
        else:
            reference = reference or op["digests"]
            reasons.append("" if op["digests"] == reference
                           else "output differs from the first run")
    return reasons


def op_tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten operations beyond it."""
    n = len(times)
    if n < 11:
        raise RunError(f"{n} operations: op_tail_s needs at least 11")
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans, traced, untraced, setups, setup_kind) -> dict:
    """Per-layer numbers: medians over traced operations of self time."""
    untraced_p50 = statistics.median(untraced)
    per_op = defaultdict(lambda: [0.0] * len(traced))
    totals = defaultdict(float)
    for s in spans:
        key = "cli.self" if s["name"].startswith("cli.") else s["name"]
        per_op[key][s["op"]] += s["self"]
        for count in ("samples", "bytes", "valid", "evaluated"):
            totals[s["name"], count] += s.get(count, 0)
            totals[count] += s.get(count, 0)
        totals[s["name"], "time"] += s["end"] - s["start"]
    covered = [sum(v[i] for k, v in per_op.items() if k != "cli.self")
               for i in range(len(traced))]

    def rate(name, count):
        t = totals[name, "time"]
        return totals[name, count] / t if t else 0.0

    m = {
        "import.ribaucour_s": statistics.median(p["import_s"]
                                                for p in setups),
        "import.sympy_loaded": setups[0]["sympy_loaded"],
        "minimal.patch_derivation_s": (
            statistics.median(p["setup_only_s"] for p in setups)
            if setup_kind == "minimal" else 0.0),
        "holoexpr.eval_jet.samples_per_s": rate("holoexpr.eval_jet",
                                                "samples"),
        "mesh.export_obj.bytes_per_s": rate("mesh.export_obj", "bytes"),
        "ribaucour_core.valid_fraction": (totals["valid"]
                                          / max(1, totals["evaluated"])),
        "trace.overhead_s": statistics.median(traced) - untraced_p50,
        "trace.coverage": statistics.median(covered) / untraced_p50,
    }
    return {name: m[name] if name in m else
            statistics.median(per_op.get(name[:-2], [0.0] * len(traced)))
            for name in LAYERS}


def measure(runner: Runner, trace: bool, seconds: float, seed: int) -> dict:
    """Run the phases; return the raw samples."""
    workload, outdir = runner.workload, runner.outdir
    probes, rounds, ops, traced = [], [], [], []
    cli_ops = []      # every CLI operation, in the order run
    oracle = (True, "")
    worker = None
    try:
        for phase in range(PHASES):
            probes.append(runner.probe())
            if phase == 0 or not trace:
                rounds.append(runner.cold_round())
                cli_ops.append(rounds[-1])
            if phase == 0:
                # the reference outputs are on disk now: check them
                for cmd in workload.commands:
                    if cmd.oracle:
                        oracle = check_obj(str(outdir / cmd.files[cmd.oracle]),
                                           cmd.params, seed)
                worker = Worker(runner, "trace" if trace else "warm")
                cli_ops.append(worker.call(do="warmup"))
            short = (MIN_TRACED if trace else workload.ops) - len(ops)
            batch = worker.call(do="run", seconds=seconds / PHASES,
                                min_ops=math.ceil(short / (PHASES - phase)))
            ops += batch["ops"]
            cli_ops += batch["ops"]
            traced += batch["traced"]
        end = worker.call(do="end")
    finally:
        if worker is not None:
            worker.close()
    return {"setups": probes + [worker.setup], "rounds": rounds, "ops": ops,
            "traced": traced, "cli_ops": cli_ops, "oracle": oracle, **end}


def run(args) -> tuple[dict, list[str]]:
    workload = WORKLOADS[args.workload]
    if not (ROOT / "src" / "ribaucour" / "cli.py").is_file():
        raise RunError(f"no ribaucour sources under {ROOT / 'src'}")
    outdir = WORK / f"out-{workload.name}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    lines = [f"# machine {json.dumps(machine())}"]
    try:
        raw = measure(Runner(workload, outdir), bool(args.trace),
                      args.seconds, args.seed)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    reasons = judge(raw["cli_ops"])
    oracle_ok, oracle_note = raw["oracle"]
    if not oracle_ok:       # outputs equal to a wrong reference are wrong
        reasons = [r or "oracle: " + oracle_note for r in reasons]
    reasons += [t.get("error", "") for t in raw["traced"]]
    failed = sum(1 for r in reasons if r)
    codes = [c for op in raw["cli_ops"] for c in op["codes"]]
    checks_failed = codes.count(1) / len(codes)

    lines.append(f"# workload {workload.name} seed {args.seed} "
                 f"trace {args.trace}: {len(raw['cli_ops'])} CLI operations, "
                 f"{len(raw['traced'])} traced")
    if oracle_note:
        lines.append(f"# oracle: {oracle_note}")
    lines += [f"# FAILED: {r}" for r in sorted(set(filter(None, reasons)))]

    if args.trace:
        spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(raw["spans"]))
        metrics = layer_metrics(raw["spans"], [t["t"] for t in raw["traced"]],
                                [op["t"] for op in raw["ops"]],
                                raw["setups"], workload.setup)
        units = {name: unit for name, (unit, _) in LAYERS.items()}
        for name, (unit, moves) in LAYERS.items():
            lines.append(f"{name:36s} {metrics[name]:14.6g} {unit:6s} "
                         f"-> {moves}")
    else:
        times = [op["t"] for op in raw["ops"]]
        tail, pct = op_tail(times)
        lines.append("# warm operation times (s, in order): "
                     + " ".join(f"{t:.3f}" for t in times))
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in raw["setups"]),
            "cold_cli_s": statistics.median(r["t"] for r in raw["rounds"]),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "samples_per_s": workload.samples_per_op * len(times) / sum(times),
            "peak_rss_mb": raw["peak_rss_mb"],
            "checks_passed_ratio": 1.0 - checks_failed,
        }
        units = END_TO_END
        notes = {
            "setup_s": f"median of {len(raw['setups'])} fresh interpreters",
            "cold_cli_s": f"median of {len(raw['rounds'])} rounds of "
                          f"{len(workload.commands)} fresh CLI processes",
            "op_p50_s": f"n={len(times)} warm operations",
            "op_tail_s": f"p{pct:.1f}, n={len(times)}",
            "samples_per_s": f"{workload.samples_per_op} samples/operation",
            "peak_rss_mb": "ru_maxrss of the warm worker",
        }
        for name, note in notes.items():
            lines.append(f"{name:20s} {metrics[name]:12.6g} "
                         f"{units[name]:6s} ({note})")
        lines.append(f"{'ops_failed_ratio':20s} {failed / len(reasons):12.6g}"
                     f" ratio  ({failed}/{len(reasons)} operations)")
        lines.append(f"{'checks_failed_ratio':20s} {checks_failed:12.6g} "
                     f"ratio  ({codes.count(1)}/{len(codes)} commands "
                     f"exited 1)")
    result = {"correct": failed == 0, "attempted": len(reasons),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, lines = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
