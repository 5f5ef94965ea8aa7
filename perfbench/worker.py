"""One fresh interpreter of a benchmark run.

    python3 worker.py WORKLOAD MODE OUTDIR

First times ``import ribaucour`` and the workload's one-time set-up, so
those numbers always come from a fresh process, and prints them as one
JSON line.  With MODE ``probe`` it stops there.  With ``warm`` or
``trace`` it then serves requests from ``run.py``, one JSON line in and
one out, so that ``run.py`` can spread its cold-start measurements
between batches of warm operations:

* ``{"do": "warmup"}``: one operation through ``ribaucour.cli.main``;
* ``{"do": "run", "seconds": S, "min_ops": M}``: operations, one at a
  time, until S seconds have passed and at least M have run.  In
  ``trace`` mode each untraced operation is followed by a traced replay
  (see ``replay.py``);
* ``{"do": "end"}``: peak RSS and, in ``trace`` mode, the spans; exit.

Outputs are hashed here and judged by ``run.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, run_setup


def digest(cmd, stdout: bytes, outdir: str) -> list[str]:
    """Hashes of a command's standard output and of each file it wrote."""
    hashes = [hashlib.sha256(stdout).hexdigest()]
    for name in cmd.files.values():
        with open(os.path.join(outdir, name), "rb") as fh:
            hashes.append(hashlib.sha256(fh.read()).hexdigest())
    return hashes


def run_op(cli_main, commands, outdir: str) -> dict:
    """Run one operation in this process; time it, then hash its outputs."""
    codes, outs = [], []
    t0 = time.perf_counter()
    try:
        for cmd in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli_main(cmd.argv(outdir))
                except SystemExit as exc:
                    code = exc.code
            codes.append(code)
            outs.append(buf.getvalue().encode())
    except Exception as exc:  # a raising command fails the operation
        return {"t": time.perf_counter() - t0, "codes": codes,
                "error": repr(exc)}
    elapsed = time.perf_counter() - t0
    return {"t": elapsed, "codes": codes,
            "digests": [digest(c, o, outdir) for c, o in zip(commands, outs)]}


class Server:
    """Answers ``run.py``'s requests with operations in this process."""

    def __init__(self, commands, outdir: str, traced: bool):
        from ribaucour.cli import main as cli_main

        self.cli_main = cli_main
        self.commands = commands
        self.outdir = outdir
        self.tracer = None
        self.replays = 0
        if traced:
            from replay import Tracer
            self.tracer = Tracer()

    def op(self) -> dict:
        return run_op(self.cli_main, self.commands, self.outdir)

    def replay(self) -> dict:
        from replay import replay_op

        self.tracer.op = self.replays
        self.replays += 1
        t0 = time.perf_counter()
        try:
            replay_op(self.tracer, self.commands, self.outdir)
        except Exception as exc:  # a raising layer fails the operation
            return {"t": time.perf_counter() - t0, "error": repr(exc)}
        return {"t": time.perf_counter() - t0}

    def run(self, seconds: float, min_ops: int) -> dict:
        ops, traced = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(ops) < min_ops:
            ops.append(self.op())
            if self.tracer:
                traced.append(self.replay())
        return {"ops": ops, "traced": traced}

    def end(self) -> dict:
        out = {"peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if self.tracer:
            for s, own in zip(self.tracer.spans, self.tracer.self_times()):
                s["self"] = own
            out["spans"] = self.tracer.spans
        return out


def main(argv: list[str]) -> int:
    name, mode, outdir = argv
    workload = WORKLOADS[name]

    t0 = time.perf_counter()
    import ribaucour
    t1 = time.perf_counter()
    sympy_loaded = "sympy" in sys.modules
    run_setup(workload, ribaucour)
    t2 = time.perf_counter()
    print(json.dumps({"module": ribaucour.__file__, "import_s": t1 - t0,
                      "setup_only_s": t2 - t1, "setup_s": t2 - t0,
                      "sympy_loaded": int(sympy_loaded)}), flush=True)
    if mode == "probe":
        return 0

    server = Server(workload.commands, outdir, traced=mode == "trace")
    for line in sys.stdin:
        req = json.loads(line)
        if req["do"] == "warmup":
            reply = server.op()
        elif req["do"] == "run":
            reply = server.run(req["seconds"], req["min_ops"])
        else:
            print(json.dumps(server.end()), flush=True)
            return 0
        print(json.dumps(reply), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
