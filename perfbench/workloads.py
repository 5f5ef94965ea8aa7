"""The benchmark's workloads: which CLI commands make up one operation.

An operation is a fixed sequence of ``ribaucour`` commands.  The inputs
never change; the seed only picks the sample points the output oracle
checks.  This module imports nothing beyond the standard library, so a
worker can load it before it times ``import ribaucour``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

# The deep-tree pair: eval_jet re-differentiates trees of up to ~940 nodes.
DEEP_PAIR = {"f1": "exp(z)/(1+z^2)", "f2": "sin(z)*cos(z)/(z+3)",
             "domain": "0.1:0.9:0.1:0.9", "nu": 161, "nv": 161}


@dataclass(frozen=True)
class Command:
    """One CLI command: subcommand, options, and the files it writes.

    ``files`` maps an option (``out``/``report``) to a file name inside
    the run's output directory.  ``samples`` is the grid the command
    requests (nu * nv).  ``oracle`` names an output file that the
    closed-form oracle checks, or is empty.
    """

    kind: str
    params: dict
    samples: int
    files: dict = field(default_factory=dict)
    oracle: str = ""

    def argv(self, outdir: str) -> list[str]:
        args = [self.kind]
        args += [f"--{k}={v}" for k, v in self.params.items()]
        args += [f"--{k}={outdir}/{name}" for k, name in self.files.items()]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # "pair": set-up is make_patch of the pair; "minimal": set-up is the
    # sympy derivation of both built-in minimal patches
    setup: str
    # warm operations per run: enough that op_tail_s (the highest
    # percentile with ten operations beyond it) is not an extreme of the run
    ops: int

    @property
    def samples_per_op(self) -> int:
        return sum(c.samples for c in self.commands)


WORKLOADS = {w.name: w for w in (
    Workload(
        # exercises eval_jet (Taylor-mode jets, dual jet reuse), and the
        # OBJ writer and report on the pair the oracle checks
        name="pair_deep",
        commands=(
            Command("build", DEEP_PAIR, 161 * 161,
                    files={"out": "pair_deep.obj",
                           "report": "pair_deep.json"},
                    oracle="out"),
            Command("dual", DEEP_PAIR, 161 * 161),
        ),
        setup="pair", ops=20),
    Workload(
        # no holoexpr work: sympy quadrature, RK4 march, FD envelope
        name="congruence",
        commands=(
            # the CLI's default 41 x 41 grid
            Command("congruence", {"minimal": "enneper"}, 41 * 41,
                    files={"report": "enneper.json"}),
            # step 0.005 on the default -1:1 domain gives 401 x 401 nodes
            Command("congruence", {"minimal": "catenoid", "mode": "integrate",
                                   "step": "0.005"}, 401 * 401,
                    files={"report": "catenoid.json"}),
        ),
        setup="minimal", ops=18),
)}


def run_setup(workload: Workload, ribaucour) -> None:
    """The workload's one-time set-up, timed as part of ``setup_s``."""
    if workload.setup == "pair":
        params = workload.commands[0].params
        ribaucour.make_patch(params["f1"], params["f2"],
                             ribaucour.Domain.parse(params["domain"]))
    else:
        # memoised per process in minimal._CACHE; analytic_example reuses it
        ribaucour.catenoid_patch()
        ribaucour.enneper_patch()
