"""The benchmark's workloads: CLI invocations and model parameters made from the seed.

Each workload is a closed loop: one process makes one invocation after
another, waiting for each to finish.  The workload seed only picks the
perturbed-fence draw; every other parameter is fixed here, so the same seed
always gives the same inputs.
"""

from __future__ import annotations

WORKLOADS = ("bcurve_n1001", "order_n3001", "paths_eps")

AMPLITUDE = 0.1

# bcurve_n1001: 20 couplings over 0.05..1.0; the B peak of the fence sits near 1/pi.
BCURVE_GRID = ("0.05", "1.0", "0.05")
# order_n3001: weak to strong, crossing the transition near 1/pi; cold first solve.
ORDER_GRID = ("0.05", "2.0", "0.975")

# The compensated power law (r=1, t=4) at N=101 makes find_eps raise
# IncompleteSearchError (exit 3).  It stays in the workload so that the
# defect shows in the failure count; no other invocation is allowed to fail.
KNOWN_DEFECTS = {("paths_eps", "eps_powerlaw"): "find_eps IncompleteSearchError, power law r=1 t=4, N=101"}


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for one pass of the workload; the caller appends --out."""
    s = str(int(seed))
    fence = ["--amplitude", str(AMPLITUDE), "--seed", s]
    if workload == "bcurve_n1001":
        start, stop, step = BCURVE_GRID
        return [("bcurve", ["bcurve", "--n", "1001", *fence, "--phi", "0",
                            "--lambda-start", start, "--lambda-stop", stop, "--lambda-step", step,
                            "--jobs", "1"])]
    if workload == "order_n3001":
        start, stop, step = ORDER_GRID
        return [("order", ["order", "--n", "3001", *fence, "--phi", "0",
                           "--lambda-start", start, "--lambda-stop", stop, "--lambda-step", step,
                           "--jobs", "1"])]
    if workload == "paths_eps":
        return [
            ("fig1", ["fig1", "--jobs", "1"]),
            ("sweep", ["sweep", "--n", "15", *fence, "--jobs", "1"]),
            ("eps_n1001", ["eps", "--n", "1001", *fence, "--jobs", "1"]),
            ("eps_powerlaw", ["eps", "--n", "101", "--r", "1", "--t", "4", "--jobs", "1"]),
            ("loop", ["loop", "--jobs", "1"]),
        ]
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))


def models(workload: str, seed: int) -> dict:
    """The models the workload's invocations build, keyed by invocation label."""
    # imported here: run.py imports this module before it puts src/ on sys.path
    from ep_atlas.models import build_perturbed_fence, build_picket_fence, build_power_law, build_two_level

    if workload == "bcurve_n1001":
        return {"bcurve": build_perturbed_fence(1001, AMPLITUDE, seed)}
    if workload == "order_n3001":
        return {"order": build_perturbed_fence(3001, AMPLITUDE, seed)}
    if workload == "paths_eps":
        return {
            "fig1_n15": build_picket_fence(15),
            "fig1_n43": build_picket_fence(43),
            "sweep": build_perturbed_fence(15, AMPLITUDE, seed),
            "eps_n1001": build_perturbed_fence(1001, AMPLITUDE, seed),
            "eps_powerlaw": build_power_law(101, 1.0, 4.0),
            "loop": build_two_level(0.0, 1.0, 30.0),
        }
    raise ValueError("unknown workload %r (choose from %s)" % (workload, ", ".join(WORKLOADS)))
