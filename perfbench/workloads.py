"""The benchmark's workloads: registered checks at their acceptance sizes.

Each workload is a list of ``(check name, params, acceptance instance
count)``.  Exhaustive families take no seed; seeded checks receive the
benchmark's ``--seed`` as their ``seed`` param.  This module imports nothing
from ``widthlab`` so that a child process can read it before the timed
``import widthlab``.
"""

from __future__ import annotations

DEFAULT_SEED = 20250810


def checks_for(workload: str, seed: int) -> list[tuple[str, dict, int]]:
    """The checks a workload runs, in order, with their expected counts."""
    if workload == "chain-n7":
        return [("chain-inequality", {"max_n": 7}, 1252)]
    if workload == "substitution":
        return [
            ("sclaw-increment", {"seed": seed}, 27),
            ("gamma-witness", {"max_n": 3}, 3),
        ]
    if workload == "mwis-oct":
        return [("mwis-equivalence", {"seed": seed}, 4156)]
    if workload == "modulator-n6":
        return [
            ("modulator-identities", {"max_n": 6}, 208),
            ("modulator-slack", {"max_n": 6}, 6240),
            ("modulator-minimality", {"max_n": 6}, 624),
            ("delta-not-inheritable", {"q_min": 2, "q_max": 8}, 7),
        ]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("chain-n7", "substitution", "mwis-oct", "modulator-n6")
