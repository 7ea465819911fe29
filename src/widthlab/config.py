"""Solver budgets and default verification-suite sizes.

One source of truth for CI and laptop runs: the defaults below match the
acceptance suite, and a JSON file with the same keys can override any of
them (``widthlab verify --config settings.json``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    """Hard instance-size limits for the exact solvers."""

    # The exact tw, pw and td solvers under either kind, and the modulator
    # searches, whose every mask then fits the exact kernels.
    width_exact: int = 16
    pw_decision: int = 25
    td_decision: int = 30
    alpha_chromatic: int = 9
    cover_solvers: int = 30  # vc / fvs / oct branch and bound
    mwis_exact: int = 30
    oct_alpha: int = 20
    gamma_max_index: int = 5


@dataclass(frozen=True)
class SuiteParams:
    """Default family sizes for the registered verification checks."""

    chain_max_n: int = 7
    ramsey_max_n: int = 6
    sclaw_max_n: int = 3
    sclaw_random_n: int = 4
    sclaw_random_count: int = 20
    gamma_max_index: int = 3
    modulator_max_n: int = 6
    mwis_max_n: int = 7
    mwis_weight_seeds: int = 3
    mwis_random_count: int = 200
    mwis_random_max_n: int = 14
    mwis_bipartite_count: int = 200
    mwis_bipartite_max_n: int = 16
    mwis_weight_max: int = 100
    delta_star_min: int = 2
    delta_star_max: int = 8
    td_path_max_n: int = 15
    nk2_knn_max_n: int = 5
    alpha_chi_max_s: int = 5
    iso_max_n: int = 6
    iso_relabelings: int = 5
    default_seed: int = 20250810


DEFAULT_BUDGETS = Budgets()
DEFAULT_SUITE = SuiteParams()


def load_config(path: str) -> tuple[Budgets, SuiteParams]:
    """Read budget/suite overrides from a JSON object with optional
    ``budgets`` and ``suite`` sections.  Raises ValueError on a file that
    cannot be read, a key that names nothing, or a value that is not a
    non-negative integer (``default_seed`` may be any integer)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or set(data) - {"budgets", "suite"}:
            raise TypeError("expected a JSON object with optional 'budgets' and 'suite' sections")
        budgets = dataclasses.replace(DEFAULT_BUDGETS, **data.get("budgets", {}))
        suite = dataclasses.replace(DEFAULT_SUITE, **data.get("suite", {}))
        for section, values in (("budgets", budgets), ("suite", suite)):
            for key, value in dataclasses.asdict(values).items():
                if type(value) is not int:  # bool is an int subclass, never a size
                    raise TypeError(f"{section}.{key} must be an integer, got {value!r}")
                if value < 0 and key != "default_seed":
                    raise TypeError(f"{section}.{key} must be non-negative, got {value}")
    except (OSError, TypeError) as exc:
        raise ValueError(f"bad config {path}: {exc}") from None
    return budgets, suite
