"""Solver budgets, and the ``--config`` file that overrides them.

The budgets below are the hard instance-size limits of the exact solvers.
A JSON file (``widthlab verify --config settings.json``) can override any
budget in its ``budgets`` section, and any integer param of a registered
check in its ``checks`` section, keyed by check name; each check's own
defaults live in its ``checks.CHECKS`` record.
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


DEFAULT_BUDGETS = Budgets()


def _overrides(label: str, values, defaults: dict) -> dict:
    """``values`` when it sets only integer keys of ``defaults``, each to an
    integer that is non-negative unless the key is ``seed``; else TypeError."""
    keys = sorted(key for key, value in defaults.items() if type(value) is int)
    if not isinstance(values, dict) or set(values) - set(keys):
        raise TypeError(f"{label} may set only {', '.join(keys)}, got {values!r}")
    for key, value in values.items():
        if type(value) is not int:  # bool is an int subclass, never a size
            raise TypeError(f"{label}.{key} must be an integer, got {value!r}")
        if value < 0 and key != "seed":
            raise TypeError(f"{label}.{key} must be non-negative, got {value}")
    return values


def load_config(path: str, defaults: dict[str, dict]) -> tuple[Budgets, dict[str, dict]]:
    """Read a JSON object with optional ``budgets`` and ``checks`` sections.

    ``checks`` maps a check name, a key of ``defaults`` (each check's
    default params), to overrides of that check's integer params.  Returns
    the budgets and the overrides by check name.  Raises ValueError on a
    file that cannot be read or is not UTF-8 JSON, a section, check or key
    that names nothing, or a value that is not a non-negative integer (a
    ``seed`` may be any integer)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or set(data) - {"budgets", "checks"}:
            raise TypeError("expected a JSON object with optional 'budgets' and 'checks' sections")
        limits = _overrides("budgets", data.get("budgets", {}), dataclasses.asdict(DEFAULT_BUDGETS))
        checks = data.get("checks", {})
        if not isinstance(checks, dict):
            raise TypeError("checks must map check names to params")
        for name, params in checks.items():
            if name not in defaults:
                raise TypeError(f"unknown check {name!r}")
            _overrides(f"checks.{name}", params, defaults[name])
    except (OSError, TypeError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"bad config {path}: {exc}") from None
    return dataclasses.replace(DEFAULT_BUDGETS, **limits), checks
