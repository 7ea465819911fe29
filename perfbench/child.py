"""One cold repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py MODE WORKLOAD SEED

MODE is ``full`` (run every check of the workload), ``setup`` (``full``
cut short as each check's instance family is built) or ``trace`` (``full``
with the per-layer wrappers of ``layers.py`` installed).  ``src`` must be
on ``PYTHONPATH``.
Prints one JSON object on stdout.  Times are read from ``HostClock``, in
reference-speed seconds; ``raw_wall_s`` is the plain wall time.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from hostclock import HostClock
from workloads import checks_for


class FamilyBuilt(Exception):
    """Raised in ``setup`` mode once a check's instance family is built."""


def main() -> None:
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    plan = checks_for(workload, seed)

    raw_start = time.perf_counter()
    clock = HostClock()
    import widthlab.checks as wl

    setup_s = clock.now()
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.install(clock.now)

    # Family building is the part of run_check before the first fact is
    # evaluated; one wrapper around instances_for splits it out.
    build_instances = wl.instances_for
    family_s = 0.0

    def timed_instances_for(*args, **kwargs):
        nonlocal family_s
        begin = clock.now()
        try:
            family = build_instances(*args, **kwargs)
        finally:
            family_s += clock.now() - begin
        if mode == "setup":
            raise FamilyBuilt(len(family))
        return family

    wl.instances_for = timed_instances_for

    out: dict = {"checks": []}
    solve_s = 0.0
    for name, params, expected in plan:
        before = family_s
        begin = clock.now()
        try:
            report = wl.run_check(wl.CheckSpec(name, params))
        except FamilyBuilt as built:
            tested = built.args[0]
            out["checks"].append({"name": name, "instances_tested": tested, "expected": expected})
            continue
        solve_s += clock.now() - begin - (family_s - before)
        out["checks"].append({"expected": expected, **report.to_json(include_timing=False)})
    out["wall_s"] = clock.now()
    clock.stop()
    out["raw_wall_s"] = time.perf_counter() - raw_start
    out["setup_s"] = setup_s + family_s
    out["solve_s"] = solve_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.finish()
        out["missing"] = tracer.missing
    print(json.dumps(out))


if __name__ == "__main__":
    main()
