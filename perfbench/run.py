"""widthlab benchmark: registered checks at acceptance size, in cold processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-n7 --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh interpreter with ``PYTHONPATH=src``, one at
a time, because every ``widthlab verify`` user pays the cold canonical
enumeration cost.  With ``--trace 0`` the run repeats the workload until
``--seconds`` is spent (at least once), adds set-up-only processes until it
has enough set-up times (see ``SETUP_SAMPLES``), and reports the medians of the
end-to-end metrics.  With ``--trace 1`` it runs the workload once untraced
and once with the per-layer wrappers of ``layers.py``, checks that both give
the same reports, and reports the per-layer metrics.

End-to-end times are in reference-speed seconds (see ``hostclock.py``):
the host's speed is probed in-process while the work runs, and the plain
wall times are printed on the summary line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
failed or errored instances plus each check whose instance count differs
from its acceptance count, so ``failed / attempted`` is the failure share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import metric_names
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up time is reported as a median over at least SETUP_SAMPLES cold
# set-ups, and over as many as fit in SETUP_SECONDS of set-up-only processes
# when set-up is cheap (a short import is the noisiest sample).
SETUP_SAMPLES = 3
SETUP_SECONDS = 3.0
# Every run must end within 180 s; no child may outlive this budget.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def _python(self, args: list[str]) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError("run budget exhausted")
        try:
            proc = subprocess.run(
                [sys.executable, *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildError(f"child {args} exceeded the run budget") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise ChildError(f"child {args} exited with code {proc.returncode}")
        return proc.stdout

    def warm_up(self) -> None:
        """Compile the package's bytecode so no timed import pays for it."""
        self._python(["-c", "import widthlab.checks"])

    def child(self, mode: str) -> dict:
        out = self._python([str(HERE / "child.py"), mode, self.workload, str(self.seed)])
        result = json.loads(out.splitlines()[-1])
        for check in result["checks"]:
            if check["instances_tested"] != check["expected"]:
                self.failed += 1
            if mode != "setup":
                self.attempted += check["instances_tested"]
                self.failed += len(check["failures"])
        return result


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    reps = [runner.child("full")]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
        reps.append(runner.child("full"))
    setups = [r["setup_s"] for r in reps]
    start = time.monotonic()
    while len(setups) < SETUP_SAMPLES or time.monotonic() - start < SETUP_SECONDS:
        setups.append(runner.child("setup")["setup_s"])
    print(
        f"{runner.workload}: {len(reps)} full repetitions, {len(setups)} set-ups; "
        f"wall_s {[round(r['wall_s'], 3) for r in reps]} "
        f"(raw {[round(r['raw_wall_s'], 3) for r in reps]}), "
        f"setup_s {[round(s, 3) for s in setups]}"
    )
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(r["solve_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def trace(runner: Runner) -> dict:
    plain = runner.child("full")
    traced = runner.child("trace")
    if traced["checks"] != plain["checks"]:
        print("traced reports differ from untraced reports", file=sys.stderr)
        runner.failed += 1
    if traced["missing"]:
        print(f"not traced, absent from widthlab: {traced['missing']}", file=sys.stderr)
    layers = traced["layers"]
    metrics = {
        name: (layers[name], "s" if name.endswith("_s") else "count") for name in metric_names()
    }
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.traced_wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    print(
        f"{runner.workload}: traced wall {traced['wall_s']:.3f} s, "
        f"untraced {plain['wall_s']:.3f} s"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "widthlab" / "__init__.py").is_file():
        print(f"no widthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    print(
        json.dumps(
            {
                "git_rev": git_rev(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "workload": args.workload,
                "seed": args.seed,
            }
        )
    )
    try:
        runner.warm_up()
        metrics = trace(runner) if args.trace else measure(runner, args.seconds)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
