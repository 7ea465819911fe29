"""Per-layer tracing, installed from outside the program.

``install()`` wraps the public functions of each ``widthlab`` module in
spans and the two hottest paths (``SubsetAlpha.__call__`` and
``FlowNetwork.max_flow``) in plain counters.  A wrapped function is replaced
in every ``widthlab`` module namespace that holds it: ``checks.py`` does
``from .widths import lambda_pathwidth``, so patching ``widths`` alone would
miss those calls.

A span's self time is its duration minus the time of the wrapped spans it
encloses.  Spans read the clock they are given, in the traced run the
reference-speed ``HostClock`` that also times ``wall_s``, so the self times
of all spans sum to the time spent inside ``run_check`` on that clock.  Time
in code that no span wraps lands in the nearest enclosing span; code called
directly by a check evaluator lands in ``checks.run_check``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from collections import Counter, defaultdict

# Span key -> (module, function names).  Several names under one key share
# one self-time total.
SPANS = {
    "graphs.canonical_form": ("graphs", ["canonical_form"]),
    "graphs.canonical_codes": ("graphs", ["_canonical_codes"]),
    "formats.from_graph6": ("formats", ["from_graph6"]),
    "formats.to_graph6": ("formats", ["to_graph6"]),
    "invariants.odd_cycle": ("invariants", ["odd_cycle"]),
    "widths.lambda_treewidth": ("widths", ["lambda_treewidth"]),
    "widths.lambda_pathwidth": ("widths", ["lambda_pathwidth"]),
    "widths.lambda_treedepth": ("widths", ["lambda_treedepth"]),
    "widths.lambda_pw_at_most": ("widths", ["lambda_pw_at_most"]),
    "widths.lambda_td_at_most": ("widths", ["lambda_td_at_most"]),
    "modulators.modulator_number": ("modulators", ["modulator_number"]),
    "modulators.rho_at_most": ("modulators", ["rho_at_most"]),
    "modulators.cover_solvers": (
        "modulators",
        [
            "vertex_cover_number",
            "feedback_vertex_number",
            "oct_number",
            "alpha_vertex_cover",
            "alpha_feedback_vertex",
        ],
    ),
    "mwis.find_oct_with_bounded_alpha": ("mwis", ["find_oct_with_bounded_alpha"]),
    "mwis.mwis_via_oct": ("mwis", ["mwis_via_oct"]),
    "mwis.mwis_bipartite": ("mwis", ["mwis_bipartite"]),
    "mwis.mwis_exact": ("mwis", ["mwis_exact"]),
    "checks.run_check": ("checks", ["run_check"]),
}

# Modules whose public functions form one span each, reported as one total.
WHOLE_MODULES = ("decomp", "constructions")

# Call counts reported as "<key>.calls".  Two more counts come from the
# SubsetAlpha wrappers: oracles built and memo entries left at their end.
CALLS = [
    "graphs.canonical_form",
    "graphs.induced",
    "graphs.graph_built",
    "formats.from_graph6",
    "formats.to_graph6",
    "invariants.subset_alpha",
    "invariants.odd_cycle",
    "widths.lambda_treewidth",
    "widths.lambda_pathwidth",
    "widths.lambda_treedepth",
    "widths.lambda_pw_at_most",
    "widths.lambda_td_at_most",
    "modulators.modulator_number",
    "modulators.rho_at_most",
    "mwis.find_oct_with_bounded_alpha",
    "mwis.mwis_via_oct",
    "mwis.mwis_bipartite",
    "mwis.mwis_exact",
    "mwis.max_flow",
]
# Self-time metric -> the span keys it sums.
SELF_TIMES = {
    "graphs.canonical_form.self_s": ["graphs.canonical_form"],
    "graphs.canonical_codes.self_s": ["graphs.canonical_codes"],
    "graphs.induced.self_s": ["graphs.induced"],
    "formats.self_s": ["formats.from_graph6", "formats.to_graph6"],
    "invariants.subset_alpha.self_s": ["invariants.subset_alpha"],
    "invariants.odd_cycle.self_s": ["invariants.odd_cycle"],
    "widths.lambda_treewidth.self_s": ["widths.lambda_treewidth"],
    "widths.lambda_pathwidth.self_s": ["widths.lambda_pathwidth"],
    "widths.lambda_treedepth.self_s": ["widths.lambda_treedepth"],
    "widths.lambda_pw_at_most.self_s": ["widths.lambda_pw_at_most"],
    "widths.lambda_td_at_most.self_s": ["widths.lambda_td_at_most"],
    "decomp.self_s": ["decomp"],
    "constructions.self_s": ["constructions"],
    "modulators.modulator_number.self_s": ["modulators.modulator_number"],
    "modulators.rho_at_most.self_s": ["modulators.rho_at_most"],
    "modulators.cover_solvers.self_s": ["modulators.cover_solvers"],
    "mwis.find_oct_with_bounded_alpha.self_s": ["mwis.find_oct_with_bounded_alpha"],
    "mwis.mwis_via_oct.self_s": ["mwis.mwis_via_oct"],
    "mwis.mwis_bipartite.self_s": ["mwis.mwis_bipartite"],
    "mwis.mwis_exact.self_s": ["mwis.mwis_exact"],
    "checks.run_check.self_s": ["checks.run_check"],
}
ORACLE_COUNTS = ["invariants.subset_alpha.oracles", "invariants.subset_alpha.memo_entries"]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports."""
    return [f"{key}.calls" for key in CALLS] + ORACLE_COUNTS + list(SELF_TIMES)


class Tracer:
    """Call counts and span self times, kept in memory for one process."""

    def __init__(self, clock):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.memo_entries = 0
        self.missing: list[str] = []
        # Child-span time of each open span; the bottom entry is the root.
        self._child = [0.0]
        self._finalizers: list[weakref.finalize] = []
        self._flushers: list = []

    def span(self, key: str, fn):
        calls, self_s, child, clock = self.calls, self.self_s, self._child, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - child.pop()
                child[-1] += elapsed
                calls[key] += 1

        return wrapper

    def counter(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def finish(self) -> dict[str, float | int]:
        """Flush the memo sizes of oracles still alive and return metrics."""
        for fin in self._finalizers:
            fin()
        self._finalizers.clear()
        for flush in self._flushers:
            flush()
        self._flushers.clear()
        out: dict[str, float | int] = {f"{key}.calls": self.calls[key] for key in CALLS}
        out["invariants.subset_alpha.oracles"] = self.calls["invariants.subset_alpha.oracles"]
        out["invariants.subset_alpha.memo_entries"] = self.memo_entries
        for name, keys in SELF_TIMES.items():
            out[name] = sum(self.self_s[k] for k in keys)
        return out

    def _add_memo(self, memo: dict):
        self.memo_entries += len(memo)


def _replace_everywhere(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "widthlab" and not name.startswith("widthlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(clock) -> Tracer:
    """Wrap the layer boundaries of the imported ``widthlab`` package.

    ``clock`` is a function returning seconds, read at each span's ends.
    """
    tracer = Tracer(clock)
    modules = {
        name: importlib.import_module(f"widthlab.{name}")
        for name in ("graphs", "formats", "invariants", "widths", "modulators",
                     "mwis", "checks", "decomp", "constructions")
    }
    graphs, invariants, mwis = modules["graphs"], modules["invariants"], modules["mwis"]

    for key, (module, names) in SPANS.items():
        for fn_name in names:
            original = getattr(modules[module], fn_name, None)
            if original is None:
                tracer.missing.append(f"{module}.{fn_name}")
                continue
            _replace_everywhere(original, tracer.span(key, original))
    for module in WHOLE_MODULES:
        mod = modules[module]
        for fn_name, original in list(vars(mod).items()):
            if (
                not fn_name.startswith("_")
                and callable(original)
                and getattr(original, "__module__", None) == mod.__name__
                and not isinstance(original, type)
            ):
                _replace_everywhere(original, tracer.span(module, original))

    _patch(tracer, graphs.Graph, "induced", lambda fn: tracer.span("graphs.induced", fn))
    _patch(tracer, graphs.Graph, "__post_init__",
           lambda fn: tracer.counter("graphs.graph_built", fn))
    _patch(tracer, mwis.FlowNetwork, "max_flow", lambda fn: tracer.counter("mwis.max_flow", fn))
    _wrap_oracle(tracer, invariants.SubsetAlpha)
    return tracer


def _patch(tracer: Tracer, cls: type, name: str, wrap) -> None:
    original = getattr(cls, name, None)
    if original is None:
        tracer.missing.append(f"{cls.__name__}.{name}")
    else:
        setattr(cls, name, wrap(original))


def _wrap_oracle(tracer: Tracer, oracle: type) -> None:
    """Count every SubsetAlpha call but time only the outermost ones.

    The recursion inside an oracle runs millions of times per workload, so
    a full span per call would dwarf the work it measures.  Counts live in
    closure variables and reach the tracer when it finishes.
    """
    plain_call, plain_init = oracle.__call__, oracle.__init__
    child, clock = tracer._child, tracer.clock
    calls = depth = oracles = 0
    spent = 0.0

    @functools.wraps(plain_call)
    def call(self, mask):
        nonlocal calls, depth, spent
        calls += 1
        if depth:
            return plain_call(self, mask)
        depth = 1
        child.append(0.0)
        start = clock()
        try:
            return plain_call(self, mask)
        finally:
            elapsed = clock() - start
            spent += elapsed - child.pop()
            child[-1] += elapsed
            depth = 0

    @functools.wraps(plain_init)
    def init(self, *args, **kwargs):
        nonlocal oracles
        plain_init(self, *args, **kwargs)
        oracles += 1
        memo = getattr(self, "memo", None)
        if memo is not None:
            tracer._finalizers.append(weakref.finalize(self, tracer._add_memo, memo))

    def flush():
        tracer.calls["invariants.subset_alpha"] += calls
        tracer.calls["invariants.subset_alpha.oracles"] += oracles
        tracer.self_s["invariants.subset_alpha"] += spent

    oracle.__call__ = call
    oracle.__init__ = init
    tracer._flushers.append(flush)
