"""Span and counter tracing installed from outside the package.

The tracer replaces public functions of ``asympoly`` with pass-through
wrappers at every module that imported them, so the package itself is
not modified.  Each wrapper records a span ``(name, start_ns, end_ns,
parent, op)`` in memory, timed on the process CPU clock like the
operations, and, where a layer has a natural unit of work,
adds to a counter.  Spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

#: Functions wrapped in a span: (defining module, attribute, span name).
SPAN_TARGETS = (
    ("asympoly.cli", "run", "cli.run"),
    ("asympoly.neutral_solver", "simulate", "neutral_solver.simulate"),
    ("asympoly.neutral_solver", "runtime", "neutral_solver.runtime"),
    ("asympoly.hypotheses", "theorem_dispatch", "hypotheses.theorem_dispatch"),
    ("asympoly.hypotheses", "check_g_p_bounded", "hypotheses.check_g_p_bounded"),
    ("asympoly.hypotheses", "check_u_rate", "hypotheses.check_u_rate"),
    ("asympoly.hypotheses", "polynomial_growth_check", "hypotheses.polynomial_growth_check"),
    ("asympoly.decomp", "decompose_solution", "decomp.decompose_solution"),
    ("asympoly.decomp", "extract_polynomial", "decomp.extract_polynomial"),
    ("asympoly.decomp", "regularity_check", "decomp.regularity_check"),
    ("asympoly.seqcore", "order_estimate", "seqcore.order_estimate"),
    ("asympoly.seqcore", "delta", "seqcore.delta"),
    ("asympoly.seqcore", "classify_oscillation", "seqcore.classify_oscillation"),
    ("asympoly.seqcore", "weighted_sum_diagnostic", "seqcore.weighted_sum_diagnostic"),
    ("asympoly.bihari", "bihari_bound", None),  # span named by route in install()
    ("asympoly.bihari", "adaptive_simpson", "bihari.adaptive_simpson"),
    ("asympoly.bihari", "worst_case_w", "bihari.worst_case_w"),
)

#: Catalog constructors, counted as catalog.make_calls (no span: they are
#: called a dozen times per operation and take microseconds).
MAKE_TARGETS = ("make_f", "make_g", "make_generator", "make_sigma")


class Tracer:
    """In-memory spans and exact work counters of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Pass-through wrapper recording one span per call.

        ``name`` is the span name, or a function of the call's arguments
        returning it.  ``after(result, *args, **kwargs)`` runs on return.
        """
        spans, stack = self.spans, self._stack
        clock = time.process_time_ns  # the clock of the operation latencies

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(*args, **kwargs)
                spans[idx] = (label, start, end, parent, self.op)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def count_calls(self, fn: Callable, key: str) -> Callable:
        """Pass-through wrapper adding one to counter ``key`` per call."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every target at each ``asympoly`` module that imported it.

        A target missing from its defining module is an error: a layer
        metric must not silently read zero because its function moved.
        """
        modules = [m for n, m in sys.modules.items() if n == "asympoly" or n.startswith("asympoly.")]
        catalog = sys.modules["asympoly.catalog"]

        def bound_name(prob: Any, *args: Any, **kwargs: Any) -> str:
            exact = isinstance(prob.g, catalog.Majorant)
            return "bihari.bound_exact" if exact else "bihari.bound_quadrature"

        def after_simulate(trace: Any, spec: Any, *args: Any, **kwargs: Any) -> None:
            # z holds m seed values; every other entry is one simulation step.
            self.counters["neutral_solver.steps"] += len(trace.z) - spec.m

        for module_name, attr, span in SPAN_TARGETS:
            orig = getattr(sys.modules[module_name], attr)
            hook = after_simulate if span == "neutral_solver.simulate" else None
            self._replace_everywhere(modules, attr, orig, self.wrap(orig, span or bound_name, hook))
        for attr in MAKE_TARGETS:
            orig = getattr(catalog, attr)
            self._replace_everywhere(modules, attr, orig, self.count_calls(orig, "catalog.make_calls"))

        cli = sys.modules["asympoly.cli"]
        config_cls = cli.ExperimentConfig
        config_cls.from_json = staticmethod(self.wrap(config_cls.from_json, "cli.from_json"))

        counters = self.counters
        seq_cls = sys.modules["asympoly.seqcore"].Seq
        seq_init = seq_cls.__init__

        @functools.wraps(seq_init)
        def counted_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            seq_init(obj, *args, **kwargs)
            counters["seqcore.seq_values_built"] += len(obj.values)

        seq_cls.__init__ = counted_init

        gen_cls = catalog.SeqGenerator
        gen_sample = gen_cls.sample

        @functools.wraps(gen_sample)
        def counted_sample(gen: Any, start: int, length: int) -> Any:
            counters["catalog.sample_values"] += length
            return gen_sample(gen, start, length)

        gen_cls.sample = counted_sample

    @staticmethod
    def _replace_everywhere(modules: list, attr: str, orig: Callable, new: Callable) -> None:
        for module in modules:
            if module.__dict__.get(attr) is orig:
                setattr(module, attr, new)

    def durations(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Total inclusive and self nanoseconds per span name, and call counts."""
        inclusive: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            calls[name] += 1
        return inclusive, self_ns, calls

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent index, op id."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer figures from the spans and counters of a run.

    ``_ms`` figures are milliseconds per operation, averaged over all
    operations of the run; ``_self_ms`` subtracts the time of child spans.
    Counters are per operation too.  A layer the workload never enters
    reads 0.
    """
    inclusive, self_ns, calls = tracer.durations()
    c = tracer.counters

    def ms(total_ns: int) -> float:
        return total_ns / 1e6 / ops

    return {
        "neutral_solver.simulate_ms": ms(inclusive["neutral_solver.simulate"]),
        "neutral_solver.steps": c["neutral_solver.steps"] / ops,
        "neutral_solver.runtime_builds": calls["neutral_solver.runtime"] / ops,
        "decomp.decompose_solution_ms": ms(inclusive["decomp.decompose_solution"]),
        "decomp.extract_polynomial_ms": ms(inclusive["decomp.extract_polynomial"]),
        "decomp.extract_polynomial_calls": calls["decomp.extract_polynomial"] / ops,
        "decomp.regularity_check_ms": ms(inclusive["decomp.regularity_check"]),
        "seqcore.order_estimate_ms": ms(inclusive["seqcore.order_estimate"]),
        "seqcore.order_estimate_calls": calls["seqcore.order_estimate"] / ops,
        "seqcore.delta_ms": ms(inclusive["seqcore.delta"]),
        "seqcore.classify_oscillation_ms": ms(inclusive["seqcore.classify_oscillation"]),
        "seqcore.weighted_sum_diagnostic_ms": ms(inclusive["seqcore.weighted_sum_diagnostic"]),
        "seqcore.seq_values_built": c["seqcore.seq_values_built"] / ops,
        "hypotheses.dispatch_self_ms": ms(self_ns["hypotheses.theorem_dispatch"]),
        "hypotheses.check_g_p_bounded_ms": ms(inclusive["hypotheses.check_g_p_bounded"]),
        "hypotheses.check_u_rate_ms": ms(inclusive["hypotheses.check_u_rate"]),
        "hypotheses.polynomial_growth_check_ms": ms(inclusive["hypotheses.polynomial_growth_check"]),
        "catalog.make_calls": c["catalog.make_calls"] / ops,
        "catalog.sample_values": c["catalog.sample_values"] / ops,
        "cli.from_json_ms": ms(inclusive["cli.from_json"]),
        "cli.run_self_ms": ms(self_ns["cli.run"]),
        "cli.bytes_written": c["cli.bytes_written"] / ops,
        "bihari.bound_quadrature_ms": ms(inclusive["bihari.bound_quadrature"]),
        "bihari.bound_exact_ms": ms(inclusive["bihari.bound_exact"]),
        "bihari.g_evals": c["bihari.g_evals"] / ops,
        "bihari.simpson_calls": calls["bihari.adaptive_simpson"] / ops,
        "bihari.worst_case_w_ms": ms(inclusive["bihari.worst_case_w"]),
    }


#: Counters that must repeat exactly across traced runs with one seed.
EXACT_COUNTERS = (
    "neutral_solver.steps",
    "neutral_solver.runtime_builds",
    "catalog.make_calls",
    "catalog.sample_values",
    "seqcore.seq_values_built",
    "bihari.g_evals",
    "bihari.simpson_calls",
    "cli.bytes_written",
    "decomp.extract_polynomial_calls",
    "seqcore.order_estimate_calls",
)
