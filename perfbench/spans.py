"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded at svpark's module boundaries by temporarily replacing
module attributes with timing wrappers (``instrument``); nothing in svpark is
edited.  Each span records its name, start, end, parent and operation id,
plus one per-span quantity (Newton iterations, batch size or bytes).  Spans
stay in memory until the run ends; ``reduce_spans`` turns them into the
per-layer metrics and ``write_spans`` saves them.

Span names are "<module>.<attribute>" for wrapped attributes, "solver.residual"
and "solver.jacobian" for the callbacks handed to ``newton_solve``, and
"analysis.<study>" / "cli.run" for the operation-level spans the benchmark
opens around its own calls.
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

NEWTON_SPANS = ("deterministic.newton_solve", "model.newton_solve")
LEGENDRE_SPAN = "model.newton_solve"
RESIDUAL_SPAN = "solver.residual"
JACOBIAN_SPAN = "solver.jacobian"
FD_JACOBIAN_SPAN = "solver._fd_jacobian"
SCHUR_SPAN = "deterministic.schur_multiplier_solve"
REDUCTION_SPAN = "stochastic.reduced_drift_diffusion"
GENERATE_SPAN = "noise.increment_block"
COARSEN_SPANS = ("analysis.coarsen_array", "noise.coarsen_array")
SIMULATE_SPAN = "cli.simulate_path"
CLI_RUN_SPAN = "cli.run"
STUDY_SPANS = ("analysis.strong_error_study", "analysis.weak_error_study")

# The step functions the svpark.stochastic steppers dispatch to.
STEP_FUNCTIONS = (
    "rattle_step",
    "_vprk_core",
    "euler_a_with_projection",
    "euler_b_with_projection",
    "stochastic_variational_euler_step",
    "euler_maruyama_reference_step",
)
STEP_SPANS = tuple(f"stochastic.{name}" for name in STEP_FUNCTIONS)

# Counts that are a pure function of the inputs; two traced runs at one seed
# must agree on them exactly.
EXACT_COUNTS = (
    "solver.newton_iters",
    "solver.residual_evals",
    "solver.halvings",
    "solver.schur_calls",
    "stochastic.path_steps",
    "noise.bytes_generated",
)


class CoverageError(RuntimeError):
    """A wrapped attribute is missing, or a layer recorded no calls."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "n")

    def __init__(self, name, start, end, parent, op, n=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.n = n

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op, self.n]


class Tracer:
    """Collects nested spans from one thread; times are perf_counter_ns."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


# ---------------------------------------------------------------------------
# Wrappers


def _timed(tracer, name, fn, quantity=None):
    """Wrap ``fn`` in a span; ``quantity(args, kwargs, result)`` sets span.n."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if quantity is not None:
            tracer.spans[index].n = quantity(args, kwargs, result)
        return result

    return wrapper


def _newton(tracer, name, fn):
    """Span around newton_solve whose residual and Jacobian callbacks are
    wrapped too; span.n is the iteration count the solver reports."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["F"] = _timed(tracer, RESIDUAL_SPAN, bound.arguments["F"])
        jacobian = bound.arguments.get("jacobian")
        if jacobian is not None:
            bound.arguments["jacobian"] = _timed(tracer, JACOBIAN_SPAN, jacobian)
        index = tracer.open(name)
        try:
            result = fn(*bound.args, **bound.kwargs)
        finally:
            tracer.close(index)
        tracer.spans[index].n = result.iterations
        return result

    return wrapper


def _step(tracer, name, fn):
    """Span around one step call; span.n is the number of paths it advanced."""
    signature = inspect.signature(fn)

    def paths(args, kwargs, result):
        arguments = signature.bind(*args, **kwargs).arguments
        q = arguments["x"].q if "x" in arguments else arguments["q"]
        return q.size // q.shape[-1]

    return _timed(tracer, name, fn, paths)


def _bytes_in(tracer, name, fn):
    return _timed(tracer, name, fn, lambda args, kwargs, result: args[0].nbytes)


def _bytes_out(tracer, name, fn):
    return _timed(tracer, name, fn, lambda args, kwargs, result: result.nbytes)


# (module, attribute, wrapper factory)
WRAPPED = (
    ("svpark.deterministic", "newton_solve", _newton),
    ("svpark.model", "newton_solve", _newton),
    ("svpark.solver", "_fd_jacobian", _timed),
    ("svpark.deterministic", "schur_multiplier_solve", _timed),
    ("svpark.analysis", "coarsen_array", _bytes_in),
    ("svpark.noise", "coarsen_array", _bytes_in),
    ("svpark.noise", "increment_block", _bytes_out),
    ("svpark.stochastic", "reduced_drift_diffusion", _timed),
    *(("svpark.stochastic", name, _step) for name in STEP_FUNCTIONS),
    ("svpark.cli", "simulate_path", _timed),
)


def check_wrapped_attributes():
    """Raise CoverageError naming every wrapped attribute that is missing."""
    missing = []
    for module, attribute, factory in WRAPPED:
        fn = getattr(importlib.import_module(module), attribute, None)
        if not callable(fn):
            missing.append(f"{module}.{attribute}")
        elif factory is _newton:
            params = inspect.signature(fn).parameters
            missing += [
                f"{module}.{attribute}({p}=)" for p in ("F", "jacobian") if p not in params
            ]
    if missing:
        raise CoverageError(f"wrapped attributes missing: {', '.join(missing)}")


@contextmanager
def instrument(tracer):
    """Replace every attribute in WRAPPED by a span-recording wrapper."""
    check_wrapped_attributes()
    saved = []
    try:
        for module_name, attribute, factory in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            name = f"{module_name.rsplit('.', 1)[-1]}.{attribute}"
            setattr(module, attribute, factory(tracer, name, original))
        yield tracer
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics


def self_times(spans):
    """Per span: duration minus the part of it covered by its direct children.

    Children are clipped to the parent interval and their union is taken, so
    back-to-back or overlapping children are not subtracted twice.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for span, intervals in zip(spans, children):
        covered = 0
        cursor = span.start
        for start, end in sorted(intervals):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def reduce_spans(spans):
    """Per-layer metrics (seconds and counts) from one traced operation set.

    Each "_s" metric is also given as "_us_per_path_step", per path-step
    advanced by the traced steps.
    """
    own = self_times(spans)
    calls, total, self_ns, quantity = {}, {}, {}, {}
    for span, self_time in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0) + span.end - span.start
        self_ns[span.name] = self_ns.get(span.name, 0) + self_time
        quantity[span.name] = quantity.get(span.name, 0) + span.n

    def count(table, names):
        return sum(table.get(name, 0) for name in names)

    def seconds(table, names):
        return count(table, names) / 1e9

    newton_calls = count(calls, NEWTON_SPANS)
    newton_iters = count(quantity, NEWTON_SPANS)
    residual_evals = calls.get(RESIDUAL_SPAN, 0)
    fd_residual_evals = sum(
        1
        for span in spans
        if span.name == RESIDUAL_SPAN
        and span.parent >= 0
        and spans[span.parent].name == FD_JACOBIAN_SPAN
    )
    # Each Newton call evaluates F once up front; each iteration evaluates it
    # once per finite-difference column and once per line-search trial, and
    # every trial after the first is a halving.
    halvings = residual_evals - newton_calls - newton_iters - fd_residual_evals
    trials = newton_iters + halvings
    blocks = sum(
        1
        for span in spans
        if span.name == GENERATE_SPAN
        and span.parent >= 0
        and spans[span.parent].name in STUDY_SPANS
    )
    path_steps = count(quantity, STEP_SPANS)
    metrics = {
        "solver.newton_calls": newton_calls,
        "solver.newton_iters": newton_iters,
        "solver.newton_iters_per_call": newton_iters / newton_calls if newton_calls else 0.0,
        "solver.newton_self_s": seconds(self_ns, NEWTON_SPANS),
        "solver.schur_calls": calls.get(SCHUR_SPAN, 0),
        "solver.schur_s": seconds(total, (SCHUR_SPAN,)),
        "solver.residual_evals": residual_evals,
        "solver.residual_s": seconds(total, (RESIDUAL_SPAN,)),
        "solver.fd_residual_evals": fd_residual_evals,
        "solver.jacobian_evals": count(calls, (JACOBIAN_SPAN, FD_JACOBIAN_SPAN)),
        "solver.jacobian_s": seconds(self_ns, (JACOBIAN_SPAN, FD_JACOBIAN_SPAN)),
        "solver.halvings": halvings,
        "solver.line_search_accept_ratio": newton_iters / trials if trials else 0.0,
        "reduction.calls": calls.get(REDUCTION_SPAN, 0),
        "reduction.s": seconds(total, (REDUCTION_SPAN,)),
        "model.legendre_calls": calls.get(LEGENDRE_SPAN, 0),
        "model.legendre_s": seconds(total, (LEGENDRE_SPAN,)),
        "noise.generate_calls": calls.get(GENERATE_SPAN, 0),
        "noise.generate_s": seconds(total, (GENERATE_SPAN,)),
        "noise.bytes_generated": quantity.get(GENERATE_SPAN, 0),
        "noise.coarsen_calls": count(calls, COARSEN_SPANS),
        "noise.coarsen_s": seconds(total, COARSEN_SPANS),
        "noise.coarsen_bytes_in": count(quantity, COARSEN_SPANS),
        "stochastic.step_calls": count(calls, STEP_SPANS),
        "stochastic.path_steps": path_steps,
        "stochastic.step_s": seconds(total, STEP_SPANS),
        "stochastic.step_self_s": seconds(self_ns, STEP_SPANS),
        "stochastic.driver_self_s": seconds(self_ns, STUDY_SPANS + (SIMULATE_SPAN,)),
        "analysis.study_s": seconds(total, STUDY_SPANS),
        "analysis.blocks": blocks,
        "cli.run_s": seconds(total, (CLI_RUN_SPAN,)),
        "cli.self_s": seconds(self_ns, (CLI_RUN_SPAN,)),
    }
    for name in [name for name in metrics if name.endswith("_s") or name.endswith(".s")]:
        per_step = metrics[name] * 1e6 / path_steps if path_steps else 0.0
        metrics[name[: -len("s")] + "us_per_path_step"] = per_step
    return metrics


def write_spans(path, spans, extra):
    """Save spans as [name, start_ns, end_ns, parent, op, n] rows."""
    with open(path, "w") as handle:
        json.dump({**extra, "fields": ["name", "start_ns", "end_ns", "parent", "op", "n"],
                   "spans": [span.as_list() for span in spans]}, handle)
        handle.write("\n")
