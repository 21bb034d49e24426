"""Unit tests of the span reducer and the benchmark's metric definitions.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, reduce_spans, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make(*rows):
    """Spans from (name, start, end, parent) rows."""
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_nested_spans_subtract_only_direct_children():
    tree = make(("a", 0, 100, -1), ("b", 10, 60, 0), ("c", 20, 40, 1))
    assert self_times(tree) == [50, 30, 20]


def test_self_time_siblings():
    tree = make(("a", 0, 100, -1), ("b", 10, 30, 0), ("c", 50, 80, 0))
    assert self_times(tree) == [50, 20, 30]


def test_self_time_back_to_back_children():
    tree = make(("a", 0, 100, -1), ("b", 10, 40, 0), ("c", 40, 70, 0), ("d", 70, 100, 0))
    assert self_times(tree) == [10, 30, 30, 30]


def test_self_time_counts_overlapping_or_overhanging_children_once():
    tree = make(("a", 0, 100, -1), ("b", 10, 50, 0), ("c", 30, 70, 0), ("d", 90, 120, 0))
    assert self_times(tree)[0] == 100 - 60 - 10


def _newton_tree(iterations, trials_per_iteration, fd_columns):
    """A Newton span with the residual and Jacobian spans it would make."""
    tree = [Span("deterministic.newton_solve", 0, 0, -1, 0, iterations)]
    t = 0

    def add(name, parent):
        nonlocal t
        tree.append(Span(name, t, t + 1, parent, 0))
        t += 1
        return len(tree) - 1

    add(spans.RESIDUAL_SPAN, 0)
    for trials in trials_per_iteration:
        if fd_columns:
            jac = add(spans.FD_JACOBIAN_SPAN, 0)
            for _ in range(fd_columns):
                add(spans.RESIDUAL_SPAN, jac)
        else:
            add(spans.JACOBIAN_SPAN, 0)
        for _ in range(trials):
            add(spans.RESIDUAL_SPAN, 0)
    tree[0].end = t
    return tree


@pytest.mark.parametrize("fd_columns", [0, 7])
def test_halvings_from_span_counts(fd_columns):
    # Three iterations whose line searches took 3, 1 and 2 trials: 3 halvings.
    metrics = reduce_spans(_newton_tree(3, [3, 1, 2], fd_columns))
    assert metrics["solver.halvings"] == 3
    assert metrics["solver.fd_residual_evals"] == 3 * fd_columns
    assert metrics["solver.residual_evals"] == 1 + 6 + 3 * fd_columns
    assert metrics["solver.jacobian_evals"] == 3
    assert metrics["solver.line_search_accept_ratio"] == pytest.approx(3 / 6)


def _reference_halvings(F, x, jacobian, tol=1e-12, eps=1e-7):
    """Damped Newton for one unbatched system, counting step halvings."""
    x = np.asarray(x, dtype=float)
    Fx = F(x)
    norm = np.max(np.abs(Fx))
    halvings = 0
    while norm > tol:
        if jacobian is not None:
            J = jacobian(x)
        else:
            J = np.empty((x.size, x.size))
            for j in range(x.size):
                step = eps * (1.0 + abs(x[j]))
                xp = x.copy()
                xp[j] += step
                J[:, j] = (F(xp) - Fx) / step
        delta = np.linalg.solve(J, Fx)
        alpha = 1.0
        while True:
            candidate = x - alpha * delta
            Fc = F(candidate)
            cnorm = np.max(np.abs(Fc))
            if cnorm < norm or cnorm <= tol:
                break
            alpha /= 2.0
            halvings += 1
        x, Fx, norm = candidate, Fc, cnorm
    return halvings


@pytest.mark.parametrize("analytic", [True, False])
def test_halvings_match_the_solver(analytic):
    from svpark import deterministic, solver

    x0 = np.array([10.0, 3.0])
    jacobian = (lambda x: np.diag(1.0 / (1.0 + x * x))) if analytic else None
    expected = _reference_halvings(np.arctan, x0, jacobian)
    assert expected > 0
    tracer = Tracer()
    with spans.instrument(tracer):
        result = deterministic.newton_solve(np.arctan, x0, jacobian=jacobian)
    metrics = reduce_spans(tracer.spans)
    assert metrics["solver.halvings"] == expected
    assert metrics["solver.newton_iters"] == result.iterations
    assert metrics["solver.fd_residual_evals"] == (0 if analytic else 2 * result.iterations)
    assert deterministic.newton_solve is solver.newton_solve


def test_instrument_fails_loudly_on_a_missing_attribute(monkeypatch):
    from svpark import noise

    monkeypatch.delattr(noise, "increment_block")
    with pytest.raises(spans.CoverageError, match="noise.increment_block"):
        with spans.instrument(Tracer()):
            pass


def test_benchmark_json_matches_the_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    emitted = list(reduce_spans([])) + ["cli.bytes_written", "setup.import_s",
                                        "trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])
