from dataclasses import fields

import numpy as np
import pytest

import svpark as sv
from svpark.exceptions import NameNotFound

X0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.array([0.0, 0.3, 0.0]))


def test_c_recomputed_from_row_sums():
    t = sv.ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5])
    assert np.allclose(t.c, [0.0, 1.0], atol=1e-12)
    assert t.s == 2


def test_tableau_arrays_immutable():
    t = sv.ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.5, 0.5])
    with pytest.raises(ValueError):
        t.a[0, 0] = 1.0


def test_trapezoidal_tableau_admissible():
    t = sv.builtin_tableaux()["rattle_trapezoidal"]
    report = sv.check_admissibility(t)
    assert report.satisfied
    assert report.reasons == ()


def test_euler_a_tableau_rejected_for_zero_weight():
    t = sv.builtin_tableaux()["euler_a"]
    report = sv.check_admissibility(t)
    assert not report.satisfied
    assert any("b_2" in r for r in report.reasons)


def test_implicit_euler_rejected_for_nonzero_first_row():
    t = sv.builtin_tableaux()["implicit_euler"]
    report = sv.check_admissibility(t)
    assert not report.satisfied
    assert any("a_11" in r for r in report.reasons)


def test_check_is_pure_and_idempotent():
    t = sv.builtin_tableaux()["rattle_trapezoidal"]
    first = sv.check_admissibility(t)
    second = sv.check_admissibility(t)
    assert first == second


def test_tableaux_and_quadratures_compare_and_hash_by_their_coefficients():
    # The generated dataclass == compares the arrays elementwise, which
    # raises for equal but distinct instances, and arrays do not hash.
    trapezoid = sv.builtin_tableaux()["rattle_trapezoidal"]
    same = sv.tableau_from_config({"a": [[0.0, 0.0], [0.5, 0.5]], "b": [0.5, 0.5]})
    assert same is not trapezoid and same == trapezoid and hash(same) == hash(trapezoid)
    assert trapezoid != sv.builtin_tableaux()["lobatto_iiia_3"]
    assert trapezoid != sv.ButcherTableau(a=[[0.0, 0.0], [0.5, 0.5]], b=[0.25, 0.75])
    assert {trapezoid: "rattle"}[same] == "rattle"
    nu = sv.StochasticQuadrature(nu=[0.5, 0.5])
    assert nu == sv.StochasticQuadrature(nu=np.array([0.5, 0.5]))
    assert hash(nu) == hash(sv.StochasticQuadrature(nu=[0.5, 0.5]))
    assert nu != sv.StochasticQuadrature(nu=[0.5, 0.25, 0.25]) and nu != trapezoid


def test_admissibility_is_formed_once_and_left_out_of_eq_and_repr():
    t = sv.builtin_tableaux()["lobatto_iiia_3"]
    assert sv.check_admissibility(t) is t.admissibility
    assert "admissibility" not in repr(t)
    assert not {f.name: f.compare for f in fields(t)}["admissibility"]
    with pytest.raises(AttributeError):
        t.admissibility = sv.AdmissibilityReport(satisfied=False, reasons=("x",))


def test_a_vprk_step_runs_no_svd(pendulum, monkeypatch):
    # The admissibility report, with its condition number, is formed when the
    # tableau is built, not on every step.
    tab = sv.builtin_tableaux()["rattle_trapezoidal"]
    cond = np.linalg.cond
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted)
    x, dW = X0, np.array([0.01, -0.02, 0.03])
    for _ in range(5):
        x = sv.stochastic_vprk_step(pendulum, tab, None, x, dW, 0.01).state
    assert calls == []


def test_builtin_names_and_coefficients():
    tabs = sv.builtin_tableaux()
    assert set(tabs) == {"rattle_trapezoidal", "lobatto_iiia_3", "euler_a", "implicit_euler"}
    assert np.allclose(tabs["rattle_trapezoidal"].b, [0.5, 0.5])
    assert np.allclose(tabs["lobatto_iiia_3"].c, [0.0, 0.5, 1.0])
    assert sv.check_admissibility(tabs["lobatto_iiia_3"]).satisfied
    assert tabs["euler_a"].a[1, 0] == 1.0
    assert tabs["implicit_euler"].a[0, 0] == 1.0


def test_unknown_builtin_raises_name_not_found():
    with pytest.raises(NameNotFound):
        sv.builtin_tableaux()["missing"]


def test_tableau_from_config_inline_and_name():
    by_name = sv.tableau_from_config("rattle_trapezoidal")
    inline = sv.tableau_from_config({"a": [[0.0, 0.0], [0.5, 0.5]], "b": [0.5, 0.5]})
    assert np.array_equal(by_name.a, inline.a)
    assert np.array_equal(by_name.b, inline.b)


def test_conjugate_weights_structure():
    # The last stage's force never enters the internal momenta of a
    # stiffly accurate tableau, and the explicit first stage gives a zero
    # first row of the coupling product: that structure is what frees the
    # last multiplier for the end-of-step projection.
    t = sv.builtin_tableaux()["rattle_trapezoidal"]
    ahat = t.conjugate_weights()
    assert np.allclose(ahat[:, -1], 0.0, atol=1e-15)
    assert np.allclose((t.a @ ahat)[0], 0.0, atol=1e-15)
    assert abs((t.a @ ahat)[1, 0] - 0.5) < 1e-15


def test_non_square_a_rejected():
    with pytest.raises(ValueError, match=r"a must be square, got shape \(2, 3\)"):
        sv.ButcherTableau(a=[[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]], b=[0.5, 0.5])
    with pytest.raises(ValueError, match="a must have at least one stage"):
        sv.ButcherTableau(a=np.zeros((0, 0)), b=[])


@pytest.mark.parametrize(
    "a, b, reason",
    [
        ([[0.0, 0.0], [0.5, 0.5]], [0.25, 0.75], "a_s1 = 0.5 differs from b_1 = 0.25"),
        # a_s = b with b_1 + b_2 = 0 makes the 1 x 1 coupling b_1 (b_1 + b_2) zero.
        ([[0.0, 0.0], [1.0, -1.0]], [1.0, -1.0], "stage coupling matrix is numerically singular"),
    ],
    ids=["last-row-not-b", "singular-stage-coupling"],
)
def test_admissibility_rejects_last_row_and_singular_coupling(a, b, reason):
    report = sv.check_admissibility(sv.ButcherTableau(a=a, b=b))
    assert not report.satisfied
    assert any(reason in r for r in report.reasons), report.reasons


def test_tableau_from_config_passes_a_tableau_through():
    tableau = sv.builtin_tableaux()["lobatto_iiia_3"]
    assert sv.tableau_from_config(tableau) is tableau


@pytest.mark.parametrize(
    "a",
    [
        [[0.0, 1e-15], [0.5, 0.5]],
        [[-1e-14, 0.0], [0.5, 0.5]],
        [[0.0, 0.0], [0.5 + 1e-15, 0.5 - 5e-15]],
    ],
    ids=["a12", "a11-at-the-tolerance", "last-row"],
)
def test_near_admissible_entries_are_set_to_the_conditions(pendulum, a):
    # Within 1e-14 of a_1i = 0 and a_si = b_i the entries are set to those
    # values, so the inline tableau is the trapezoidal rule bit for bit and
    # its steps are the builtin's.
    trapezoidal = sv.builtin_tableaux()["rattle_trapezoidal"]
    near = sv.ButcherTableau(a=a, b=[0.5, 0.5])
    assert np.array_equal(near.a, trapezoidal.a) and np.array_equal(near.c, trapezoidal.c)
    assert not np.any(near.conjugate_weights()[:, -1])
    assert not np.any(near.noise_stage_weights()[:, -1])
    paths = sv.generate(3, 2, pendulum.num_noise, 8)
    ends = []
    for tableau in ({"a": a, "b": [0.5, 0.5]}, "rattle_trapezoidal"):
        method = {"method": "stochastic_vprk", "tableau": tableau}
        for result in sv.integrate(pendulum, method, X0, paths.increments, paths.h_base, 8):
            pass
        ends.append(np.concatenate([result.state.q, result.state.p]))
    assert np.array_equal(ends[0], ends[1])


def test_entries_beyond_the_tolerance_are_kept():
    tableau = sv.ButcherTableau(a=[[0.0, 1e-13], [0.5, 0.5 + 1e-13]], b=[0.5, 0.5])
    assert tableau.a[0, 1] == 1e-13 and tableau.a[1, 1] == 0.5 + 1e-13
    report = sv.check_admissibility(tableau)
    assert not report.satisfied and len(report.reasons) == 2
