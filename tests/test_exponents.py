import random
from fractions import Fraction as F

import pytest

from circlekit.errors import DomainError
from circlekit.exponents import (
    ExponentTerm,
    balance,
    derive_delta,
    major_arc_terms,
    minor_arc_terms,
    reference_delta,
)

# Published saving exponents, written out independently of the library table.
PUBLISHED = {
    3: F(19, 60),
    4: F(5, 24),
    5: F(19, 140),
    6: F(25, 192),
    7: F(457, 4032),
}


def test_major_terms_count_and_structure():
    for k in range(3, 13):
        terms = major_arc_terms(k)
        assert len(terms) == 6
        tail = terms[0]
        assert tail.x_exp == F(3, 2) + F(1, k)
        assert tail.theta_coeff == -F(1, 2) - F(1, k)
    with pytest.raises(DomainError):
        major_arc_terms(2)


def test_major_first_term_value_k3():
    term = major_arc_terms(3)[0]
    assert term.exponent(F(2, 5)) == F(3, 2)  # 11/6 - (5/6)(2/5)


def test_minor_terms_by_case():
    assert [(t.x_exp, t.theta_coeff) for t in minor_arc_terms(3)] == [
        (F(7, 4) + F(1, 6), F(-1))
    ]
    assert {t.x_exp for t in minor_arc_terms(6)} == {F(5, 3), F(319, 192)}
    k7 = minor_arc_terms(7)
    assert (k7[1].x_exp, k7[1].theta_coeff) == (F(735, 448), F(-1, 2))
    k8 = minor_arc_terms(8)
    assert k8[1].x_exp == F(3, 2) + F(1, 8) - F(1, 896)
    assert k8[0].theta_coeff == -F(57, 112)  # (k^2-k+1)/(2k(k-1)) at k=8
    with pytest.raises(DomainError):
        minor_arc_terms(2)


@pytest.mark.parametrize("derive", [derive_delta, reference_delta])
def test_delta_refuses_k_below_3(derive):
    with pytest.raises(DomainError, match="k must be >= 3"):
        derive(2)


def test_balance_single_decreasing_term():
    theta, worst, binding = balance([ExponentTerm(F(1), F(-1), "t")], F(1, 3))
    assert theta == F(1, 3) and worst == F(2, 3) and binding == ("t",)


def test_balance_worked_example():
    terms = [
        ExponentTerm(F(11, 6), F(-5, 6), "a"),
        ExponentTerm(F(23, 12), F(-1), "b"),
    ]
    theta, worst, binding = balance(terms, F(2, 5))
    assert theta == F(2, 5)
    assert worst == F(91, 60)  # crossing at 1/2 is out of range; boundary binds
    assert binding == ("b",)


def test_balance_constant_terms_tie_break():
    terms = [ExponentTerm(F(1), F(0), "lo"), ExponentTerm(F(2), F(0), "hi")]
    theta, worst, binding = balance(terms, F(1, 2))
    assert theta == F(1, 2) and worst == F(2) and binding == ("hi",)


def test_balance_domain():
    with pytest.raises(DomainError):
        balance([], F(1, 2))
    with pytest.raises(DomainError):
        balance([ExponentTerm(F(1), F(0), "t")], F(0))


def test_balance_invariant_under_duplication_and_order():
    terms = major_arc_terms(3) + minor_arc_terms(3)
    theta, worst, _ = balance(terms, F(2, 5))
    shuffled = terms[:] + terms[:3]
    random.Random(0).shuffle(shuffled)
    theta2, worst2, _ = balance(shuffled, F(2, 5))
    assert (theta, worst) == (theta2, worst2)


def test_delta_table_exact():
    for k in range(3, 13):
        result = derive_delta(k)
        expected = PUBLISHED.get(k, F(1, k + 2) + F(1, 2 * k * k * (k - 1)))
        assert result.delta == expected, k
        assert result.delta == reference_delta(k)
        assert F(0) < result.theta_star <= F(2, k + 2)
        assert result.worst_exp < F(3, 2) + F(1, k)  # strictly below the main term


def test_delta_binding_structure_large_k():
    for k in range(8, 13):
        result = derive_delta(k)
        assert result.binding_terms == ("minor:smooth-x",)
