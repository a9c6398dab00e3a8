import random

import pytest
from hypothesis import given, strategies as st

from cubicff import ringops as ro
from cubicff.errors import ReducibleInput
from cubicff.polyrat import RatFunc

from conftest import F, R, rand_ratfunc


def rand_elem(ring, field, rng):
    return ring.elem(
        rand_ratfunc(field, rng, 1, 1),
        rand_ratfunc(field, rng, 1, 1),
        rand_ratfunc(field, rng, 1, 1),
    )


@given(st.sampled_from([2, 3, 5, 8]), st.integers(0, 10**9))
def test_quotient_ring_laws(q, seed):
    Fq = F(q)
    rng = random.Random(seed)
    a = rand_ratfunc(Fq, rng, 1, 1, nonzero=True)
    ring = ro.CubicRing.standard(a)
    u, v, w = (rand_elem(ring, Fq, rng) for _ in range(3))
    assert ((u * v) * w - u * (v * w)).is_zero()
    assert (u * (v + w) - (u * v + u * w)).is_zero()
    assert ((u * v) - (v * u)).is_zero()
    assert (u * ring.one - u).is_zero()


def test_quotient_ring_inverse():
    F5 = F(5)
    ring = ro.CubicRing.standard(R(F5, "(2*x^2+1)/(x^2+2)"))
    rng = random.Random(17)
    for _ in range(5):
        u = rand_elem(ring, F5, rng)
        if u.is_zero():
            continue
        assert (u * u.inverse() - ring.one).is_zero()


def test_quotient_ring_detects_zero_divisors():
    F5 = F(5)
    # X^3 - 3X - 2 = (X - 2)(X + 1)^2 is reducible: y - 2 is a zero divisor
    ring = ro.CubicRing.standard(R(F5, "2"))
    with pytest.raises(ReducibleInput):
        (ring.y - ring.one * 2).inverse()


def test_charpoly_of_generator():
    F5 = F(5)
    a = R(F5, "(2*x^2+1)/(x^2+2)")
    ring = ro.CubicRing.standard(a)
    c0, c1, c2 = ring.y.charpoly()
    assert c2.is_zero() and c1 == R(F5, "-3") and c0 == -a
    assert ring.y.trace().is_zero()
    assert ring.y.norm() == a


def test_standard_form_root_oracle_extension_points():
    """Root reconstruction must work even when F_q is too small to supply
    the interpolation points (forces evaluation in an extension)."""
    F2 = F(2)
    # build a reducible parameter with a known root of numerator degree 3
    r = R(F2, "(x^3+x+1)/(x+1)")  # denominator is not a cube: no root
    assert ro.standard_form_rational_root(r) is None
    root = R(F2, "(x^3+x+1)/(x^3+x^2+1)")
    a = root**3 - 3 * root
    found = ro.standard_form_rational_root(a)
    assert found is not None
    assert found**3 - 3 * found == a


def _cubic(*factors):
    """(e, f, g) of X^3 + eX^2 + fX + g, the product of monic factors each
    given by its coefficients below the leading 1, low degree first."""
    one = RatFunc.one(factors[0][0].field)
    coeffs = [one]
    for fac in factors:
        coeffs = ro.rp_mul(coeffs, list(fac) + [one])
    g, f, e, _ = coeffs
    return e, f, g


def _reducible_cases(Fq, rng):
    """(name, (e, f, g), the roots built in) over Fq: reducible by
    construction with roots that have denominators, repeated roots, one
    random cubic, and the char-2 and char-3 degenerate shapes."""
    def rat():
        return rand_ratfunc(Fq, rng, 1, 1, nonzero=True)

    r1, r2, r3 = rat(), rat(), rat()
    s, t = rand_ratfunc(Fq, rng, 1, 0), rand_ratfunc(Fq, rng, 1, 0)
    cases = [
        ("three roots", _cubic((-r1,), (-r2,), (-r3,)), {r1, r2, r3}),
        ("root times quadratic", _cubic((-r1,), (t, s)), {r1}),
        ("random", _cubic(tuple(rand_ratfunc(Fq, rng, 1, 0) for _ in range(3))), set()),
        ("double root", _cubic((-r1,), (-r1,), (-r2,)), {r1, r2}),
        ("triple root", _cubic((-r3,), (-r3,), (-r3,)), {r3}),
    ]
    x = R(Fq, "x")
    if Fq.p == 2:
        # (X^2 + x)(X + r): x is not a square, so the double root is not rational
        cases.append(("char 2, non-square double root", _cubic((x, R(Fq, "0")), (r1,)), {r1}))
    if Fq.p == 3:
        cases.append(("char 3, inseparable cube", _cubic((-r2**3, R(Fq, "0"), R(Fq, "0"))), {r2}))
        cases.append(("char 3, inseparable non-cube", _cubic((-x, R(Fq, "0"), R(Fq, "0"))), set()))
    if Fq.q <= 3:
        # the roots 1 and x^q - x + 1 meet at every point of F_q, so disc
        # vanishes there and the lifting starts in an extension field
        r4 = R(Fq, f"x^{Fq.q}-x+1")
        cases.append(("disc vanishes on F_q", _cubic((R(Fq, "-1"),), (-r4,), (-r1,)), {R(Fq, "1"), r4, r1}))
    return cases


def test_cubic_rational_roots_complete(monkeypatch):
    """The Newton-lifting root finder finds exactly the roots that divisor
    enumeration finds, over every benchmark characteristic and regime."""
    F5 = F(5)
    r1, r2 = R(F5, "x"), R(F5, "(x+1)/(x+2)")
    # (X - r1)(X - r2)(X - r1) expanded
    e = -(r1 + r2 + r1)
    f = r1 * r2 + r1 * r1 + r2 * r1
    g = -(r1 * r2 * r1)
    roots = ro.cubic_rational_roots(RatFunc.one(F5), e, f, g)
    assert {str(r) for r in roots} == {str(r1), str(r2)}
    assert ro.cubic_roots(e, f, g) == sorted(roots, key=RatFunc.key)

    embedded = []  # (q, q^s) of each extension field the finder lifts in
    real = ro.gfq.embed_field
    monkeypatch.setattr(ro.gfq, "embed_field", lambda sub, sup: embedded.append((sub.q, sup.q)) or real(sub, sup))
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 125):
        Fq = F(q)
        for name, (e, f, g), built in _reducible_cases(Fq, random.Random(q)):
            # the oracle on integral coefficients: the monic cubic times the
            # common denominator D, so that it enumerates divisors of D only
            D = e.den
            for d in (f.den, g.den):
                D = D * (d // D.gcd(d))
            D = RatFunc(D)
            expected = ro.cubic_rational_roots(D, e * D, f * D, g * D)
            found = ro.cubic_roots(e, f, g)
            assert {str(r) for r in found} == {str(r) for r in expected}, (q, name)
            assert built <= set(found), (q, name)
            assert ro.cubic_has_rational_root(e, f, g) == bool(found)
    assert {(2, 4), (3, 9)} <= set(embedded)
