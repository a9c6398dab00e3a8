"""Internal machinery shared by the higher modules.

* CubicRing / RingElem: exact arithmetic in F_q(x)[y]/(T) for a monic cubic
  T, the verification backbone for substitution chains, Galois actions,
  generator transforms and integrality checks.
* Generic dense polynomials whose coefficients are RatFunc values (used for
  eliminations in y or in an auxiliary variable).
* 3x3 exact linear algebra over F_q(x).
* The rational roots of a cubic over F_q(x), by Newton lifting at a place
  where the discriminant does not vanish (the production root finder).
* Brute-force rational-root oracles for quadratics and cubics over F_q(x),
  independent of the norm-form theory and of the root finder they are used
  to check in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import gfq
from .errors import ReducibleInput, ZeroInput
from .polyrat import FqPoly, RatFunc, poly_cube_root, poly_sqrt

# -- generic polynomials over RatFunc coefficients --------------------------------


def rp_trim(cs):
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def rp_add(a, b):
    if not a:
        return list(b)
    if not b:
        return list(a)
    field = a[0].field
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else RatFunc.zero(field)
        y = b[i] if i < len(b) else RatFunc.zero(field)
        out.append(x + y)
    return rp_trim(out)


def rp_neg(a):
    return [-c for c in a]


def rp_mul(a, b):
    if not a or not b:
        return []
    field = a[0].field
    out = [RatFunc.zero(field) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return rp_trim(out)


def rp_divmod(a, b):
    if not b:
        raise ZeroInput("division by the zero polynomial")
    a = list(a)
    db = len(b) - 1
    inv = b[-1].inverse()
    if len(a) - 1 < db:
        return [], rp_trim(a)
    q = [RatFunc.zero(b[0].field)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if not c.is_zero():
            f = c * inv
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] = a[i - db + j] - f * b[j]
    return rp_trim(q), rp_trim(a[:db])


def rp_xgcd(a, b):
    field = (a or b)[0].field
    one, zero = [RatFunc.one(field)], []
    s0, s1, t0, t1 = one, zero, zero, one
    a, b = list(a), list(b)
    while b:
        q, r = rp_divmod(a, b)
        a, b = b, r
        s0, s1 = s1, rp_add(s0, rp_neg(rp_mul(q, s1)))
        t0, t1 = t1, rp_add(t0, rp_neg(rp_mul(q, t1)))
    return a, s0, t0


def rp_eval(a, v: RatFunc):
    field = v.field
    acc = RatFunc.zero(field)
    for c in reversed(a):
        acc = acc * v + c
    return acc


# -- 3x3 exact linear algebra ------------------------------------------------------


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def matinv3(m):
    d = det3(m)
    if d.is_zero():
        raise ZeroInput("singular matrix")
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            sub = [
                [m[r][c] for c in range(3) if c != j]
                for r in range(3)
                if r != i
            ]
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
            cof[j][i] = minor if (i + j) % 2 == 0 else -minor
    dinv = d.inverse()
    return [[cof[i][j] * dinv for j in range(3)] for i in range(3)]


def matmul3(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(3)), start=RatFunc.zero(a[0][0].field)) for j in range(3)]
        for i in range(3)
    ]


def matvec3(m, v):
    return [sum((m[i][k] * v[k] for k in range(3)), start=RatFunc.zero(v[0].field)) for i in range(3)]


def identity3(field):
    one, zero = RatFunc.one(field), RatFunc.zero(field)
    return [[one if i == j else zero for j in range(3)] for i in range(3)]


# -- the cubic quotient ring -------------------------------------------------------


class CubicRing:
    """F_q(x)[y] / (y^3 + e y^2 + f y + g)."""

    def __init__(self, e: RatFunc, f: RatFunc, g: RatFunc):
        self.field = e.field
        self.e, self.f, self.g = e, f, g
        zero = RatFunc.zero(self.field)
        # y^3 = r3, y^4 = r4 as coordinate rows (c0, c1, c2)
        self.r3 = (-g, -f, -e)
        self.r4 = (
            self.r3[2] * self.r3[0],
            self.r3[0] + self.r3[2] * self.r3[1],
            self.r3[1] + self.r3[2] * self.r3[2],
        )
        self.zero = RingElem(self, (zero, zero, zero))
        one = RatFunc.one(self.field)
        self.one = RingElem(self, (one, zero, zero))
        self.y = RingElem(self, (zero, one, zero))

    @staticmethod
    def standard(a: RatFunc):
        """The ring for y^3 - 3y - a = 0."""
        field = a.field
        return CubicRing(RatFunc.zero(field), RatFunc.from_int(field, -3), -a)

    @staticmethod
    def pure(b: RatFunc):
        """The ring for y^3 = b."""
        field = b.field
        zero = RatFunc.zero(field)
        return CubicRing(zero, zero, -b)

    @staticmethod
    def artin_schreier(a: RatFunc):
        """The ring for y^3 - y = a."""
        field = a.field
        return CubicRing(RatFunc.zero(field), RatFunc.from_int(field, -1), -a)

    def elem(self, c0, c1=None, c2=None):
        field = self.field
        conv = lambda v: (
            v
            if isinstance(v, RatFunc)
            else RatFunc(v)
            if isinstance(v, FqPoly)
            else RatFunc.from_int(field, v)
        )
        zero = RatFunc.zero(field)
        return RingElem(self, (conv(c0), conv(c1) if c1 is not None else zero, conv(c2) if c2 is not None else zero))

    def from_ratfunc(self, r: RatFunc):
        zero = RatFunc.zero(self.field)
        return RingElem(self, (r, zero, zero))

    def modulus_coeffs(self):
        return [self.g, self.f, self.e, RatFunc.one(self.field)]

    def same(self, other):
        return (
            isinstance(other, CubicRing)
            and self.e == other.e
            and self.f == other.f
            and self.g == other.g
        )


@dataclass(frozen=True)
class RingElem:
    """Residue class c0 + c1 y + c2 y^2 in a CubicRing."""

    ring: CubicRing
    coords: tuple  # (c0, c1, c2) RatFunc

    def _co(self, other):
        if isinstance(other, RingElem):
            assert self.ring.same(other.ring), "elements of different quotient rings"
            return other
        if isinstance(other, (RatFunc, FqPoly, int)):
            return self.ring.elem(other)
        return NotImplemented

    def __add__(self, other):
        other = self._co(other)
        return RingElem(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return RingElem(self.ring, tuple(-a for a in self.coords))

    def __sub__(self, other):
        other = self._co(other)
        return RingElem(self.ring, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._co(other)
        a, b = self.coords, other.coords
        ring = self.ring
        # degree-4 convolution
        p = [None] * 5
        for k in range(5):
            acc = None
            for i in range(max(0, k - 2), min(2, k) + 1):
                term = a[i] * b[k - i]
                acc = term if acc is None else acc + term
            p[k] = acc if acc is not None else RatFunc.zero(ring.field)
        c0, c1, c2 = p[0], p[1], p[2]
        if not p[3].is_zero():
            c0 = c0 + p[3] * ring.r3[0]
            c1 = c1 + p[3] * ring.r3[1]
            c2 = c2 + p[3] * ring.r3[2]
        if not p[4].is_zero():
            c0 = c0 + p[4] * ring.r4[0]
            c1 = c1 + p[4] * ring.r4[1]
            c2 = c2 + p[4] * ring.r4[2]
        return RingElem(self.ring, (c0, c1, c2))

    __rmul__ = __mul__

    def __pow__(self, k):
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self):
        ring = self.ring
        elem = rp_trim(list(self.coords))
        if not elem:
            raise ZeroInput("inverse of zero in quotient ring")
        g, s, _ = rp_xgcd(elem, ring.modulus_coeffs())
        if len(g) != 1:
            raise ReducibleInput("zero divisor: the defining cubic is reducible")
        ginv = g[0].inverse()
        zero = RatFunc.zero(ring.field)
        cs = [c * ginv for c in s] + [zero, zero]
        return RingElem(ring, tuple(cs[:3]))

    def __truediv__(self, other):
        other = self._co(other)
        return self * other.inverse()

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ring.same(other.ring)
            and all(a == b for a, b in zip(self.coords, other.coords))
        )

    def mult_matrix(self):
        """Matrix of multiplication by self on the basis (1, y, y^2); column j
        holds the coordinates of self * y^j."""
        ring = self.ring
        cols = [self, self * ring.y]
        cols.append(cols[1] * ring.y)
        return [[cols[j].coords[i] for j in range(3)] for i in range(3)]

    def trace(self):
        m = self.mult_matrix()
        return m[0][0] + m[1][1] + m[2][2]

    def norm(self):
        return det3(self.mult_matrix())

    def charpoly(self):
        """Coefficients (c0, c1, c2) of X^3 + c2 X^2 + c1 X + c0."""
        m = self.mult_matrix()
        tr = m[0][0] + m[1][1] + m[2][2]
        s2 = (
            (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            + (m[0][0] * m[2][2] - m[0][2] * m[2][0])
            + (m[0][0] * m[1][1] - m[0][1] * m[1][0])
        )
        return (-det3(m), s2, -tr)

    def eval_quadratic(self, c2: RatFunc, c1: RatFunc, c0: RatFunc):
        """c2*self^2 + c1*self + c0."""
        return (self * self) * c2 + self * c1 + self.ring.elem(c0)

    def __repr__(self):
        c0, c1, c2 = self.coords
        return f"RingElem({c0} + ({c1})*y + ({c2})*y^2)"


# -- rational roots by Newton lifting ------------------------------------------------


def cubic_has_rational_root(e: RatFunc, f: RatFunc, g: RatFunc) -> bool:
    """Does X^3 + e X^2 + f X + g have a root in F_q(x)?"""
    return bool(cubic_roots(e, f, g))


def cubic_roots(e: RatFunc, f: RatFunc, g: RatFunc) -> list:
    """The distinct roots in F_q(x) of X^3 + e X^2 + f X + g, sorted by key.

    With D the least common denominator of e, f, g, the substitution
    Y = D X gives the monic T(Y) = Y^3 + a2 Y^2 + a1 Y + a0 over F_q[x]
    (a2 = De, a1 = D^2 f, a0 = D^3 g), whose rational roots are polynomials
    of degree at most max(deg a2, deg a1 / 2, deg a0 / 3).  Those are found
    by Newton lifting at a place where disc(T) does not vanish, or in closed
    form when disc(T) = 0; every candidate is verified exactly.  Polynomial
    time, against the exponential divisor enumeration of
    `cubic_rational_roots`, which the tests keep as the reference.
    """
    den = e.den
    for d in (f.den, g.den):
        den = den * (d // den.gcd(d))
    a2 = e.num * (den // e.den)
    a1 = f.num * (den // f.den) * den
    a0 = g.num * (den // g.den) * den * den
    disc = a2 * a2 * a1 * a1 - 4 * a1**3 - 4 * a2**3 * a0 - 27 * a0 * a0 + 18 * a2 * a1 * a0
    if disc.is_zero():
        candidates = _repeated_root_candidates(a2, a1, a0)
    else:
        candidates = _lifted_root_candidates(a2, a1, a0, disc)
    roots = {y for y in candidates if (((y + a2) * y + a1) * y + a0).is_zero()}
    return sorted((RatFunc(y, den) for y in roots), key=RatFunc.key)


def _repeated_root_candidates(a2: FqPoly, a1: FqPoly, a0: FqPoly) -> list:
    """Every root in F_q[x] of T = Y^3 + a2 Y^2 + a1 Y + a0 with disc(T) = 0,
    among at most two candidates in closed form: the repeated root rho and
    the other root -a2 - 2 rho."""
    F = a2.field
    if F.p == 2:
        # disc = (a0 + a1 a2)^2, so T = (Y^2 + a1)(Y + a2): the repeated
        # root is the square root of a1, which may not be rational
        rho = poly_sqrt(a1)
        return [a2] if rho is None else [a2, rho]
    lead = 3 * a1 - a2 * a2
    if not lead.is_zero():
        # the root of the linear T mod T' for p > 3, of T' = a1 - a2 Y for p = 3
        rho = (a1 * a2 - 9 * a0) // (2 * lead)
    elif F.p == 3:
        # a2 = 0, and disc = -a1^3 forces a1 = 0: T = Y^3 + a0 is inseparable
        rho = poly_cube_root(-a0)
        return [] if rho is None else [rho]
    else:
        rho = a2.scale(F.neg(F.inv(F.scalar(3))))  # T = (Y - rho)^3
    return [rho, -a2 - 2 * rho]


def _lifted_root_candidates(a2: FqPoly, a1: FqPoly, a0: FqPoly, disc: FqPoly) -> list:
    """At most three polynomials among which are all the roots in F_q[x] of
    T = Y^3 + a2 Y^2 + a1 Y + a0, for disc(T) != 0.

    At a point c with disc(c) != 0 (in an extension of F_q when every point
    of F_q is a zero of disc), each root of T mod (x - c) is simple and
    lifts by Newton's iteration to the one root of T in K[[x - c]] that
    reduces to it; mod (x - c)^k with k past the degree bound, that series
    is the root itself when the root is a polynomial.
    """
    F = a2.field
    bound = max(
        (-(-a.degree // i) for i, a in ((1, a2), (2, a1), (3, a0)) if not a.is_zero()),
        default=0,
    )
    K, emb, c = _nonzero_point(disc)
    coeffs = [a if emb is None else a.map_coeffs(emb, K) for a in (a2, a1, a0)]
    coeffs = [_shift_variable(a, c) for a in coeffs]  # polynomials in t = x - c
    reduced = FqPoly(K, [a.constant_code() for a in reversed(coeffs)] + [K.one])
    out = []
    for r in reduced.roots():
        y = _shift_variable(_newton_lift(coeffs, r, bound + 1), K.neg(c))
        if emb is not None:
            codes = [emb.preimage(code) for code in y.coeffs]
            if None in codes:
                continue
            y = FqPoly(F, codes)
        out.append(y)
    return out


def _nonzero_point(disc: FqPoly):
    """(K, embedding of F_q into K or None, c) with c the first point of K
    where disc does not vanish; K is F_q itself, or else F_{q^s} for the
    smallest s that has such a point."""
    F = disc.field
    K, emb, s = F, None, 1
    while True:
        image = disc if emb is None else disc.map_coeffs(emb, K)
        c = next((c for c in range(K.q) if image.evaluate(c)), None)
        if c is not None:
            return K, emb, c
        s += 1
        K = gfq.make_field(F.p, F.n * s)
        emb = gfq.embed_field(F, K)


def _shift_variable(f: FqPoly, c) -> FqPoly:
    """f(x + c)."""
    if c == 0:
        return f
    K = f.field
    step = FqPoly(K, (c, K.one))
    acc = FqPoly.zero(K)
    for code in reversed(f.coeffs):
        acc = acc * step + FqPoly.const(K, code)
    return acc


def _newton_lift(coeffs, r, k) -> FqPoly:
    """The root mod t^k of Y^3 + a2 Y^2 + a1 Y + a0, coeffs = (a2, a1, a0)
    in K[t], that is r at t = 0; r must be a simple root there."""
    K = coeffs[0].field
    y, prec = FqPoly.const(K, r), 1
    while prec < k:
        prec = min(2 * prec, k)
        a2, a1, a0 = (_truncate(a, prec) for a in coeffs)
        value = _truncate((_truncate((y + a2) * y, prec) + a1) * y, prec) + a0
        slope = _truncate((3 * y + 2 * a2) * y, prec) + a1
        _, inverse, _ = slope.xgcd(FqPoly.one(K).shift(prec))  # slope is a unit mod t^prec
        y = y - _truncate(value * inverse, prec)
    return y


def _truncate(f: FqPoly, k) -> FqPoly:
    """f mod t^k."""
    return FqPoly(f.field, f.coeffs[:k])


# -- divisor enumeration (test oracle) ---------------------------------------------


def monic_divisors(f: FqPoly):
    """All monic divisors of a nonzero polynomial, in canonical order.

    Exponential in the number of factors: a test oracle, not for the
    production path.
    """
    fac = f.factor()
    primes = [(p, e) for p, e in fac]
    exps = [range(e + 1) for _, e in primes]
    divisors = []
    for combo in itertools.product(*exps):
        d = FqPoly.one(f.field)
        for (p, _), k in zip(primes, combo):
            d = d * p**k
        divisors.append(d)
    divisors.sort(key=lambda d: d.key())
    return divisors


# -- rational-root oracles (tests only) -------------------------------------------


def quadratic_rational_root(B: RatFunc, C: RatFunc):
    """A root in F_q(x) of X^2 + B X + C, by divisor enumeration; None if none.

    Test oracle: deliberately avoids square roots and Artin-Schreier solvers
    so it is independent of the criteria it checks.  Exponential; the
    production path never calls it.
    """
    field = B.field
    if C.is_zero():
        return RatFunc.zero(field)
    den = B.den * C.den
    c2 = den
    c1 = (B * RatFunc(den)).num  # polynomial by construction
    c0 = (C * RatFunc(den)).num
    q = field.q
    dens = monic_divisors(c2)
    nums = monic_divisors(c0)
    for d in dens:
        for m in nums:
            for u in range(1, q):
                n = m.scale(u)
                # c2 n^2 + c1 n d + c0 d^2 == 0
                val = c2 * n * n + c1 * n * d + c0 * d * d
                if val.is_zero():
                    return RatFunc(n, d)
    return None


def cubic_rational_roots(c3: RatFunc, c2: RatFunc, c1: RatFunc, c0: RatFunc):
    """Rational roots of c3 X^3 + c2 X^2 + c1 X + c0 over F_q(x).

    Test oracle: standard rational-root enumeration after clearing
    denominators; complete, but exponential in the number of factors of the
    extreme coefficients.  The reference `cubic_roots` is checked against;
    the production path never calls it.
    """
    field = c3.field
    den = c3.den * c2.den * c1.den * c0.den
    D = RatFunc(den)
    p3, p2, p1, p0 = [(c * D).num for c in (c3, c2, c1, c0)]
    roots = []
    q = field.q
    if p0.is_zero():
        roots.append(RatFunc.zero(field))
        # divide through by X: the quadratic's roots are r and -p2/p3 - r
        r = quadratic_rational_root(RatFunc(p2, p3), RatFunc(p1, p3))
        if r is not None:
            for cand in (r, -RatFunc(p2, p3) - r):
                if not any(cand == s for s in roots):
                    roots.append(cand)
        return roots
    for d in monic_divisors(p3):
        for m in monic_divisors(p0):
            for u in range(1, q):
                n = m.scale(u)
                val = p3 * n**3 + p2 * n * n * d + p1 * n * d * d + p0 * d**3
                if val.is_zero():
                    cand = RatFunc(n, d)
                    if not any(cand == s for s in roots):
                        roots.append(cand)
    return roots


def _lagrange_interpolate(K, points, values):
    """Interpolation over the FieldSpec K; returns an FqPoly over K."""
    result = FqPoly.zero(K)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        numer = FqPoly.const(K, yi)
        denom = K.one
        for j, xj in enumerate(points):
            if i == j:
                continue
            numer = numer * FqPoly(K, [K.neg(xj), K.one])
            denom = K.mul(denom, K.sub(xi, xj))
        result = result + numer.scale(K.inv(denom))
    return result


def standard_form_rational_root(a: RatFunc, combo_cap=6000):
    """A root in F_q(x) of X^3 - 3X - a, or None.

    Test oracle, independent of the norm-form criterion: a root n/d in
    lowest terms forces d^3 = den(a) (up to the monic normalization), so the
    denominator must be a perfect cube; the numerator branch is then found
    by evaluation at deg-bound + 1 sample points and interpolation of each
    root branch, falling back to divisor enumeration if the branch count
    explodes.  The production path never calls it.
    """
    field = a.field
    if a.is_zero():
        return RatFunc.zero(field)
    Q = a.den
    P = a.num
    g = poly_cube_root(Q)
    if g is None or g.lc() != field.one:
        return None
    gg = g * g
    # search n with n^3 - 3 n g^2 = P
    bound = max(g.degree, -(-P.degree // 3) if not P.is_zero() else 0)
    npoints = bound + 1
    s = 1
    while field.q**s < npoints:
        s += 1
    if s == 1:
        K, emb = field, None
        points = list(range(npoints))
    else:
        K = gfq.make_field(field.p, field.n * s)
        emb = gfq.embed_field(field, K)
        points = list(range(npoints))

    def lift_poly(f):
        return f if emb is None else f.map_coeffs(emb, K)

    Pk, ggk = lift_poly(P), lift_poly(gg)
    three = K.scalar(3)
    branch_roots = []
    total = 1
    for xi in points:
        gv = ggk.evaluate(xi)
        pv = Pk.evaluate(xi)
        cubic = FqPoly(K, [K.neg(pv), K.neg(K.mul(three, gv)), 0, K.one])
        rs = cubic.roots()
        if not rs:
            return None
        branch_roots.append(rs)
        total *= len(rs)
    if total <= combo_cap:
        for combo in itertools.product(*branch_roots):
            cand = _lagrange_interpolate(K, points, list(combo))
            if emb is not None:
                back = []
                ok = True
                for c in cand.coeffs:
                    pre = emb.preimage(c)
                    if pre is None:
                        ok = False
                        break
                    back.append(pre)
                if not ok:
                    continue
                cand = FqPoly(field, back)
            if cand * cand * cand - cand * gg.scale(three) == P:
                return RatFunc(cand, g)
        return None
    # fallback: the numerator divides P
    for m in monic_divisors(P):
        for u in range(1, field.q):
            n = m.scale(u)
            if n * n * n - n * gg.scale(three) == P:
                return RatFunc(n, g)
    return None
