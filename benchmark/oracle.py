"""Answer oracle for the benchmark, run outside the timed loop.

Splitting is checked with Kummer's theorem (Stichtenoth, *Algebraic
Function Fields and Codes*, Thm 3.3.7): scale the generator so the cubic
is integral at the place, reduce it into k(P) = F_q[x]/(P), and where the
reduced cubic has a nonzero discriminant count its roots in k(P): three
roots mean totally split, none means inert, and the place is unramified.
Elements of k(P) are polynomials mod P, so the oracle shares no code with
`placegeom`, `intbasis` or the residue-field tables of `polyrat`; it uses
only `FqPoly` and base-field arithmetic.

`report_problem` checks that one cfftool report has the keys, types and
readable values that the oracle reads; `check_op` then turns it into a
`Verdict`: the claims the oracle contradicts, and the number of checks it
cannot decide.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from cubicff import normalform as nf
from cubicff.errors import CubicFFError, ParseError
from cubicff.polyrat import FqPoly, RatFunc, poly_parse, rat_parse

INERT = "inert"
TOTALLY_SPLIT = "totally_split"

# regimes of --a, as cfftool reads the parameter
STANDARD = "standard"  # q = -1 mod 3, p != 3: X^3 - 3X - a
KUMMER = "kummer"  # q = 1 mod 3: X^3 - a
ARTIN_SCHREIER = "artin_schreier"  # p = 3: X^3 - X - a

# degree-1 places (plus infinity) tried when looking for a witness of
# irreducibility or of a non-Galois extension
WITNESS_PLACES = 8
# points x = c at which a raw cubic's substitution chain is replayed
REPLAY_POINTS = 3


def regime(F) -> str:
    if F.p == 3:
        return ARTIN_SCHREIER
    return KUMMER if F.q % 3 == 1 else STANDARD


def canonical_cubic(F, a: RatFunc):
    """(e, f, g) of the monic cubic X^3 + eX^2 + fX + g that --a denotes."""
    zero = RatFunc.zero(F)
    kind = regime(F)
    if kind == STANDARD:
        return zero, RatFunc.from_int(F, -3), -a
    if kind == ARTIN_SCHREIER:
        return zero, RatFunc.from_int(F, -1), -a
    return zero, zero, -a


# -- arithmetic in k(P) = F_q[x]/(P) -------------------------------------------


def _valuation(f: FqPoly, P: FqPoly) -> int:
    v = 0
    while True:
        quo, rem = f.divmod(P)
        if not rem.is_zero():
            return v
        f, v = quo, v + 1


def _inv_mod(u: FqPoly, P: FqPoly) -> FqPoly:
    g, s, _ = u.xgcd(P)
    if g.degree != 0:
        raise ZeroDivisionError("not invertible modulo the place")
    return s % P


def _residue(r: RatFunc, P: FqPoly, shift: int):
    """The image of r * P^shift in k(P), or None if it has a pole there."""
    if r.is_zero():
        return FqPoly.zero(r.field)
    vn, vd = _valuation(r.num, P), _valuation(r.den, P)
    v = vn - vd + shift
    if v < 0:
        return None
    if v > 0:
        return FqPoly.zero(r.field)
    num = r.num.divmod(P**vn)[0] % P
    den = r.den.divmod(P**vd)[0] % P
    return (num * _inv_mod(den, P)) % P


def _at_x_zero(r: RatFunc) -> RatFunc:
    """r(1/x): moves the infinite place to the place x."""
    F = r.field
    if r.is_zero():
        return r
    num = FqPoly(F, tuple(reversed(r.num.coeffs)))
    den = FqPoly(F, tuple(reversed(r.den.coeffs)))
    d = r.den.degree - r.num.degree
    xd = FqPoly.x(F) ** abs(d)
    return RatFunc(num * xd, den) if d >= 0 else RatFunc(num, den * xd)


def _reduced_cubic(cubic, place):
    """(P, [c0, c1, c2]) with T^3 + c2 T^2 + c1 T + c0 the reduction of the
    integrally scaled cubic X^3 + eX^2 + fX + g at the place."""
    e, f, g = cubic
    F = e.field
    if place is None:  # infinity
        e, f, g = (_at_x_zero(c) for c in (e, f, g))
        P = FqPoly.x(F)
    else:
        P = place
    # the smallest k with P^k * root integral: v(c_i) + i*k >= 0
    k = 0
    for i, c in ((1, e), (2, f), (3, g)):
        if not c.is_zero():
            v = _valuation(c.num, P) - _valuation(c.den, P)
            k = max(k, -(v // i))
    coeffs = [_residue(c, P, i * k) for i, c in ((3, g), (2, f), (1, e))]
    return P, coeffs


class _Cubic:
    """Arithmetic in k(P)[T] / (T^3 + c2 T^2 + c1 T + c0)."""

    def __init__(self, P, coeffs):
        self.P = P
        self.c = coeffs  # c0, c1, c2

    def mul(self, u, v):
        P, (c0, c1, c2) = self.P, self.c
        prod = [FqPoly.zero(P.field)] * 5
        for i in range(3):
            for j in range(3):
                prod[i + j] = prod[i + j] + u[i] * v[j]
        for top in (4, 3):  # T^3 = -(c2 T^2 + c1 T + c0)
            t = prod[top] % P
            prod[top - 1] = prod[top - 1] - t * c2
            prod[top - 2] = prod[top - 2] - t * c1
            prod[top - 3] = prod[top - 3] - t * c0
        return [prod[i] % P for i in range(3)]

    def power_of_t(self, n):
        F = self.P.field
        one, zero = FqPoly.one(F), FqPoly.zero(F)
        result, base = [one, zero, zero], [zero, one, zero]
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def discriminant(self):
        P = self.P
        F = P.field
        c0, c1, c2 = self.c

        def s(m, poly):
            return poly.scale(F.scalar(m))

        disc = (
            c2 * c2 * c1 * c1
            - s(4, c1 * c1 * c1)
            - s(4, c2 * c2 * c2 * c0)
            - s(27, c0 * c0)
            + s(18, c2 * c1 * c0)
        )
        return disc % P


def _poly_gcd_degree(P, a, b):
    """Degree of gcd(a, b) in k(P)[T]; polynomials are coefficient lists of
    k(P) elements, low degree first."""

    def trim(u):
        u = [c % P for c in u]
        while u and u[-1].is_zero():
            u.pop()
        return u

    a, b = trim(a), trim(b)
    while b:
        inv = _inv_mod(b[-1], P)
        while len(a) >= len(b):
            f = (a[-1] * inv) % P
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = a[shift + i] - f * bc
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def root_count(F, cubic, place):
    """(distinct roots of the reduced cubic in k(P), reduced discriminant is
    nonzero).  `place` is a monic irreducible FqPoly, or None for infinity."""
    P, coeffs = _reduced_cubic(cubic, place)
    ring = _Cubic(P, coeffs)
    good = not ring.discriminant().is_zero()
    if P.degree == 1:
        # k(P) = F_q: try every element
        c0, c1, c2 = (c.constant_code() if not c.is_zero() else 0 for c in coeffs)
        add, mul = F.add, F.mul
        roots = sum(1 for t in range(F.q) if add(mul(add(mul(add(t, c2), t), c1), t), c0) == 0)
        return roots, good
    # gcd of the cubic with T^|k(P)| - T, reduced mod the cubic
    tq = ring.power_of_t(F.q**P.degree)
    frob_minus_t = [tq[0], tq[1] - FqPoly.one(F), tq[2]]
    return _poly_gcd_degree(P, list(coeffs) + [FqPoly.one(F)], frob_minus_t), good


def splitting(F, cubic, place):
    """Kummer's theorem: TOTALLY_SPLIT, INERT, 'one_root' (a 1 + 2 split,
    impossible for a Galois cubic), or None where the reduced discriminant
    vanishes and the theorem does not decide."""
    roots, good = root_count(F, cubic, place)
    if not good:
        return None
    return {3: TOTALLY_SPLIT, 0: INERT, 1: "one_root"}[roots]


def witness_places(F, extra=()):
    """Infinity, the first degree-1 places, and any extra places."""
    out = [None]
    for c in range(min(F.q, WITNESS_PLACES)):
        out.append(FqPoly(F, [c, F.one]))
    return out + [p for p in extra if p not in out]


def proves_irreducible(F, cubic, places=None) -> bool:
    """A place where the reduced cubic has no root proves that the cubic
    has no root in F_q(x): a root would be integral and reduce to one."""
    return any(root_count(F, cubic, pl)[0] == 0 for pl in (places or witness_places(F)))


def proves_not_galois(F, cubic, places) -> bool:
    """A good place with exactly one root shows a 1 + 2 splitting, which a
    Galois cubic never has."""
    for pl in places:
        roots, good = root_count(F, cubic, pl)
        if good and roots == 1:
            return True
    return False


# -- checking one op -----------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking one op: `wrong` lists contradicted claims."""

    undecided: int = 0
    wrong: list = field(default_factory=list)

    def check(self, ok, claim):
        """ok is True, False, or None (undecided)."""
        if ok is None:
            self.undecided += 1
        elif not ok:
            self.wrong.append(claim)


def _parse_place(F, text):
    return None if text == "inf" else poly_parse(F, text).monic()


def _place_degree(F, text):
    return 1 if text == "inf" else poly_parse(F, text).degree


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _argv_places(argv):
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--place"]


def _check_splitting(v, F, cubic, claims):
    for text, claim in claims.items():
        truth = splitting(F, cubic, _parse_place(F, text))
        if truth is None:
            v.check(None, None)
        else:
            v.check(claim == truth, f"{text}: {claim} (oracle {truth})")


def _at_point(r: RatFunc, c):
    """r(c) as a constant rational function, or None at a pole."""
    F = r.field
    den = r.den.evaluate(c)
    return None if den == 0 else RatFunc.const(F, F.div(r.num.evaluate(c), den))


def _step_at(step, c):
    """A chain step with its constants evaluated at x = c, or None at a pole."""
    consts = {fld.name: _at_point(getattr(step, fld.name), c) for fld in dataclasses.fields(step)}
    return None if None in consts.values() else dataclasses.replace(step, **consts)


# each kind of substitution-chain step in a report: its class and constants
CHAIN_STEPS = {
    "moebius": (nf.MoebiusOnGenerator, ("c1", "c2", "c3", "c4")),
    "scale": (nf.Scale, ("c",)),
    "shift": (nf.Shift, ("c",)),
    "invert": (nf.Invert, ()),
}


def _parse_chain(F, chain):
    steps = []
    for step in chain:
        cls, keys = CHAIN_STEPS[step["op"]]
        steps.append(cls(*(rat_parse(F, step[k]) for k in keys)))
    return steps


def _replay(v, F, cubic, report):
    """Replay the reported substitution chain with `normalform.replay_chain`
    on a root of the input cubic: it must land on a root of the reported
    canonical polynomial.

    The replay runs at points x = c of F_q where the input, the chain and
    the canonical parameter have no pole, on the specialized cubic: x -> c
    is a ring map, so a true chain stays true at every such point, and a
    false one passes only where every coordinate of its residual vanishes.
    Exact replay over F_q(x) costs tens of milliseconds per op; this costs
    well under one.  A point where a chain step is not invertible is
    skipped; with no usable point the check is undecided."""
    canon = report["canonical"]
    steps = _parse_chain(F, canon["chain"])
    target = nf.CanonicalCubic(canon["variant"], rat_parse(F, canon["parameter"]), ())
    tested = 0
    for c in range(F.q):
        if tested == REPLAY_POINTS:
            break
        data = [_at_point(r, c) for r in (*cubic, *target.polynomial_coeffs())]
        local = [_step_at(step, c) for step in steps]
        if None in data or None in local:
            continue
        e, f, g, ce, cf, cg = data
        try:
            w = nf.replay_chain(nf.CubicInput(e, f, g), local)
        except CubicFFError:
            continue
        if not (((w + ce) * w + cf) * w + cg).is_zero():
            v.check(False, f"substitution chain does not reach a root of the canonical cubic at x = {c}")
            return
        tested += 1
    v.check(True if tested else None, None)


def _check_report(v, F, cubic, argv, report):
    """Internal consistency of an analyze report, and its answers against
    the place oracle."""
    extra = [_parse_place(F, t) for t in _argv_places(argv) if t != "inf"]
    places = witness_places(F, extra)
    irreducible = report["irreducible"]
    if irreducible:
        v.check(True if proves_irreducible(F, cubic, places) else None, None)
    else:
        v.check(not proves_irreducible(F, cubic, places), "reported reducible, a place has no root")
        return
    galois = report["galois"]
    # a 1 + 2 splitting anywhere refutes "Galois" and proves "not Galois"
    not_galois = proves_not_galois(F, cubic, places)
    if galois:
        v.check(not not_galois, "reported Galois, a place splits as 1 + 2")
    else:
        v.check(True if not_galois else None, None)
        return
    if "splitting" in report:
        _check_splitting(v, F, cubic, report["splitting"])
    ramified = report["ramified"]
    for entry in ramified:
        good = root_count(F, cubic, _parse_place(F, entry["place"]))[1]
        # a good reduction proves the place unramified
        v.check(None if not good else False, f"{entry['place']} reported ramified, oracle unramified")
    if report["constant_extension"]:
        v.check(report["genus"] == 0 and not ramified, "constant extension with genus or ramification")
        return
    # Riemann-Hurwitz for a degree-3 geometric extension of F_q(x)
    different = sum(r["diff_exponent"] * _place_degree(F, r["place"]) for r in ramified)
    v.check(different % 2 == 0 and report["genus"] == -2 + different // 2, "genus violates Riemann-Hurwitz")
    finite = sum(r["diff_exponent"] * _place_degree(F, r["place"]) for r in ramified if r["place"] != "inf")
    disc = rat_parse(F, report["integral_basis"]["discriminant"])
    v.check(
        disc.is_polynomial() and disc.num.degree == finite,
        "basis discriminant degree differs from the finite different",
    )


class Unreadable(Exception):
    """A report without a key, type or readable value that the oracle reads."""


def _get(obj, key, kind):
    value = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(value, kind):
        raise Unreadable(f"{key!r} is missing or not {kind.__name__}")
    return value


def _readable(parse, F, text):
    try:
        parse(F, text)
    except (ParseError, ValueError) as exc:  # the parsers raise both
        raise Unreadable(f"cannot read {text!r}: {exc}") from None


def _split_claims(argv, report):
    """A split report's claims: {place: splitting type}."""
    places = _argv_places(argv)
    return {places[0]: _get(report, "type", str)} if len(places) == 1 else _get(report, "splitting", dict)


def _read_claims(argv, claims):
    """One claim of type str for each place of the argv."""
    if set(claims) != set(_argv_places(argv)) or not all(isinstance(c, str) for c in claims.values()):
        raise Unreadable(f"splitting claims {claims!r} for places {_argv_places(argv)}")


def report_problem(fields, argv, code, report):
    """Why `check_op` cannot read this report, or None: every key it reads
    is there with its type, and every polynomial in them parses."""
    F = fields[int(_argv_value(argv, "--q"))]
    try:
        if code == 3:
            _get(_get(report, "error", dict), "name", str)
        elif argv[0] == "split":
            _read_claims(argv, _split_claims(argv, report))
        else:
            if "--a" not in argv:
                canon = _get(report, "canonical", dict)
                _get(canon, "variant", str)
                _readable(rat_parse, F, _get(canon, "parameter", str))
                for step in _get(canon, "chain", list):
                    op = _get(step, "op", str)
                    if op not in CHAIN_STEPS:
                        raise Unreadable(f"unknown chain step {op!r}")
                    for key in CHAIN_STEPS[op][1]:
                        _readable(rat_parse, F, _get(step, key, str))
            if _get(report, "irreducible", bool) and _get(report, "galois", bool):
                _read_claims(argv, _get(report, "splitting", dict) if _argv_places(argv) else {})
                for entry in _get(report, "ramified", list):
                    if _get(entry, "place", str) != "inf":
                        _readable(poly_parse, F, entry["place"])
                    _get(entry, "diff_exponent", int)
                _get(report, "genus", int)
                if not _get(report, "constant_extension", bool):
                    _readable(rat_parse, F, _get(_get(report, "integral_basis", dict), "discriminant", str))
    except Unreadable as exc:
        return str(exc)
    return None


def check_op(fields, argv, code, report) -> Verdict:
    """Check one op whose cfftool exit code was 0 or 3, and whose report
    `report_problem` can read."""
    v = Verdict()
    F = fields[int(_argv_value(argv, "--q"))]
    a_text = _argv_value(argv, "--a")
    if a_text is not None:
        cubic = canonical_cubic(F, rat_parse(F, a_text))
    else:
        cubic = tuple(rat_parse(F, _argv_value(argv, flag) or "0") for flag in ("--e", "--f", "--g"))
    if code == 3:
        # a violated hypothesis; a reducibility claim is checkable
        if report["error"]["name"] == "ReducibleInput":
            v.check(not proves_irreducible(F, cubic), "reported reducible, a place has no root")
        else:
            v.check(None, None)
        return v
    if argv[0] == "split":
        _check_splitting(v, F, cubic, _split_claims(argv, report))
        return v
    if a_text is None:
        _replay(v, F, cubic, report)
    _check_report(v, F, cubic, argv, report)
    return v
