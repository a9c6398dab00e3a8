"""Seeded input generators for the three benchmark workloads.

Every op is a `cfftool` argv list.  The stream of ops is a pure function of
the workload name and the seed: `OpStream(name, seed).take(n)` returns the
same list on every call, however the stream is consumed in batches.

Op cost depends mostly on the *shape* of an input (the base field, the
kind of parameter, the degrees of its polynomials, the degrees of the
places), much less on its coefficients.  So shapes are dealt from
balanced decks: the ten `q` values come in shuffled rounds, and for each
field every list of shapes below is dealt in a fresh shuffled order each
pass.  A run of any length then sees nearly the same mix of shapes; the
seed decides the order and every coefficient.

Inputs are built with `polyrat` polynomial arithmetic only, never with the
criteria under test: Galois parameters come from the norm-form formula,
and irreducibility of the reused `place_survey` extensions is proven with
the root-counting test of `oracle.py`.  No residue field, quadratic
extension or other cache of the library is touched here.

Every op of the timed loop must succeed, so no op is drawn from the
known-defect classes of the seed (see `place_degree_ok` and
`RAW_SHAPES_BY_REGIME`); `run.py` runs one fixed input of each class
(`KNOWN_DEFECTS`) outside the timed loop and reports what the program does with it.
"""

from __future__ import annotations

import random

from cubicff.gfq import make_field_q
from cubicff.polyrat import FqPoly, RatFunc, poly_str, rat_str

import oracle
from oracle import ARTIN_SCHREIER, KUMMER, STANDARD, canonical_cubic, regime

Q_VALUES = (2, 3, 4, 5, 7, 8, 9, 11, 32, 125)
WORKLOADS = ("analyze_mix", "raw_cubic", "place_survey")

# Galois parameter shapes of each regime:
#   standard: (deg A, deg B) of the coprime norm pair
#   kummer: (degree, exponent) of each distinct irreducible factor
#   artin_schreier: (degrees of the squarefree denominator's factors,
#                    pole order at infinity)
GALOIS_SHAPES = {
    STANDARD: [(0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
    KUMMER: [
        ((1, 1),),
        ((1, 2),),
        ((2, 1),),
        ((2, 2),),
        ((1, 1), (1, 1)),
        ((1, 1), (1, 2)),
        ((1, 1), (2, 1)),
        ((1, 2), (2, 1)),
    ],
    ARTIN_SCHREIER: [
        ((), 1),
        ((), 2),
        ((1,), 0),
        ((1,), 1),
        ((2,), 0),
        ((2,), 1),
        ((1, 1), 0),
        ((1, 1), 1),
    ],
}
# analyze_mix: half Galois, 30% random quotients, 20% reducible
ANALYZE_KINDS = ["galois"] * 5 + ["random"] * 3 + ["reducible"] * 2
# analyze_mix: the degrees of an op's places, every nonempty subset of {1, 2, 3}
PLACE_DEGREES = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
# (numerator, denominator) degrees of a random quotient
RANDOM_SHAPES = [(n, d) for n in range(3) for d in range(3)]
# (numerator, denominator) degrees of the rational root of a reducible cubic;
# a constant root would give a constant, often degenerate, parameter
ROOT_SHAPES = [(1, 0), (0, 1), (1, 1)]
# raw_cubic: degrees of e, f, g
RAW_SHAPES = [(de, df, dg) for de in range(3) for df in range(3) for dg in range(3)]
# raw_cubic: the degree patterns drawn in each regime of the base field.
# Where q = 1 mod 3 or p = 3, the brute-force rational-root search
# (ROADMAP item 3) runs for seconds on some inputs of the other patterns
# (20 draws of each pattern at q = 3, 4, 7 and 9: over 0.3 s at most for
# these, up to 2 s and beyond for the rest)
RAW_SHAPES_BY_REGIME = {
    STANDARD: RAW_SHAPES,
    KUMMER: [s for s in RAW_SHAPES if max(s) <= 1],
    ARTIN_SCHREIER: [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0)],
}
# place_survey: two sweep ops per deep op, deep places of degree 3-5.  A
# sweep classifies every degree-1 place of one extension in order, as
# scripts/survey_splitting.py does, plus infinity; where q > SWEEP_CHUNK it
# is issued as consecutive ops of at most SWEEP_CHUNK places on the same
# extension (q = 32: 4 ops of 8), since one op over all 32 places takes up to
# 0.5 s: such ops would be a ninth of all ops and set op_p90_ms on a cliff
SURVEY_KINDS = ["sweep", "sweep", "deep"]
DEEP_DEGREES = [3, 4, 5]
SWEEP_CHUNK = 10
POOL_PER_SHAPE = 2  # place_survey: extensions of each Galois shape per q
POOL_TRIES = 50  # draws per Galois shape when filling a place_survey pool


# Places of the known-defect classes are not drawn: where |k(P)| = 2 mod 3
# and p is odd, the closed-form splitting answers wrongly (ROADMAP item 1);
# a residue field, or its quadratic extension where |k(P)| = 2 mod 3,
# above 65536 elements is refused with exit 2 (item 5), and one above
# RESIDUE_LIMIT elements takes seconds to tabulate
RESIDUE_LIMIT = 1 << 14


def place_degree_ok(F, degree: int) -> bool:
    """Whether the places of this degree over F are outside the
    known-defect classes."""
    k = F.q**degree
    if k % 3 == 2 and F.p != 2:
        return False
    return (k * k if k % 3 == 2 else k) <= RESIDUE_LIMIT


def place_degrees(F, choices):
    """The items of `choices` (tuples of place degrees) whose every degree
    is outside the known-defect classes."""
    return [c for c in choices if all(place_degree_ok(F, d) for d in c)]


# -- random polynomials ------------------------------------------------------


def rand_poly(F, rng, deg, *, monic=False) -> FqPoly:
    """A polynomial of exactly this degree (degree 0: any nonzero constant)."""
    coeffs = [rng.randrange(F.q) for _ in range(deg)] + [F.one if monic else rng.randrange(1, F.q)]
    return FqPoly(F, coeffs)


def rand_irreducible(F, rng, deg) -> FqPoly:
    while True:
        f = rand_poly(F, rng, deg, monic=True)
        if f.is_irreducible():
            return f


def distinct_irreducibles(F, rng, degrees) -> list:
    """Distinct monic irreducibles, one of each listed degree."""
    while True:
        out = [rand_irreducible(F, rng, d) for d in degrees]
        if len(set(out)) == len(out):
            return out


def _degenerate_standard(a: RatFunc) -> bool:
    return a.is_zero() or (a * a - 4).is_zero()


# -- canonical parameters ----------------------------------------------------


def norm_pair_parameter(F, A: FqPoly, B: FqPoly) -> RatFunc:
    """The Galois standard parameter of a coprime pair (the norm-form
    construction): 2(A^2 - B^2/3)/(A^2 + B^2/3), or A^2/(A^2 + AB + B^2)
    in characteristic 2."""
    if F.p == 2:
        return RatFunc(A * A, A * A + A * B + B * B)
    third = F.inv(3 % F.p)
    return RatFunc((A * A - (B * B).scale(third)).scale(2 % F.p), A * A + (B * B).scale(third))


def galois_parameter(F, rng, shape) -> RatFunc:
    """A non-constant parameter of a Galois extension in the field's regime,
    of the given GALOIS_SHAPES shape."""
    kind = regime(F)
    while True:
        if kind == STANDARD:
            A, B = (rand_poly(F, rng, d) for d in shape)
            if A.gcd(B).degree != 0:
                continue
            a = norm_pair_parameter(F, A, B)
            if a.is_constant() or _degenerate_standard(a):
                continue
            return a
        if kind == KUMMER:
            # u * prod p_i^e_i over distinct monic irreducibles, e_i in {1, 2}
            num = FqPoly.const(F, rng.randrange(1, F.q))
            factors = distinct_irreducibles(F, rng, [d for d, _ in shape])
            for f, (_, e) in zip(factors, shape):
                num = num * f**e
            return RatFunc(num)
        # Artin-Schreier: squarefree denominator, pole orders 1 or 2
        den_degrees, pole_inf = shape
        den = FqPoly.one(F)
        for f in distinct_irreducibles(F, rng, den_degrees):
            den = den * f
        num = rand_poly(F, rng, den.degree + pole_inf)
        if num.gcd(den).degree != 0:
            continue
        return RatFunc(num, den)


def random_parameter(F, rng, shape) -> RatFunc:
    """A random quotient with numerator and denominator of the given
    degrees (often not Galois for the standard form)."""
    while True:
        a = RatFunc(rand_poly(F, rng, shape[0]), rand_poly(F, rng, shape[1]))
        if regime(F) == STANDARD and _degenerate_standard(a):
            continue
        return a


def reducible_parameter(F, rng, shape) -> RatFunc:
    """A parameter whose canonical cubic has a rational root r of the
    given shape."""
    while True:
        r = RatFunc(rand_poly(F, rng, shape[0]), rand_poly(F, rng, shape[1], monic=True))
        kind = regime(F)
        if kind == STANDARD:
            a = r * r * r - 3 * r  # r^3 - 3r - a = 0
            if _degenerate_standard(a):
                continue
        elif kind == KUMMER:
            a = r * r * r
        else:
            a = r * r * r - r
            if a.is_zero():
                continue
        return a


# -- workloads ---------------------------------------------------------------


class Deck:
    """Deals its items in a fresh shuffled order on every pass."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def deal(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _place_args(places):
    out = []
    for pl in places:
        out += ["--place", pl if isinstance(pl, str) else poly_str(pl)]
    return out


class OpStream:
    """The endless, deterministic op stream of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.fields = {q: make_field_q(q) for q in Q_VALUES}
        # place_survey has no op at q = 125: every place it would name there
        # is of a known-defect class
        self.rounds = Deck(self.rng, [q for q in Q_VALUES if workload != "place_survey" or self._survey_kinds(self.fields[q])])
        self.decks = {}
        self.pools = {}
        self.sweeps = {}  # q -> the ops left of the sweep in progress

    def deal(self, F, name, items):
        """The next item of this field's deck `name`."""
        key = (F.q, name)
        if key not in self.decks:
            self.decks[key] = Deck(self.rng, items)
        return self.decks[key].deal()

    def take(self, n: int) -> list:
        make = getattr(self, "_" + self.workload)
        return [make(self.fields[self.rounds.deal()]) for _ in range(n)]

    def _analyze_mix(self, F):
        kind = self.deal(F, "kind", ANALYZE_KINDS)
        if kind == "galois":
            a = galois_parameter(F, self.rng, self.deal(F, "galois", GALOIS_SHAPES[regime(F)]))
        elif kind == "random":
            a = random_parameter(F, self.rng, self.deal(F, "random", RANDOM_SHAPES))
        else:
            a = reducible_parameter(F, self.rng, self.deal(F, "root", ROOT_SHAPES))
        places = distinct_irreducibles(F, self.rng, self.deal(F, "places", place_degrees(F, PLACE_DEGREES)))
        if place_degree_ok(F, 1):
            places.append("inf")
        return ["analyze", "--q", str(F.q), "--a", rat_str(a), *_place_args(places)]

    def _raw_cubic(self, F):
        de, df, dg = self.deal(F, "raw", RAW_SHAPES_BY_REGIME[regime(F)])
        # e and f may vanish: a degree-0 coefficient is any constant
        e, f = (rand_poly(F, self.rng, d) if d or self.rng.randrange(F.q) else FqPoly.zero(F) for d in (de, df))
        g = rand_poly(F, self.rng, dg)
        return ["analyze", "--q", str(F.q), "--e", poly_str(e), "--f", poly_str(f), "--g", poly_str(g)]

    def _pool(self, F):
        """The reused extensions of one field, POOL_PER_SHAPE of each Galois
        shape, proven irreducible.  They are the same for every seed (the
        seed deals them and draws the places), so which extensions a run
        surveys does not move its figures."""
        if F.q not in self.pools:
            pool = []
            rng = random.Random(f"{self.workload}:pool:{F.q}")
            for shape in GALOIS_SHAPES[regime(F)] * POOL_PER_SHAPE:
                # small fields may have no new irreducible of a shape
                for _ in range(POOL_TRIES):
                    a = galois_parameter(F, rng, shape)
                    if a not in pool and oracle.proves_irreducible(F, canonical_cubic(F, a)):
                        pool.append(a)
                        break
            self.pools[F.q] = pool
        return self.pools[F.q]

    def _sweep(self, F):
        """The ops of one sweep: (extension, places) pairs."""
        a = self.deal(F, "extension", self._pool(F))
        lin = [FqPoly(F, [c, F.one]) for c in range(F.q)]
        n = -(-F.q // SWEEP_CHUNK)
        cuts = [F.q * i // n for i in range(n + 1)]
        chunks = [lin[cuts[i] : cuts[i + 1]] for i in range(n)]
        chunks[-1].append("inf")
        return [(a, chunk) for chunk in chunks]

    @staticmethod
    def _survey_kinds(F):
        """SURVEY_KINDS without the kinds whose places are all of a
        known-defect class over F."""
        ok = {"sweep": place_degree_ok(F, 1), "deep": any(place_degree_ok(F, d) for d in DEEP_DEGREES)}
        return [kind for kind in SURVEY_KINDS if ok[kind]]

    def _place_survey(self, F):
        if self.deal(F, "kind", self._survey_kinds(F)) == "sweep":
            if not self.sweeps.get(F.q):
                self.sweeps[F.q] = self._sweep(F)
            a, places = self.sweeps[F.q].pop(0)
        else:
            a = self.deal(F, "extension", self._pool(F))
            degree = self.deal(F, "deep", [d for d in DEEP_DEGREES if place_degree_ok(F, d)])
            places = [rand_irreducible(F, self.rng, degree)]
        return ["split", "--q", str(F.q), "--a", rat_str(a), *_place_args(places)]


# -- known defects -----------------------------------------------------------

# One fixed input of each known-defect class, run outside the timed loop so
# that every run says whether the defect still shows: (ROADMAP item, argv)
KNOWN_DEFECTS = [
    # item 1: every degree-1 place over F_11 of this irreducible Galois
    # extension comes out totally split; Kummer's theorem finds most inert
    (
        1,
        ["split", "--q", "11", "--a", "(9*x^4+9*x^3+3*x+9)/(x^4+x^3+4*x+9)"]
        + _place_args(["x"] + [f"x+{c}" for c in range(1, 11)] + ["inf"]),
    ),
    # item 3: the brute-force rational-root search runs far past the budget
    (3, ["analyze", "--q", "9", "--e", "x^2+1", "--f", "x^2+2*x+2", "--g", "x"]),
    # item 5: a degree-3 place over F_8 needs F_{8^6}, above the field-size cap
    (
        5,
        ["analyze", "--q", "8", "--a", "(x^2+(t^2))/(x^2+(t^2+t+1)*x+(t))"]
        + _place_args(["x^3+(t^2+t)*x^2+(t^2+t+1)*x+(t^2+t+1)"]),
    ),
]
