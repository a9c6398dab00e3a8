"""Command-line front end: analyze a cubic extension of F_q(x) and emit a
deterministic JSON report, or run one focused subcommand.

Exit codes: 0 success, 2 parse error, 3 violated mathematical hypothesis.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import action as act
from . import galoiskit as gk
from . import intbasis as ib
from . import normalform as nf
from . import placegeom as pg
from . import ringops
from .errors import CubicFFError, ParseError, PreconditionError
from .gfq import make_field, make_field_q, _parse_modulus_text
from .polyrat import (
    Place,
    RatFunc,
    place_parse,
    poly_str,
    rat_parse,
    rat_str,
)

SCHEMA = "cubicff/1"


def _field_from_args(args):
    if args.q is not None:
        return make_field_q(args.q)
    if args.p is None:
        raise ParseError("provide --q or --p/--n")
    n = args.n or 1
    modulus = None
    if args.modulus:
        modulus = _parse_modulus_text(args.modulus, args.p, n)
    return make_field(args.p, n, modulus)


def _field_json(F):
    return {"p": F.p, "n": F.n, "q": F.q, "modulus": F.elem_str_modulus()}


def _chain_json(chain):
    out = []
    for step in chain:
        if isinstance(step, nf.MoebiusOnGenerator):
            out.append(
                {
                    "op": "moebius",
                    "c1": rat_str(step.c1),
                    "c2": rat_str(step.c2),
                    "c3": rat_str(step.c3),
                    "c4": rat_str(step.c4),
                }
            )
        elif isinstance(step, nf.Scale):
            out.append({"op": "scale", "c": rat_str(step.c)})
        elif isinstance(step, nf.Shift):
            out.append({"op": "shift", "c": rat_str(step.c)})
        else:
            out.append({"op": "invert"})
    return out


def _canonical_json(canon: nf.CanonicalCubic):
    return {
        "variant": canon.kind,
        "parameter": rat_str(canon.param),
        "chain": _chain_json(canon.chain),
    }


def _closure_json(desc: gk.ClosureDescriptor):
    return {"kind": desc.kind, "quadratic": str(desc.quadratic)}


def _ramified_json(rams):
    out = []
    for rp in rams:
        entry = {"place": str(rp.place), "diff_exponent": rp.diff_exponent}
        if rp.m is not None:
            entry["m"] = rp.m
        out.append(entry)
    return out


def _basis_json(basis: ib.IntegralBasis):
    gens = {"standard": "omega", "artin_schreier": "y", "kummer": "y"}
    elements = []
    for coords, den in basis.presentation:
        elements.append(
            {"num": [poly_str(c) for c in coords], "den": poly_str(den)}
        )
    aux = {k: poly_str(v) for k, v in basis.aux.items()}
    return {
        "family": basis.family,
        "generator": gens[basis.family],
        "generator_scale": poly_str(basis.generator_scale),
        "elements": elements,
        "aux": aux,
        "discriminant": rat_str(ib.basis_discriminant(basis)),
    }


def _action_json(canon: nf.CanonicalCubic):
    F = canon.field
    if canon.kind == nf.STANDARD:
        ad = act.galois_action(canon.param)
        ring = act.CubicRing.standard(canon.param)
        matrix = ad.matrix(ring)
        return {
            "type": "standard",
            "c2": rat_str(ad.c2),
            "c1": rat_str(ad.c1),
            "c0": rat_str(ad.c0),
            "f": rat_str(ad.f),
            "sigma_matrix": [[rat_str(v) for v in row] for row in matrix],
        }
    if canon.kind == nf.ARTIN_SCHREIER:
        return {"type": "artin_schreier", "sigma": "y -> y + 1"}
    # Kummer: sigma(y) = xi*y for the canonical primitive cube root of unity
    xi = next(c for c in range(1, F.q) if F.pow_(c, 3) == 1 and c != F.one)
    return {"type": "kummer", "sigma": "y -> xi*y", "xi": F.elem_str(xi)}


def _canonical_for_regime(F, a: RatFunc) -> nf.CanonicalCubic:
    """Interpret --a as the canonical parameter of the field's regime."""
    if F.p == 3:
        return nf.CanonicalCubic(nf.ARTIN_SCHREIER, a, ())
    if F.q % 3 == 1:
        return nf.CanonicalCubic(nf.PURELY_CUBIC, a, ())
    return nf.CanonicalCubic(nf.STANDARD, a, ())


def _working_canonical(canon: nf.CanonicalCubic, diagnostics):
    """Convert a Galois classification into the regime used for the place
    theory: Hasse-standardized Artin-Schreier (p = 3), standardized Kummer
    (q = 1 mod 3), or the standard form (q = -1 mod 3)."""
    F = canon.field
    if canon.kind == nf.CHAR3_SEPARABLE:
        asform = nf.char3_to_artin_schreier(canon)
        assert asform is not None
        canon = asform
    if canon.kind == nf.ARTIN_SCHREIER:
        std, w = nf.as_standardize_full(canon.param)
        if w.is_zero():
            return canon
        diagnostics.append("artin-schreier parameter standardized")
        chain = canon.chain + (nf.Shift(-w),)
        return nf.CanonicalCubic(nf.ARTIN_SCHREIER, std, chain)
    if canon.kind == nf.STANDARD and F.q % 3 == 1:
        wit = nf.purely_cubic_test(canon.param)
        assert wit is not None, "Galois over q = 1 mod 3 is purely cubic"
        diagnostics.append("standard form converted to a Kummer generator")
        canon = nf.CanonicalCubic(nf.PURELY_CUBIC, wit.b, ())
    if canon.kind == nf.PURELY_CUBIC and F.q % 3 == 1:
        std, c = nf.kummer_standardize_full(canon.param)
        if not c.is_one():
            diagnostics.append("kummer parameter standardized")
        return nf.CanonicalCubic(nf.PURELY_CUBIC, std, canon.chain)
    return canon


def _is_irreducible_canon(canon: nf.CanonicalCubic, diagnostics) -> bool:
    F = canon.field
    if canon.kind == nf.STANDARD and F.q % 3 == 2:
        try:
            res = gk.is_irreducible_standard(canon.param)
            diagnostics.append("irreducibility: norm-form cube criterion")
            return res
        except CubicFFError:
            diagnostics.append("irreducibility: rational-root search (no norm form)")
    else:
        diagnostics.append("irreducibility: rational-root search")
    return not ringops.cubic_has_rational_root(*canon.polynomial_coeffs())


def cli_analyze(args) -> dict:
    F = _field_from_args(args)
    diagnostics = []
    report = {"schema": SCHEMA, "field": _field_json(F)}
    if args.a is not None:
        a = rat_parse(F, args.a)
        canon = _canonical_for_regime(F, a)
        report["input"] = {"kind": "canonical", "a": rat_str(a)}
    elif args.e is not None or args.f is not None or args.g is not None:
        e = rat_parse(F, args.e or "0")
        f = rat_parse(F, args.f or "0")
        g = rat_parse(F, args.g or "0")
        report["input"] = {"kind": "cubic", "e": rat_str(e), "f": rat_str(f), "g": rat_str(g)}
        # normalize raises ReducibleInput unless its rational-root search
        # proves the cubic irreducible, so it is not checked again below
        canon = nf.normalize(nf.CubicInput(e, f, g))
        diagnostics.append("normalized from raw coefficients")
        diagnostics.append("irreducibility: rational-root search")
    else:
        raise ParseError("provide --a or --e/--f/--g")
    report["canonical"] = _canonical_json(canon)

    irreducible = args.a is None or _is_irreducible_canon(canon, diagnostics)
    report["irreducible"] = irreducible
    if not irreducible:
        report["galois"] = None
        report["diagnostics"] = diagnostics
        return report

    galois, closure = gk.is_galois(canon)
    report["galois"] = galois
    report["closure"] = _closure_json(closure)
    if not galois:
        report["constant_extension"] = False
        report["diagnostics"] = diagnostics
        return report

    work = _working_canonical(canon, diagnostics)
    report["working_form"] = _canonical_json(work)
    constant = gk.is_constant_extension(work)
    report["constant_extension"] = constant
    places = [place_parse(F, s) for s in (args.place or [])]
    if constant:
        report["ramified"] = []
        report["genus"] = 0
        diagnostics.append("constant extension: every place is unramified")
        splitting = {str(p): pg.splitting_type(work, p) for p in places}
    else:
        report["ramified"] = _ramified_json(pg.ramified_places(work))
        report["genus"] = pg.genus(work)
        splitting = {str(p): pg.splitting_type(work, p) for p in places}
    if places:
        report["splitting"] = splitting
    basis = _regime_basis(work)
    report["integral_basis"] = _basis_json(basis)
    report["action"] = _action_json(work)
    report["diagnostics"] = diagnostics
    return report


def _regime_basis(work: nf.CanonicalCubic) -> ib.IntegralBasis:
    if work.kind == nf.STANDARD:
        return ib.standard_integral_basis(work.param)
    if work.kind == nf.ARTIN_SCHREIER:
        return ib.as_integral_basis(work.param)
    return ib.kummer_integral_basis(work.param)


def cli_normalize(args) -> dict:
    F = _field_from_args(args)
    e = rat_parse(F, args.e or "0")
    f = rat_parse(F, args.f or "0")
    g = rat_parse(F, args.g or "0")
    canon = nf.normalize(nf.CubicInput(e, f, g))
    return {"schema": SCHEMA, "canonical": _canonical_json(canon)}


def cli_galois(args) -> dict:
    F = _field_from_args(args)
    if args.a is not None:
        canon = _canonical_for_regime(F, rat_parse(F, args.a))
    else:
        canon = nf.normalize(
            nf.CubicInput(
                rat_parse(F, args.e or "0"),
                rat_parse(F, args.f or "0"),
                rat_parse(F, args.g or "0"),
            )
        )
    galois, closure = gk.is_galois(canon)
    return {"schema": SCHEMA, "galois": galois, "closure": _closure_json(closure)}


def cli_irreducible(args) -> dict:
    F = _field_from_args(args)
    canon = _canonical_for_regime(F, rat_parse(F, args.a))
    diagnostics = []
    return {
        "schema": SCHEMA,
        "irreducible": _is_irreducible_canon(canon, diagnostics),
        "diagnostics": diagnostics,
    }


def cli_construct(args) -> dict:
    from .polyrat import poly_parse

    F = _field_from_args(args)
    A = poly_parse(F, args.A)
    B = poly_parse(F, args.B)
    a = gk.construct_galois_a(A, B)
    out = {"schema": SCHEMA, "a": rat_str(a)}
    try:
        wit = gk.galois_norm_witness(a)
        out["witness"] = {"A": poly_str(wit.A), "B": poly_str(wit.B), "scale": str(wit.scale)}
    except CubicFFError:
        pass
    return out


def cli_ramify(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    return {"schema": SCHEMA, "ramified": _ramified_json(pg.ramified_places(work))}


def cli_genus(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    return {"schema": SCHEMA, "genus": pg.genus(work)}


def cli_split(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    places = [place_parse(F, s) for s in (args.place or [])]
    if not places:
        raise ParseError("provide at least one --place")
    if len(places) == 1:
        return {"schema": SCHEMA, "type": pg.splitting_type(work, places[0])}
    return {
        "schema": SCHEMA,
        "splitting": {str(p): pg.splitting_type(work, p) for p in places},
    }


def cli_valuations(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    if work.kind != nf.STANDARD:
        raise ParseError("generator valuations are defined for the standard form")
    places = [place_parse(F, s) for s in (args.place or [])]
    if not places:
        raise ParseError("provide at least one --place")
    out = {}
    for p in places:
        gv = pg.generator_valuations(work.param, p)
        out[str(p)] = {
            "case": gv.case,
            "values": list(gv.values),
            "e": gv.e,
            "f": gv.f,
            "r": gv.r,
        }
    return {"schema": SCHEMA, "valuations": out}


def cli_basis(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    return {"schema": SCHEMA, "integral_basis": _basis_json(_regime_basis(work))}


def cli_action(args) -> dict:
    F = _field_from_args(args)
    work = _working_canonical(_galois_canonical(F, args), [])
    return {"schema": SCHEMA, "action": _action_json(work)}


def cli_equiv(args) -> dict:
    F = _field_from_args(args)
    a1 = rat_parse(F, args.a1)
    a2 = rat_parse(F, args.a2)
    if F.p == 3:
        res = act.as_same_field(a1, a2)
        if res is None:
            return {"schema": SCHEMA, "equivalent": False}
        j, b = res
        return {"schema": SCHEMA, "equivalent": True, "j": j, "b": rat_str(b)}
    if F.q % 3 == 1:
        res = act.kummer_same_field(a1, a2)
        if res is None:
            return {"schema": SCHEMA, "equivalent": False}
        j, c = res
        return {"schema": SCHEMA, "equivalent": True, "j": j, "c": rat_str(c)}
    pt = act.same_field_standard(a1, a2)
    if pt is None:
        return {"schema": SCHEMA, "equivalent": False}
    return {
        "schema": SCHEMA,
        "equivalent": True,
        "phi": rat_str(pt.phi),
        "chi": rat_str(pt.chi),
    }


def _galois_canonical(F, args) -> nf.CanonicalCubic:
    canon = _canonical_for_regime(F, rat_parse(F, args.a))
    return canon


def _add_field_flags(p):
    p.add_argument("--q", type=int, help="prime power q (deterministic modulus)")
    p.add_argument("--p", type=int, help="characteristic")
    p.add_argument("--n", type=int, help="extension degree over F_p")
    p.add_argument("--modulus", help="modulus polynomial in t, e.g. t^3+t+1")
    p.add_argument("--json", action="store_true", help="compact JSON output (default)")
    p.add_argument("--pretty", action="store_true", help="indented JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfftool",
        description="Exact analysis of cubic extensions of F_q(x): canonical "
        "forms, Galois structure, ramification, genus, splitting, integral bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full JSON report")
    _add_field_flags(pa)
    pa.add_argument("--a", help="canonical parameter for the field's regime")
    pa.add_argument("--e")
    pa.add_argument("--f")
    pa.add_argument("--g")
    pa.add_argument("--place", action="append", help="place to classify (repeatable)")
    pa.set_defaults(func=cli_analyze)

    pn = sub.add_parser("normalize", help="canonical form of a raw cubic")
    _add_field_flags(pn)
    pn.add_argument("--e")
    pn.add_argument("--f")
    pn.add_argument("--g")
    pn.set_defaults(func=cli_normalize)

    pgal = sub.add_parser("galois", help="Galois test and closure descriptor")
    _add_field_flags(pgal)
    pgal.add_argument("--a")
    pgal.add_argument("--e")
    pgal.add_argument("--f")
    pgal.add_argument("--g")
    pgal.set_defaults(func=cli_galois)

    pirr = sub.add_parser("irreducible", help="irreducibility of the canonical cubic")
    _add_field_flags(pirr)
    pirr.add_argument("--a", required=True)
    pirr.set_defaults(func=cli_irreducible)

    pc = sub.add_parser("construct", help="Galois parameter from a coprime pair")
    _add_field_flags(pc)
    pc.add_argument("--A", required=True)
    pc.add_argument("--B", required=True)
    pc.set_defaults(func=cli_construct)

    for name, fn, extra in (
        ("ramify", cli_ramify, ()),
        ("genus", cli_genus, ()),
        ("split", cli_split, ("place",)),
        ("valuations", cli_valuations, ("place",)),
        ("basis", cli_basis, ()),
        ("action", cli_action, ()),
    ):
        sp = sub.add_parser(name)
        _add_field_flags(sp)
        sp.add_argument("--a", required=True)
        if "place" in extra:
            sp.add_argument("--place", action="append")
        sp.set_defaults(func=fn)

    pe = sub.add_parser("equiv", help="generator equivalence")
    _add_field_flags(pe)
    pe.add_argument("--a1", required=True)
    pe.add_argument("--a2", required=True)
    pe.set_defaults(func=cli_equiv)

    return parser


@functools.cache
def _parser():
    """The parser of `main`, built once per process on first use (not at
    import, which stays cheap)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
    except ParseError as exc:
        print(json.dumps({"schema": SCHEMA, "error": {"name": type(exc).__name__, "message": str(exc)}}))
        return 2
    except PreconditionError as exc:
        print(
            json.dumps(
                {
                    "schema": SCHEMA,
                    "error": {
                        "name": type(exc).__name__,
                        "message": str(exc),
                        "hypothesis": exc.hypothesis,
                    },
                }
            )
        )
        return 3
    indent = 2 if args.pretty else None
    print(json.dumps(report, indent=indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
