"""Self-tests of the benchmark: deterministic inputs, and an oracle that
agrees with the library where it is known to be right and flags it where
it is known to be wrong.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from cubicff import galoiskit as gk  # noqa: E402
from cubicff import intbasis as ib  # noqa: E402
from cubicff import normalform as nf  # noqa: E402
from cubicff import placegeom as pg  # noqa: E402
from cubicff.gfq import make_field_q  # noqa: E402
from cubicff.polyrat import FqPoly, Place, poly_parse, poly_str  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_argv_list(workload):
    first = workloads.OpStream(workload, 5).take(40)
    stream = workloads.OpStream(workload, 5)
    in_batches = stream.take(15) + stream.take(25)
    assert first == in_batches
    assert first != workloads.OpStream(workload, 6).take(40)
    assert all(isinstance(a, str) for argv in first for a in argv)


def test_sweeps_visit_every_degree_one_place_in_order():
    # like scripts/survey_splitting.py, plus infinity; where q > SWEEP_CHUNK
    # a sweep is split into consecutive ops of at most SWEEP_CHUNK places
    sweeps = {}  # q -> the (a, places) ops of the sweep in progress
    complete = set()
    for argv in workloads.OpStream("place_survey", 2).take(400):
        places = [argv[i + 1] for i, a in enumerate(argv) if a == "--place"]
        if len(places) == 1 and places != ["inf"]:
            continue  # a deep op
        q = int(argv[2])
        assert len(places) <= workloads.SWEEP_CHUNK + 1
        ops = sweeps.setdefault(q, [])
        ops.append((argv[4], places))
        if places[-1] == "inf":
            F = make_field_q(q)
            assert [p for _, ps in ops for p in ps] == [poly_str(FqPoly(F, [c, F.one])) for c in range(q)] + ["inf"]
            assert len({a for a, _ in ops}) == 1
            complete.add(q)
            ops.clear()
    assert complete == {q for q in workloads.Q_VALUES if workloads.place_degree_ok(make_field_q(q), 1)}


def _place_degree(F, text):
    return 1 if text == "inf" else poly_parse(F, text).degree


@pytest.mark.parametrize("workload", ["analyze_mix", "place_survey"])
def test_workloads_draw_no_place_of_a_known_defect_class(workload):
    fields = {q: make_field_q(q) for q in workloads.Q_VALUES}
    seen = set()
    for argv in workloads.OpStream(workload, 4).take(600):
        F = fields[int(argv[2])]
        places = [argv[i + 1] for i, a in enumerate(argv) if a == "--place"]
        assert all(workloads.place_degree_ok(F, _place_degree(F, pl)) for pl in places), argv
        seen.add(F.q)
    # place_survey has no place outside the classes at q = 125
    assert seen == set(workloads.Q_VALUES) - ({125} if workload == "place_survey" else set())


def test_known_defect_probes_are_in_their_classes():
    probes = dict(workloads.KNOWN_DEFECTS)
    assert sorted(probes) == [1, 3, 5]
    for item in (1, 5):
        argv = probes[item]
        F = make_field_q(int(argv[2]))
        places = [argv[i + 1] for i, a in enumerate(argv) if a == "--place"]
        assert not any(workloads.place_degree_ok(F, _place_degree(F, pl)) for pl in places)
    argv = probes[3]
    F = make_field_q(int(argv[2]))
    shape = tuple(poly_parse(F, argv[argv.index(flag) + 1]).degree for flag in ("--e", "--f", "--g"))
    assert shape not in workloads.RAW_SHAPES_BY_REGIME[oracle.regime(F)]


def _irreducible_geometric_galois(F, rng, count):
    """Galois standard parameters proven irreducible and not constant."""
    out = []
    while len(out) < count:
        a = workloads.galois_parameter(F, rng, rng.choice(workloads.GALOIS_SHAPES[oracle.STANDARD]))
        canon = nf.CanonicalCubic(nf.STANDARD, a, ())
        if oracle.proves_irreducible(F, oracle.canonical_cubic(F, a)) and not gk.is_constant_extension(canon):
            out.append(a)
    return out


def _compare_degree_one(q, count):
    """(agree, disagree, undecided, oracle == split_via_order where decided)
    for the closed-form splitting at degree-1 places."""
    F = make_field_q(q)
    agree = disagree = undecided = 0
    order_agrees = True
    for a in _irreducible_geometric_galois(F, random.Random(q), count):
        canon = nf.CanonicalCubic(nf.STANDARD, a, ())
        basis = ib.standard_integral_basis(a)
        for c in range(F.q):
            P = FqPoly(F, [c, F.one])
            truth = oracle.splitting(F, oracle.canonical_cubic(F, a), P)
            if truth is None:
                undecided += 1
                continue
            closed = pg.splitting_type(canon, Place(P))
            agree += closed == truth
            disagree += closed != truth
            order_agrees &= pg.split_via_order(canon, basis, Place(P)) == truth
    return agree, disagree, undecided, order_agrees


def test_oracle_agrees_with_placegeom_over_f5():
    agree, disagree, _, order_agrees = _compare_degree_one(5, 8)
    assert disagree == 0 and agree >= 20
    assert order_agrees


def test_oracle_flags_the_q11_splitting_bug():
    # the closed form calls every unramified place over F_11 totally split
    agree, disagree, _, order_agrees = _compare_degree_one(11, 5)
    assert disagree > agree > 0
    assert order_agrees


def test_unreadable_reports_are_told_from_oracle_faults():
    fields = {5: make_field_q(5)}
    argv = ["split", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)", "--place", "x+1", "--place", "inf"]
    report = {"schema": "cubicff/1", "splitting": {"x+1": "inert", "inf": "totally_split"}}
    assert oracle.report_problem(fields, argv, 0, report) is None
    assert not oracle.check_op(fields, argv, 0, report).wrong
    for bad in ({"splitting": {"x+2": "inert"}}, {"splitting": ["inert"]}, {"type": "inert"}, []):
        assert oracle.report_problem(fields, argv, 0, bad) is not None
    raw = ["analyze", "--q", "5", "--e", "x", "--f", "1", "--g", "x"]
    chain = [{"op": "scale", "c": "x^"}]
    canonical = {"variant": "StandardForm", "parameter": "x", "chain": chain}
    assert oracle.report_problem(fields, raw, 0, {"canonical": canonical}) is not None


def test_oracle_counts_roots_at_infinity_and_higher_degree():
    F = make_field_q(7)
    x = FqPoly.x(F)
    one = FqPoly.one(F)
    # X^3 - x: ramified at x and infinity; at x - 1 the roots are the cube
    # roots of unity of F_7 (7 = 1 mod 3), so the place splits
    cubic = oracle.canonical_cubic(F, oracle.RatFunc(x))
    assert oracle.splitting(F, cubic, None) is None
    assert oracle.splitting(F, cubic, x) is None
    assert oracle.splitting(F, cubic, x - one) == oracle.TOTALLY_SPLIT
    # 3 is not a cube mod 7, so x - 3 is inert
    assert oracle.splitting(F, cubic, x - one.scale(3)) == oracle.INERT
    P3 = FqPoly(F, [2, 0, 0, 1])  # x^3 + 2, irreducible over F_7
    assert P3.is_irreducible()
    roots, good = oracle.root_count(F, cubic, P3)
    assert good and roots in (0, 3)


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "raw_cubic", "--seed", "3", "--seconds", "1"],
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    names = {m["name"] for m in json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))["end_to_end"]}
    assert set(result["metrics"]) == names


def test_trace_metrics_match_benchmark_json():
    import spans

    names = [m["name"] for m in json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))["per_layer"]]
    assert names == list(spans.Tracer().layer_metrics(1, 1.0, 1.0))


def test_tracer_patches_every_binding_and_reports_missing_names(monkeypatch):
    import contextlib
    import io

    import spans
    from cubicff import cfftool, polyrat

    monkeypatch.delattr(pg, "split_via_order")
    original = polyrat.residue_field
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["placegeom.split_via_order"]
        # placegeom binds residue_field by name; both bindings are wrapped
        assert polyrat.residue_field is not original and pg.residue_field is polyrat.residue_field
        tracer.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cfftool.main(["split", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)", "--place", "x^2+2*x+3"]) == 0
    finally:
        tracer.uninstall()
    assert polyrat.residue_field is original and pg.residue_field is original
    layers = {s[0] for s in tracer.spans if s is not None}
    assert {"cfftool.main", "placegeom.splitting_type", "polyrat.residue_field"} <= layers
    metrics = tracer.layer_metrics(1, 1.0, 1.0)
    assert metrics["cfftool.main.calls_per_op"][0] == 1
    assert abs(sum(metrics[f"{m}.self_share"][0] for m in spans.MODULES) - 1) < 1e-9
