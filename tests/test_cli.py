import json
import os
import subprocess
import sys
import time

import pytest

import cubicff
from cubicff import cfftool, galoiskit, ringops
from cubicff import action as act
from cubicff.polyrat import rat_parse

from conftest import F


def run(capsys, *argv):
    rc = cfftool.main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_analyze_running_example(capsys):
    rc, rep = run(capsys, "analyze", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)")
    assert rc == 0
    assert rep["schema"] == "cubicff/1"
    assert rep["galois"] is True
    assert rep["irreducible"] is True
    assert [e["place"] for e in rep["ramified"]] == ["x^2+2"]
    assert rep["genus"] == 0
    assert rep["constant_extension"] is False
    assert rep["integral_basis"]["family"] == "standard"
    assert rep["action"]["type"] == "standard"


def test_analyze_non_galois(capsys):
    rc, rep = run(capsys, "analyze", "--q", "5", "--a", "1/x")
    assert rc == 0
    assert rep["galois"] is False
    assert rep["closure"]["kind"] == "StandardTimesKummerQuadratic"
    assert "ramified" not in rep


def test_analyze_missing_input(capsys):
    rc, rep = run(capsys, "analyze", "--q", "4")
    assert rc == 2
    assert rep["error"]["name"] == "ParseError"


def test_analyze_raw_cubic(capsys):
    rc, rep = run(capsys, "analyze", "--q", "5", "--e", "1", "--f", "0", "--g", "1")
    assert rc == 0
    assert rep["canonical"]["variant"] == "StandardForm"
    assert rep["canonical"]["parameter"] == "1"
    assert len(rep["canonical"]["chain"]) == 4


def test_analyze_kummer_regime(capsys):
    rc, rep = run(capsys, "analyze", "--q", "4", "--a", "x", "--place", "x+1", "--place", "inf")
    assert rc == 0
    assert rep["canonical"]["variant"] == "PurelyCubic"
    assert rep["genus"] == 0
    assert rep["splitting"]["inf"] == "ramified"
    assert rep["integral_basis"]["family"] == "kummer"
    assert rep["action"]["type"] == "kummer"


def test_analyze_artin_schreier_regime(capsys):
    rc, rep = run(capsys, "analyze", "--q", "3", "--a", "1/x")
    assert rc == 0
    assert rep["canonical"]["variant"] == "ArtinSchreier"
    assert rep["genus"] == 0
    assert rep["integral_basis"]["family"] == "artin_schreier"


def test_construct(capsys):
    rc, rep = run(capsys, "construct", "--q", "5", "--A", "x", "--B", "1")
    assert rc == 0
    assert rep["a"] == "(2*x^2+1)/(x^2+2)"


def test_equiv_returns_valid_point(capsys):
    rc, rep = run(capsys, "equiv", "--q", "5", "--a1", "1", "--a2", "4")
    assert rc == 0 and rep["equivalent"] is True
    F5 = F(5)
    pt = act.ConicPoint(rat_parse(F5, rep["phi"]), rat_parse(F5, rep["chi"]))
    assert pt.on_conic(rat_parse(F5, "1"))
    assert act.transform_generator(rat_parse(F5, "1"), pt).a2 == rat_parse(F5, "4")


def test_equiv_not_equivalent(capsys):
    rc, rep = run(capsys, "equiv", "--q", "5", "--a1", "1", "--a2", "(2*x^2+1)/(x^2+2)")
    assert rc == 0 and rep["equivalent"] is False


def test_split_single_place(capsys):
    rc, rep = run(capsys, "split", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)", "--place", "x+1")
    assert rc == 0
    assert rep["type"] == "inert"


def test_genus_and_ramify(capsys):
    rc, rep = run(capsys, "genus", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)")
    assert rc == 0 and rep["genus"] == 0
    rc2, rep2 = run(capsys, "ramify", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)")
    assert rc2 == 0 and rep2["ramified"][0]["place"] == "x^2+2"


def test_valuations_subcommand(capsys):
    rc, rep = run(
        capsys,
        "valuations", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)",
        "--place", "x^2+2", "--place", "x^2+3", "--place", "inf",
    )
    assert rc == 0
    assert rep["valuations"]["x^2+2"] == {"case": 1, "values": [-1], "e": 3, "f": 1, "r": 1}
    assert rep["valuations"]["x^2+3"]["values"] == [1, 0, 0]
    assert rep["valuations"]["inf"]["values"] == [0, 0, 0]


def test_precondition_exit_code(capsys):
    rc, rep = run(capsys, "genus", "--q", "5", "--a", "1")
    assert rc == 3
    assert "hypothesis" in rep["error"]


def test_normalize_subcommand(capsys):
    rc, rep = run(capsys, "normalize", "--q", "3", "--e", "1", "--f", "x", "--g", "1")
    assert rc == 0
    assert rep["canonical"]["variant"] == "Char3Separable"


def test_action_subcommand(capsys):
    rc, rep = run(capsys, "action", "--q", "5", "--a", "1")
    assert rc == 0
    assert rep["action"]["c2"] == "4" and rep["action"]["c0"] == "2"
    assert len(rep["action"]["sigma_matrix"]) == 3


def test_galois_subcommand(capsys):
    rc, rep = run(capsys, "galois", "--q", "5", "--a", "1/x")
    assert rc == 0 and rep["galois"] is False


def test_irreducible_subcommand(capsys):
    rc, rep = run(capsys, "irreducible", "--q", "5", "--a", "1")
    assert rc == 0 and rep["irreducible"] is True


def test_basis_subcommand(capsys):
    rc, rep = run(capsys, "basis", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)")
    assert rc == 0
    third = rep["integral_basis"]["elements"][2]
    assert third["den"] == "x^3+2*x"


def test_determinism(capsys):
    args = ("analyze", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)", "--place", "x+1")
    rc1 = cfftool.main(list(args))
    out1 = capsys.readouterr().out
    rc2 = cfftool.main(list(args))
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_report_fields_recomputable(capsys):
    """Every analyze field matches the focused subcommand on the same input."""
    base = ("--q", "5", "--a", "(2*x^2+1)/(x^2+2)")
    _, rep = run(capsys, "analyze", *base, "--place", "x+1")
    _, gal = run(capsys, "galois", *base)
    assert rep["galois"] == gal["galois"] and rep["closure"] == gal["closure"]
    _, irr = run(capsys, "irreducible", *base)
    assert rep["irreducible"] == irr["irreducible"]
    _, ram = run(capsys, "ramify", *base)
    assert rep["ramified"] == ram["ramified"]
    _, gen = run(capsys, "genus", *base)
    assert rep["genus"] == gen["genus"]
    _, spl = run(capsys, "split", *base, "--place", "x+1")
    assert rep["splitting"]["x+1"] == spl["type"]
    _, bas = run(capsys, "basis", *base)
    assert rep["integral_basis"] == bas["integral_basis"]
    _, actn = run(capsys, "action", *base)
    assert rep["action"] == actn["action"]


def test_explicit_field_flags(capsys):
    rc, rep = run(capsys, "analyze", "--p", "2", "--n", "3", "--modulus", "t^3+t+1", "--a", "x")
    assert rc == 0
    assert rep["field"]["q"] == 8


# the report of the q = 4 input below as divisor enumeration produced it
# (in 1.46 s); the Newton-lifting root finder must reproduce it byte for byte
Q4_RAW_REPORT = (
    '{"schema": "cubicff/1", "field": {"p": 2, "n": 2, "q": 4, "modulus": "t^2+t+1"}, '
    '"input": {"kind": "cubic", "e": "x", "f": "x^2+1", "g": "x^5+x+1"}, '
    '"canonical": {"variant": "StandardForm", "parameter": "(x^20+x^16+x^12+x^8+x^6+x^2+1)/(x^18+x^16+x^13+x^9+x^8+x^6+x^5+x^4+x^3+x+1)", '
    '"chain": [{"op": "moebius", "c1": "1", "c2": "0", "c3": "(x^2+1)/(x^5+x+1)", '
    '"c4": "1"}, {"op": "scale", "c": "(x^5+x^3+1)/(x^6+x^4+x^2+x+1)"}, '
    '{"op": "shift", "c": "1"}, {"op": "scale", "c": "1"}]}, "irreducible": true, '
    '"galois": false, "closure": {"kind": "StandardTimesArtinSchreierQuadratic", '
    '"quadratic": "X^2 + (1)*X + ((x^40+x^36+x^26+x^24+x^18+x^10+x^8+x^6+x^4+x^2)/(x^40+x^32+x^24+x^16+x^12+x^4+1))"}, '
    '"constant_extension": false, "diagnostics": ["normalized from raw coefficients", '
    '"irreducibility: rational-root search"]}'
)


@pytest.mark.parametrize(
    "argv",
    [
        ("--q", "4", "--e", "x", "--f", "x^2+1", "--g", "x^5+x+1"),
        ("--q", "9", "--e", "x^2+1", "--f", "x^2+2*x+2", "--g", "x"),
    ],
)
def test_analyze_raw_root_search_budget(capsys, argv):
    """Raw cubics whose rational-root search once enumerated divisors for
    seconds to minutes finish within 2 s."""
    start = time.perf_counter()
    rc = cfftool.main(["analyze", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0 and elapsed < 2.0
    rep = json.loads(out)
    assert rep["irreducible"] is True
    assert rep["diagnostics"][:2] == ["normalized from raw coefficients", "irreducibility: rational-root search"]
    if argv[1] == "4":
        assert out.strip() == Q4_RAW_REPORT


def test_production_path_calls_no_oracle(capsys, monkeypatch):
    """The brute-force rational-root searches are test oracles only."""

    def refuse(*args, **kwargs):
        raise AssertionError("a test oracle ran on the production path")

    for name in ("monic_divisors", "quadratic_rational_root", "cubic_rational_roots", "standard_form_rational_root"):
        monkeypatch.setattr(ringops, name, refuse)
    monkeypatch.setattr(galoiskit, "is_irreducible_standard_oracle", refuse)
    for argv in (
        ("analyze", "--q", "5", "--e", "1", "--f", "x", "--g", "x^2+1"),  # raw, standard form
        ("analyze", "--q", "4", "--e", "x", "--f", "x", "--g", "1"),  # raw, reducible
        ("analyze", "--q", "3", "--e", "x", "--f", "1", "--g", "x+1"),  # raw, p = 3
        ("analyze", "--q", "5", "--a", "x"),  # no norm form: rational-root fallback
        ("analyze", "--q", "7", "--a", "x"),  # Kummer regime
        ("irreducible", "--q", "3", "--a", "x^3-x"),  # reducible Artin-Schreier
    ):
        assert cfftool.main(list(argv)) in (0, 3), argv
        capsys.readouterr()


def test_module_entry_point_is_quiet():
    """`python -m cubicff.cfftool` runs without a RuntimeWarning on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cubicff.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "cubicff.cfftool", "genus", "--q", "5", "--a", "(2*x^2+1)/(x^2+2)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["genus"] == 0
