"""The function catalog: pinned bodies, metadata, listing and parameter checks."""

import math
import re
from pathlib import Path

import pytest

import sosreg.exprlang as exprlang
from sosreg.cli import main
from sosreg.exprlang import ExprError, ParseError, catalog_function, catalog_names, parse_expression, to_source
from sosreg.geometry import Ball

LISTING = Path(__file__).parent / "data" / "catalog_stdout.txt"

# (name, parameters) -> to_source of the body, as the hand-built trees printed it
BODIES = {
    ("motzkin_M", ()): "z^6 + x^2*y^2*(x^2 + y^2 - 3*z^2)",
    ("motzkin_M", (("lam", 0.0),)): "z^6 + x^2*y^2*(x^2 + y^2 - 0*z^2)",
    ("motzkin_M", (("lam", 0.3),)): "z^6 + x^2*y^2*(x^2 + y^2 - 0.8999999999999999*z^2)",
    ("quartic_L", ()): "w^4 + x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*w*x*y*z",
    ("flat_exp_sq", ()): "flatexp(t^2)",
    ("flat_exp", ()): "flatexp(t)",
    ("bump_h", ()): (
        "piecewise(t^2, 0.25, 1, 1, flatexp((1 - (t^2)^0.5)/0.5)/(flatexp((1 - (t^2)^0.5)/0.5) + "
        "flatexp(1 - (1 - (t^2)^0.5)/0.5)), 0)"
    ),
    ("bump_h", (("rho", 0.2),)): (
        "piecewise(t^2, 0.04000000000000001, 1, 1, flatexp((1 - (t^2)^0.5)/0.8)/(flatexp((1 - "
        "(t^2)^0.5)/0.8) + flatexp(1 - (1 - (t^2)^0.5)/0.8)), 0)"
    ),
    ("family_f", ()): (
        "flatexp(t^2)*(w^4 + x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*w*x*y*z) + flatexp(t^2/4)^2*(t^2)^4 + "
        "flatexp(w^2 + x^2 + y^2 + z^2)*piecewise(t^2/(w^2 + x^2 + y^2 + z^2), 0.25, 1, 1, "
        "flatexp((1 - (t^2/(w^2 + x^2 + y^2 + z^2))^0.5)/0.5)/(flatexp((1 - (t^2/(w^2 + x^2 + y^2 + "
        "z^2))^0.5)/0.5) + flatexp(1 - (1 - (t^2/(w^2 + x^2 + y^2 + z^2))^0.5)/0.5)), 0)"
    ),
    ("family_f", (("s_prime", 1 / 3), ("rho", 0.7))): (
        "flatexp(t^2)*(w^4 + x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*w*x*y*z) + flatexp(t^2/4)^3*(t^2)^6 + "
        "flatexp(w^2 + x^2 + y^2 + z^2)*piecewise(t^2/(w^2 + x^2 + y^2 + z^2), 0.48999999999999994, "
        "1, 1, flatexp((1 - (t^2/(w^2 + x^2 + y^2 + z^2))^0.5)/0.30000000000000004)/(flatexp((1 - "
        "(t^2/(w^2 + x^2 + y^2 + z^2))^0.5)/0.30000000000000004) + flatexp(1 - (1 - (t^2/(w^2 + x^2 "
        "+ y^2 + z^2))^0.5)/0.30000000000000004)), 0)"
    ),
    ("glaeser_stub", ()): "flatexp(t^2)",
}

# name -> (variables, domain, sample box at the defaults)
METADATA = {
    "motzkin_M": (("x", "y", "z"), Ball((0.0, 0.0, 0.0), 2.0), ((-1.0, 1.0),) * 3),
    "quartic_L": (("w", "x", "y", "z"), Ball((0.0,) * 4, 2.0), ((-1.0, 1.0),) * 4),
    "flat_exp_sq": (("t",), Ball((0.0,), 1.0), ((0.55, 0.95),)),
    "flat_exp": (("t",), Ball((0.5,), 0.5), ((0.3, 0.95),)),
    "bump_h": (("t",), Ball((0.0,), 1.5), ((0.62, 0.88),)),
    "family_f": (("w", "x", "y", "z", "t"), Ball((0.0,) * 5, 1.0), ((0.28, 0.36),) * 4 + ((0.8, 0.95),)),
    "glaeser_stub": (("t",), Ball((0.0,), 1.0), ((0.55, 0.95),)),
}


@pytest.mark.parametrize(("name", "params"), list(BODIES))
def test_body_prints_as_pinned_and_round_trips(name, params):
    body = catalog_function(name, dict(params)).body
    assert to_source(body) == BODIES[(name, params)]
    assert parse_expression(to_source(body)) == body


@pytest.mark.parametrize("name", list(METADATA))
def test_body_shares_equal_subtrees(name, monkeypatch):
    body = catalog_function(name).body
    monkeypatch.setattr(exprlang._Parser, "node", lambda parser, cls, *fields: cls(*fields))
    plain = catalog_function(name).body
    assert body == plain
    assert len(exprlang._nodes(body)) <= len(exprlang._nodes(plain))
    if name == "family_f":
        # the hand-built tree had 57 distinct nodes, the parse without sharing 128
        assert len(exprlang._nodes(body)) <= 57 < len(exprlang._nodes(plain))


def test_shared_constants_keep_their_sign_of_zero():
    body = parse_expression("0*x + -0*x")
    zero, negative_zero = (term.factors[0].value for term in body.terms)
    assert (math.copysign(1.0, zero), math.copysign(1.0, negative_zero)) == (1.0, -1.0)
    assert body.terms[0].factors[1] is body.terms[1].factors[1]


def test_every_entry_is_pinned_at_its_defaults():
    assert {name for name, params in BODIES if not params} == set(catalog_names()) == set(METADATA)


@pytest.mark.parametrize("name", list(METADATA))
def test_variables_domain_and_sample_box(name):
    fdef = catalog_function(name)
    assert (fdef.name, fdef.variables, fdef.domain, fdef.sample_box) == (name, *METADATA[name])


def test_sample_box_follows_the_plateau():
    assert catalog_function("bump_h", {"rho": 0.2}).sample_box == ((0.2 + 0.12, 0.88),)


def test_catalog_listing_is_unchanged(capsys):
    # the listing, then the JSON report, as the hand-built catalog printed them
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out == LISTING.read_text()


def test_catalog_report_file_is_unchanged(capsys, tmp_path):
    assert main(["catalog", "--report", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out + (tmp_path / "r.json").read_text() == LISTING.read_text()


@pytest.mark.parametrize(("name", "key", "value", "interval"), [
    ("motzkin_M", "lam", 1.5, "[0,1]"),
    ("motzkin_M", "lam", -0.1, "[0,1]"),
    ("bump_h", "rho", 1.0, "(0,1)"),
    ("bump_h", "rho", 0.0, "(0,1)"),
    ("family_f", "s_prime", 1.2, "(0,1)"),
    ("family_f", "rho", float("nan"), "(0,1)"),
])
def test_out_of_range_parameter(name, key, value, interval):
    with pytest.raises(ExprError, match=re.escape(f"{name} requires {key} in {interval}, got {value}")):
        catalog_function(name, {key: value})


def test_closed_interval_ends():
    for lam in (0.0, 1.0):
        assert catalog_function("motzkin_M", {"lam": lam}).name == "motzkin_M"


def test_unknown_parameter():
    with pytest.raises(ExprError, match=r"quartic_L does not accept parameter\(s\) \['lam'\]"):
        catalog_function("quartic_L", {"lam": 0.5})


@pytest.mark.parametrize("s_prime", [1e-320, 1e-308])  # 1/s_prime, then 2/s_prime overflow
def test_formula_overflow_names_the_parameter(s_prime):
    with pytest.raises(ExprError, match=re.escape(f"s_prime = {s_prime} in (0,1)")) as err:
        catalog_function("family_f", {"s_prime": s_prime})
    assert not isinstance(err.value, ParseError)
