"""Canonical text form: formatting and bit-exact round trips of
polynomials, and the JSON text of a verification report."""

import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings

from dlwlab.jet import JetPoly, ParseError, format_poly, parse_poly
from dlwlab.report import SUITES, report_to_json_text, run_suite

from conftest import jet_polys


def test_reference_format():
    p = JetPoly.var("u", 3) * Fraction(-1, 3) + JetPoly.var("u") * JetPoly.var("v", 1)
    assert format_poly(p) == "(-1/3)*u[3,0] + u[0,0]*v[1,0]"


def test_zero():
    assert format_poly(JetPoly.zero()) == "0"
    assert parse_poly("0") == JetPoly.zero()


def test_constant_and_params():
    p = JetPoly.const(Fraction(5, 2)) + JetPoly.param("mu", -2) * JetPoly.x(2)
    s = format_poly(p)
    assert parse_poly(s) == p


def test_explicit_coordinates_and_exponents():
    p = JetPoly.x(2) * JetPoly.t() * JetPoly.var("q", 1, 2) ** 3 * Fraction(7, 5)
    assert parse_poly(format_poly(p)) == p


@given(p=jet_polys(max_dt=2))
@settings(max_examples=150, deadline=None)
def test_round_trip_random(p):
    assert parse_poly(format_poly(p)) == p


@given(p=jet_polys(deps=("q", "r"), max_dt=1))
@settings(max_examples=60, deadline=None)
def test_round_trip_potential_family(p):
    assert parse_poly(format_poly(p)) == p


def test_deterministic_ordering():
    a = JetPoly.var("u") + JetPoly.var("v") * 2
    b = JetPoly.var("v") * 2 + JetPoly.var("u")
    assert format_poly(a) == format_poly(b)


@pytest.mark.parametrize(
    "bad",
    ["", "u[1]", "u[1,2", "(3", "u[1,0]^x", "&", "-u[0,0]", "()", "(1/0)*u[0,0]", "1/0", "u[-1,0]", "x^-1"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


@pytest.mark.parametrize("chunk", ["-u[0,0]", "()", "(1/0)*u[0,0]", "1/0"])
def test_bad_coefficient_names_its_chunk(chunk):
    with pytest.raises(ParseError, match=re.escape(repr(chunk))):
        parse_poly(f"u[1,0] + {chunk}")


@pytest.fixture(scope="module")
def reports():
    return {suite: run_suite(suite) for suite in SUITES if suite != "all"}


@pytest.mark.parametrize("stamp", [None, "2026-10-19T12:00:00"])
def test_report_json_is_the_dataclass_dict(reports, stamp):
    # to_json builds its dicts field by field; the text must stay that of
    # dataclasses.asdict, less a None timestamp
    for suite, rep in reports.items():
        rep = dataclasses.replace(rep, timestamp=stamp)
        want = dataclasses.asdict(rep)
        if stamp is None:
            del want["timestamp"]
        assert report_to_json_text(rep) == json.dumps(want, indent=2, sort_keys=True), suite
