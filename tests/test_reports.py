"""Every verifier's report, literally: the rows, the global value, the verdict and the text form.

Over Q, over F7 (with the degree-2 place x^2 + 1) and over F9, and in local
data mode on the expansions of ``TestLocalDataMode``; the benchmark's op
digests cover neither Q nor local data.
"""

import json

import pytest

from reciprocity.curve import (
    RationalFunction,
    local_expansion,
    relevant_places,
    verify_gf_global,
    verify_residue_theorem,
    verify_residues_local_data,
    verify_wrl,
    verify_wrl_local_data,
)
from reciprocity.fields import PrimeField
from reciprocity.parsing import parse_field_spec, parse_rational
from support import rational_x

PAIRS = {
    "Q": ("(x-2)/(x^2+1)", "x^3/(x+1)"),
    "F7": ("(x+3)/(x^2+1)", "x/(x-1)^2"),
    "F9:u^2+1": ("(x-u)/x^2", "(x^2+u*x+1)/(x+1)"),
}
# tr(ST) = 8: nonzero over Q, F7 and F9
S, T = [[1, 2], [3, 4]], [[2, 0], [1, 1]]
GLOBAL = {
    "wrl": verify_wrl,
    "residues": verify_residue_theorem,
    "gf": lambda f, g: verify_gf_global(S, T, f, g),
}
LOCAL_DATA = {"wrl-local-data": verify_wrl_local_data, "residues-local-data": verify_residues_local_data}

PINNED = {
    ("wrl", "Q"): (
        {"input": {"f": "(x - 2)/(x^2 + 1)", "g": "(x^3)/(x + 1)", "field": "Q"},
         "places": [{"place": "(x)", "deg": 1, "v_f": 0, "v_g": 3, "local_factor": "-8"},
                    {"place": "(x + 1)", "deg": 1, "v_f": 0, "v_g": -1, "local_factor": "-2/3"},
                    {"place": "(x - 2)", "deg": 1, "v_f": 1, "v_g": 0, "local_factor": "3/8"},
                    {"place": "(x^2 + 1)", "deg": 2, "v_f": -1, "v_g": 0, "local_factor": "1/2"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": -2, "local_factor": "1"}],
         "global": "1",
         "verified": True},
        """\
weil-reciprocity: f=(x - 2)/(x^2 + 1), g=(x^3)/(x + 1), field=Q
  place=(x), deg=1, v_f=0, v_g=3, local_factor=-8
  place=(x + 1), deg=1, v_f=0, v_g=-1, local_factor=-2/3
  place=(x - 2), deg=1, v_f=1, v_g=0, local_factor=3/8
  place=(x^2 + 1), deg=2, v_f=-1, v_g=0, local_factor=1/2
  place=infinity, deg=1, v_f=1, v_g=-2, local_factor=1
  global: 1
  verified: True""",
    ),
    ("residues", "Q"): (
        {"input": {"f": "(x - 2)/(x^2 + 1)", "g": "(x^3)/(x + 1)", "field": "Q"},
         "places": [{"place": "(x)", "deg": 1, "v_f": 0, "v_g": 3, "residue": "0"},
                    {"place": "(x + 1)", "deg": 1, "v_f": 0, "v_g": -1, "residue": "-1"},
                    {"place": "(x - 2)", "deg": 1, "v_f": 1, "v_g": 0, "residue": "0"},
                    {"place": "(x^2 + 1)", "deg": 2, "v_f": -1, "v_g": 0, "residue": "-4"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": -2, "residue": "5"}],
         "global": "0",
         "verified": True},
        """\
residue-theorem: f=(x - 2)/(x^2 + 1), g=(x^3)/(x + 1), field=Q
  place=(x), deg=1, v_f=0, v_g=3, residue=0
  place=(x + 1), deg=1, v_f=0, v_g=-1, residue=-1
  place=(x - 2), deg=1, v_f=1, v_g=0, residue=0
  place=(x^2 + 1), deg=2, v_f=-1, v_g=0, residue=-4
  place=infinity, deg=1, v_f=1, v_g=-2, residue=5
  global: 0
  verified: True""",
    ),
    ("gf", "Q"): (
        {"input": {"f": "(x - 2)/(x^2 + 1)", "g": "(x^3)/(x + 1)", "n": 2, "field": "Q"},
         "places": [{"place": "(x)", "deg": 1, "residue": "0"},
                    {"place": "(x + 1)", "deg": 1, "residue": "-8"},
                    {"place": "(x - 2)", "deg": 1, "residue": "0"},
                    {"place": "(x^2 + 1)", "deg": 2, "residue": "-32"},
                    {"place": "infinity", "deg": 1, "residue": "40"}],
         "global": "0",
         "verified": True,
         "cross_check": "0"},
        """\
gelfand-fuchs-global: f=(x - 2)/(x^2 + 1), g=(x^3)/(x + 1), n=2, field=Q
  place=(x), deg=1, residue=0
  place=(x + 1), deg=1, residue=-8
  place=(x - 2), deg=1, residue=0
  place=(x^2 + 1), deg=2, residue=-32
  place=infinity, deg=1, residue=40
  global: 0
  verified: True""",
    ),
    ("wrl", "F7"): (
        {"input": {"f": "(x + 3)/(x^2 + 1)", "g": "x/(x^2 + 5*x + 1)", "field": "F7"},
         "places": [{"place": "(x)", "deg": 1, "v_f": 0, "v_g": 1, "local_factor": "3"},
                    {"place": "(x + 3)", "deg": 1, "v_f": 1, "v_g": 0, "local_factor": "4"},
                    {"place": "(x + 6)", "deg": 1, "v_f": 0, "v_g": -2, "local_factor": "2"},
                    {"place": "(x^2 + 1)", "deg": 2, "v_f": -1, "v_g": 0, "local_factor": "2"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": 1, "local_factor": "6"}],
         "global": "1",
         "verified": True},
        """\
weil-reciprocity: f=(x + 3)/(x^2 + 1), g=x/(x^2 + 5*x + 1), field=F7
  place=(x), deg=1, v_f=0, v_g=1, local_factor=3
  place=(x + 3), deg=1, v_f=1, v_g=0, local_factor=4
  place=(x + 6), deg=1, v_f=0, v_g=-2, local_factor=2
  place=(x^2 + 1), deg=2, v_f=-1, v_g=0, local_factor=2
  place=infinity, deg=1, v_f=1, v_g=1, local_factor=6
  global: 1
  verified: True""",
    ),
    ("residues", "F7"): (
        {"input": {"f": "(x + 3)/(x^2 + 1)", "g": "x/(x^2 + 5*x + 1)", "field": "F7"},
         "places": [{"place": "(x)", "deg": 1, "v_f": 0, "v_g": 1, "residue": "0"},
                    {"place": "(x + 3)", "deg": 1, "v_f": 1, "v_g": 0, "residue": "0"},
                    {"place": "(x + 6)", "deg": 1, "v_f": 0, "v_g": -2, "residue": "4"},
                    {"place": "(x^2 + 1)", "deg": 2, "v_f": -1, "v_g": 0, "residue": "3"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": 1, "residue": "0"}],
         "global": "0",
         "verified": True},
        """\
residue-theorem: f=(x + 3)/(x^2 + 1), g=x/(x^2 + 5*x + 1), field=F7
  place=(x), deg=1, v_f=0, v_g=1, residue=0
  place=(x + 3), deg=1, v_f=1, v_g=0, residue=0
  place=(x + 6), deg=1, v_f=0, v_g=-2, residue=4
  place=(x^2 + 1), deg=2, v_f=-1, v_g=0, residue=3
  place=infinity, deg=1, v_f=1, v_g=1, residue=0
  global: 0
  verified: True""",
    ),
    ("gf", "F7"): (
        {"input": {"f": "(x + 3)/(x^2 + 1)", "g": "x/(x^2 + 5*x + 1)", "n": 2, "field": "F7"},
         "places": [{"place": "(x)", "deg": 1, "residue": "0"},
                    {"place": "(x + 3)", "deg": 1, "residue": "0"},
                    {"place": "(x + 6)", "deg": 1, "residue": "4"},
                    {"place": "(x^2 + 1)", "deg": 2, "residue": "3"},
                    {"place": "infinity", "deg": 1, "residue": "0"}],
         "global": "0",
         "verified": True,
         "cross_check": "0"},
        """\
gelfand-fuchs-global: f=(x + 3)/(x^2 + 1), g=x/(x^2 + 5*x + 1), n=2, field=F7
  place=(x), deg=1, residue=0
  place=(x + 3), deg=1, residue=0
  place=(x + 6), deg=1, residue=4
  place=(x^2 + 1), deg=2, residue=3
  place=infinity, deg=1, residue=0
  global: 0
  verified: True""",
    ),
    ("wrl", "F9:u^2+1"): (
        {"input": {"f": "(x + 2*u)/(x^2)", "g": "(x^2 + u*x + 1)/(x + 1)", "field": "F9"},
         "places": [{"place": "(x)", "deg": 1, "v_f": -2, "v_g": 0, "local_factor": "1"},
                    {"place": "(x + 1)", "deg": 1, "v_f": 0, "v_g": -1, "local_factor": "2*u + 1"},
                    {"place": "(x + 2*u)", "deg": 1, "v_f": 1, "v_g": 0, "local_factor": "2*u + 2"},
                    {"place": "(x + 2*u + 1)", "deg": 1, "v_f": 0, "v_g": 1, "local_factor": "u"},
                    {"place": "(x + 2*u + 2)", "deg": 1, "v_f": 0, "v_g": 1, "local_factor": "u"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": -1, "local_factor": "2"}],
         "global": "1",
         "verified": True},
        """\
weil-reciprocity: f=(x + 2*u)/(x^2), g=(x^2 + u*x + 1)/(x + 1), field=F9
  place=(x), deg=1, v_f=-2, v_g=0, local_factor=1
  place=(x + 1), deg=1, v_f=0, v_g=-1, local_factor=2*u + 1
  place=(x + 2*u), deg=1, v_f=1, v_g=0, local_factor=2*u + 2
  place=(x + 2*u + 1), deg=1, v_f=0, v_g=1, local_factor=u
  place=(x + 2*u + 2), deg=1, v_f=0, v_g=1, local_factor=u
  place=infinity, deg=1, v_f=1, v_g=-1, local_factor=2
  global: 1
  verified: True""",
    ),
    ("residues", "F9:u^2+1"): (
        {"input": {"f": "(x + 2*u)/(x^2)", "g": "(x^2 + u*x + 1)/(x + 1)", "field": "F9"},
         "places": [{"place": "(x)", "deg": 1, "v_f": -2, "v_g": 0, "residue": "0"},
                    {"place": "(x + 1)", "deg": 1, "v_f": 0, "v_g": -1, "residue": "1"},
                    {"place": "(x + 2*u)", "deg": 1, "v_f": 1, "v_g": 0, "residue": "0"},
                    {"place": "(x + 2*u + 1)", "deg": 1, "v_f": 0, "v_g": 1, "residue": "0"},
                    {"place": "(x + 2*u + 2)", "deg": 1, "v_f": 0, "v_g": 1, "residue": "0"},
                    {"place": "infinity", "deg": 1, "v_f": 1, "v_g": -1, "residue": "2"}],
         "global": "0",
         "verified": True},
        """\
residue-theorem: f=(x + 2*u)/(x^2), g=(x^2 + u*x + 1)/(x + 1), field=F9
  place=(x), deg=1, v_f=-2, v_g=0, residue=0
  place=(x + 1), deg=1, v_f=0, v_g=-1, residue=1
  place=(x + 2*u), deg=1, v_f=1, v_g=0, residue=0
  place=(x + 2*u + 1), deg=1, v_f=0, v_g=1, residue=0
  place=(x + 2*u + 2), deg=1, v_f=0, v_g=1, residue=0
  place=infinity, deg=1, v_f=1, v_g=-1, residue=2
  global: 0
  verified: True""",
    ),
    ("gf", "F9:u^2+1"): (
        {"input": {"f": "(x + 2*u)/(x^2)", "g": "(x^2 + u*x + 1)/(x + 1)", "n": 2, "field": "F9"},
         "places": [{"place": "(x)", "deg": 1, "residue": "0"},
                    {"place": "(x + 1)", "deg": 1, "residue": "2"},
                    {"place": "(x + 2*u)", "deg": 1, "residue": "0"},
                    {"place": "(x + 2*u + 1)", "deg": 1, "residue": "0"},
                    {"place": "(x + 2*u + 2)", "deg": 1, "residue": "0"},
                    {"place": "infinity", "deg": 1, "residue": "1"}],
         "global": "0",
         "verified": True,
         "cross_check": "0"},
        """\
gelfand-fuchs-global: f=(x + 2*u)/(x^2), g=(x^2 + u*x + 1)/(x + 1), n=2, field=F9
  place=(x), deg=1, residue=0
  place=(x + 1), deg=1, residue=2
  place=(x + 2*u), deg=1, residue=0
  place=(x + 2*u + 1), deg=1, residue=0
  place=(x + 2*u + 2), deg=1, residue=0
  place=infinity, deg=1, residue=1
  global: 0
  verified: True""",
    ),
    ("wrl-local-data", "F5"): (
        {"input": {"entries": 4, "field": "F5"},
         "places": [{"place": "local#0", "deg": 1, "v_f": 2, "v_g": -1, "local_factor": "1"},
                    {"place": "local#1", "deg": 1, "v_f": 0, "v_g": 1, "local_factor": "2"},
                    {"place": "local#2", "deg": 1, "v_f": 1, "v_g": 0, "local_factor": "3"},
                    {"place": "local#3", "deg": 1, "v_f": -3, "v_g": 0, "local_factor": "1"}],
         "global": "1",
         "verified": True},
        """\
weil-reciprocity-local-data: entries=4, field=F5
  place=local#0, deg=1, v_f=2, v_g=-1, local_factor=1
  place=local#1, deg=1, v_f=0, v_g=1, local_factor=2
  place=local#2, deg=1, v_f=1, v_g=0, local_factor=3
  place=local#3, deg=1, v_f=-3, v_g=0, local_factor=1
  global: 1
  verified: True""",
    ),
    ("residues-local-data", "F5"): (
        {"input": {"entries": 4, "field": "F5"},
         "places": [{"place": "local#0", "deg": 1, "residue": "0"},
                    {"place": "local#1", "deg": 1, "residue": "0"},
                    {"place": "local#2", "deg": 1, "residue": "0"},
                    {"place": "local#3", "deg": 1, "residue": "0"}],
         "global": "0",
         "verified": True},
        """\
residue-theorem-local-data: entries=4, field=F5
  place=local#0, deg=1, residue=0
  place=local#1, deg=1, residue=0
  place=local#2, deg=1, residue=0
  place=local#3, deg=1, residue=0
  global: 0
  verified: True""",
    ),
}


def local_data_entries():
    """The entries of ``TestLocalDataMode``: f = x^2 (1 - x) and g = (1 + x)/x over F5 at every place, to O(t^12)."""
    F5 = PrimeField(5)
    x = rational_x(F5)
    one = RationalFunction.constant(F5, 1)
    f, g = x**2 * (one - x), (one + x) / x
    return [(F5, local_expansion(f, p, 12), local_expansion(g, p, 12)) for p in relevant_places(f, g)], F5


def assert_pinned(report, key):
    want_json, want_text = PINNED[key]
    # json.dumps keeps the key order, which the output shows
    assert json.dumps(report.to_json()) == json.dumps(want_json)
    assert report.text() == want_text


@pytest.mark.parametrize("spec", PAIRS)
@pytest.mark.parametrize("name", GLOBAL)
def test_global_reports(name, spec):
    field = parse_field_spec(spec)
    f, g = (parse_rational(text, field) for text in PAIRS[spec])
    assert_pinned(GLOBAL[name](f, g), (name, spec))


@pytest.mark.parametrize("name", LOCAL_DATA)
def test_local_data_reports(name):
    entries, base = local_data_entries()
    assert_pinned(LOCAL_DATA[name](entries, base), (name, "F5"))
