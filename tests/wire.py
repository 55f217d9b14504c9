"""The JSON wire format as plain data: the terms list that the CLI's text
writer must match byte for byte, and the readers of what it writes.

The library only writes.  ``polyring.terms_text`` writes a ``Laurent``'s
terms list straight from its packed keys; ``laurent_terms`` builds the same
list as dicts and lists, so ``json.dumps(doc, indent=2,
default=laurent_terms)`` is the text the CLI must print for ``doc``.
"""
from fractions import Fraction

from ribbonchar.polyring import Laurent, QPoly, Ring, build_qseries, qpoly_to_json
from ribbonchar.shapes import SkewDiagram
from ribbonchar.tableaux import Tableau


def laurent_terms(value):
    """[{"x2": [doubled vector], "q": [[e, c], ..]}, ..] of a ``Laurent``,
    in lexicographic order of the vectors; a ``default`` for ``json.dumps``."""
    if not isinstance(value, Laurent):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [{"x2": list(vec), "q": qpoly_to_json(c)} for vec, c in value.sorted_terms()]


def qpoly_from_json(pairs):
    return QPoly({int(e): int(c) for e, c in pairs})


def laurent_from_json(doc):
    ring = Ring(int(doc["n"]), bool(doc["relation"]))
    return ring.from_terms(
        (tuple(term["x2"]), qpoly_from_json(term["q"])) for term in doc["terms"]
    )


def qseries_from_json(doc):
    ring = Ring(int(doc["n"]), bool(doc["relation"]))
    offset = Fraction(doc["offset"])
    coeffs = (
        ring.from_terms((tuple(t["x2"]), qpoly_from_json(t["q"])) for t in terms)
        for terms in doc["coefficients"]
    )
    return build_qseries(
        ring, offset, int(doc["order"]), ((offset + j, c) for j, c in enumerate(coeffs))
    )


def tableau_to_json(t):
    """{"shape": "outer/inner", "rows": [[letters...], ...]}."""
    return {"shape": str(t.shape), "rows": t.rows()}


def tableau_from_json(doc, alphabet, n, frozen=frozenset()):
    shape = SkewDiagram.from_str(doc["shape"])
    entries = {}
    for i, row in enumerate(doc["rows"], start=1):
        start = shape.inner.part(i)
        for off, letter in enumerate(row, start=1):
            entries[(i, start + off)] = letter
    return Tableau(shape, entries, alphabet, n, frozen)
