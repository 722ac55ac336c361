"""Readers of JSON documents: spaces, measures, kernels, functionals and
interval measures.  The module writes no documents.

Rationals are "p/q" strings or ints.  Each reader validates every
structural invariant and raises IngestionError naming the first violated
one.  A measure or functional document read against a space the caller
supplies may inline a ``space`` only if it equals that space, carrier
order included.
"""

from __future__ import annotations

from fractions import Fraction

from . import duality
from .errors import DigitLimitError, GirylabError, IngestionError
from .rational import (ZERO, _shown, exact, parse_int, parse_rational,
                       probability)
from .spaces import FinSpace, generate_sigma
from .measures import IntervalMeasure, Measure
from .monad import Kernel


def _rational(value, what: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise IngestionError(f"{what} must be a 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return exact(value, what)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise IngestionError(f"{what}: {exc}") from None
    raise IngestionError(f"{what} must be a 'p/q' string, got {type(value).__name__}")


def space_from_json(doc: dict) -> FinSpace:
    if not isinstance(doc, dict):
        raise IngestionError("space document must be an object")
    carrier = doc.get("carrier")
    if not isinstance(carrier, list) or not all(isinstance(x, str) for x in carrier):
        raise IngestionError("space 'carrier' must be a list of labels")
    generators = doc.get("generators", [])
    if not isinstance(generators, list):
        raise IngestionError("space 'generators' must be a list of label lists")
    try:
        return generate_sigma(carrier, generators)
    except GirylabError as exc:
        raise IngestionError(f"space: {exc}") from None


def _space_text(space: FinSpace) -> str:
    return f"carrier {list(space.carrier)}, atoms {space.describe_atoms()}"


def _document_space(doc: dict, space: FinSpace | None, what: str) -> FinSpace:
    """The space a measure or functional document lives on: its inlined
    ``space`` when the command supplies none, else the supplied one.  An
    inlined ``space`` must then equal it, carrier order included, since
    atom indices follow that order; IngestionError names both otherwise."""
    if space is None:
        if "space" not in doc:
            raise IngestionError(f"{what} document needs a 'space'")
        return space_from_json(doc["space"])
    if "space" in doc:
        inlined = space_from_json(doc["space"])
        if inlined != space:
            raise IngestionError(
                f"{what} document's space ({_space_text(inlined)}) is not the "
                f"space the command supplies ({_space_text(space)})")
    return space


def _index(key, what: str) -> int:
    """A JSON object key read as an integer index; a key past
    rational.MAX_DIGITS digits raises DigitLimitError."""
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    try:
        return parse_int(key)
    except DigitLimitError:
        raise
    except (AttributeError, TypeError, ValueError):
        raise IngestionError(f"{what} {_shown(str(key))} is not an integer") from None


def _weights_from_json(doc, space: FinSpace, what: str) -> tuple[Fraction, ...]:
    n = len(space.atoms)
    if not isinstance(doc, dict):
        raise IngestionError(f"{what} must map atom indices to 'p/q' strings")
    weights = [ZERO] * n
    seen = set()
    for key, value in doc.items():
        idx = _index(key, f"{what}: atom index")
        if not 0 <= idx < n:
            raise IngestionError(
                f"{what}: atom index {_shown(str(key))} out of range "
                f"(space has {n} atoms)")
        if idx in seen:
            raise IngestionError(f"{what}: atom index {idx} repeated")
        seen.add(idx)
        weights[idx] = _rational(value, f"{what}[{idx}]")
    return tuple(weights)


def measure_from_json(doc: dict, space: FinSpace | None = None) -> Measure:
    if not isinstance(doc, dict):
        raise IngestionError("measure document must be an object")
    space = _document_space(doc, space, "measure")
    weights = _weights_from_json(doc.get("weights"), space, "weights")
    try:
        return Measure(space, weights)
    except GirylabError as exc:
        raise IngestionError(f"measure: {exc}") from None


def interval_measure_from_json(doc: dict) -> IntervalMeasure:
    if not isinstance(doc, dict):
        raise IngestionError("interval measure document must be an object")
    points_doc, pieces_doc = doc.get("points", []), doc.get("uniform", [])
    if not isinstance(points_doc, list) or not isinstance(pieces_doc, list):
        raise IngestionError("interval measure 'points' and 'uniform' must be lists")
    points, pieces = [], []
    for row in points_doc:
        if not isinstance(row, list) or len(row) != 2:
            raise IngestionError("each point mass must be a [loc, mass] pair")
        points.append((_rational(row[0], "point location"),
                       _rational(row[1], "point mass")))
    for row in pieces_doc:
        if not isinstance(row, list) or len(row) != 3:
            raise IngestionError("each uniform piece must be an [a, b, mass] triple")
        pieces.append((_rational(row[0], "piece start"),
                       _rational(row[1], "piece end"),
                       _rational(row[2], "piece mass")))
    try:
        return IntervalMeasure(tuple(points), tuple(pieces))
    except GirylabError as exc:
        raise IngestionError(f"interval measure: {exc}") from None


def kernel_from_json(doc: dict) -> Kernel:
    if not isinstance(doc, dict):
        raise IngestionError("kernel document must be an object")
    for field in ("dom", "cod", "rows"):
        if field not in doc:
            raise IngestionError(f"kernel document needs '{field}'")
    dom = space_from_json(doc["dom"])
    cod = space_from_json(doc["cod"])
    rows_doc = doc["rows"]
    if not isinstance(rows_doc, dict):
        raise IngestionError("kernel 'rows' must map dom atom indices to weights")
    n = len(dom.atoms)
    rows: list[Measure | None] = [None] * n
    for key, wdoc in rows_doc.items():
        idx = _index(key, "kernel row key")
        if not 0 <= idx < n:
            raise IngestionError(f"kernel row index {_shown(str(key))} out of range")
        weights = _weights_from_json(wdoc, cod, f"row {idx}")
        try:
            rows[idx] = Measure(cod, weights)
        except GirylabError as exc:
            raise IngestionError(f"kernel row {idx}: {exc}") from None
    missing = [i for i, r in enumerate(rows) if r is None]
    if missing:
        raise IngestionError(f"kernel is missing rows for dom atoms {missing}")
    return Kernel(dom, cod, tuple(rows))


#: functional kind -> name of the duality function building it on a space.
_NAMED_FUNCTIONALS = {
    "max": "max_functional",
    "square": "square_functional",
    "clamped-sum": "clamped_sum_functional",
}


def functional_from_json(doc: dict,
                         space: FinSpace | None = None) -> duality.Functional:
    if not isinstance(doc, dict):
        raise IngestionError("functional document must be an object")
    space = _document_space(doc, space, "functional")
    kind = doc.get("kind", "extensional")
    if not isinstance(kind, str):
        raise IngestionError(
            f"functional 'kind' must be a string, got {type(kind).__name__}")
    if kind == "extensional":
        coeffs_doc = doc.get("coefficients")
        if isinstance(coeffs_doc, dict):
            coeffs = _weights_from_json(coeffs_doc, space, "coefficients")
        elif isinstance(coeffs_doc, list):
            coeffs = tuple(_rational(c, "coefficient") for c in coeffs_doc)
        else:
            raise IngestionError("extensional functional needs 'coefficients'")
        if len(coeffs) != len(space.atoms):
            raise IngestionError("functional: need exactly one coefficient "
                                 "per atom")
        try:
            # checked here too, so that an error names the document's key
            probability(coeffs, "coefficients")
            return duality.Functional.extensional(space, coeffs)
        except GirylabError as exc:
            raise IngestionError(f"functional: {exc}") from None
    if kind in _NAMED_FUNCTIONALS:
        return getattr(duality, _NAMED_FUNCTIONALS[kind])(space)
    raise IngestionError(
        f"unknown functional kind {kind!r}; expected 'extensional' or one of "
        f"{sorted(_NAMED_FUNCTIONALS)}")
