"""JSON formats for spaces, entourages, covers, decompositions, operators.

Formats:
  space       {"kind":"matrix","dist":[[...]]}
              {"kind":"grid","dim":n,"min":[...],"max":[...],"step":h}
              {"kind":"tree","edges":[[i,j],...]}
              {"kind":"hyperbolic_polar","kappa":k,"points":[[r,phi],...]}
              {"kind":"cloud","points":[[...],...]}        (artifact extension)
  entourage   {"kind":"radius","r":x}                      (optional "closed")
              {"kind":"pairs","pairs":[[i,j],...]}
  cover       {"sets":[[int,...],...],"families":[[int,...],...]?}
  decomposition {"blocks":[[int,...],...],"dims":[int,...]}
  operator    {"dims":[...],"re":[[...]],"im":[[...]]}      ("dims" and "im" optional)
  vector      [x,...]
  complex     {"coordinates":[[...],...],"maximal":[[int,...],...]}
  simplex grid {"corners":[[...],...],"resolution":int,"labeling":[int,...]?}
              (no or an empty "labeling": each vertex takes its nearest corner)
  model       {"space":space,"interior":[int,...],"corona":[int,...]}
  schedule    {"kind":"point"} or {"kind":"circle_arcs","points":n,"overlap":x},
              each with an optional "delta":{"c":x,"power":p}; "points",
              "overlap", "c" and "power" default to 720, 0.95, 4.0 and 1.5;
              "points" runs from 1 to the 10^7 point cap
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

from . import fixtures
from .corona import CompactificationModel, CoronaCoverSchedule
from .covers import Cover
from .errors import InvalidInputError, ResourceLimitError
from .spaces import POINT_CAP, Entourage, Space
from .support import BlockOperator, Decomposition
from .transforms import ColoredCover
from .witnesses import SimplexGrid, SimplicialComplex, nearest_corner_labeling


def load_space(doc: dict) -> Space:
    kind = _object(doc, "space").get("kind")
    if kind == "matrix":
        return Space.from_matrix(_floats(_field(doc, "dist", "matrix space"), "dist"))
    if kind == "grid":
        bounds = [_floats(_field(doc, key, "grid space"), key) for key in ("min", "max")]
        if any(b.ndim != 1 for b in bounds):
            raise InvalidInputError("grid min and max must be lists of numbers")
        return Space.grid(_integer(_field(doc, "dim", "grid space"), "dim"),
                          bounds[0].tolist(), bounds[1].tolist(),
                          _number(_field(doc, "step", "grid space"), "step"))
    if kind == "tree":
        return Space.tree(_pairs(_field(doc, "edges", "tree space"), "tree edges"))
    if kind == "hyperbolic_polar":
        points = _floats(_field(doc, "points", "hyperbolic space"), "points")
        if not points.size:
            raise InvalidInputError("hyperbolic space needs at least one point")
        if points.ndim != 2 or points.shape[1] != 2:
            raise InvalidInputError("hyperbolic points must be [r, phi] pairs")
        return Space.hyperbolic_polar(_number(_field(doc, "kappa", "hyperbolic space"), "kappa"),
                                      [tuple(p) for p in points.reshape(-1, 2).tolist()])
    if kind == "cloud":
        return Space.cloud(_floats(_field(doc, "points", "cloud space"), "points"))
    raise InvalidInputError(f"unknown space kind {kind!r}")


def dump_space(space: Space) -> dict:
    return space.backend.to_json()


def load_entourage(doc: dict, space: Space) -> Entourage:
    kind = _object(doc, "entourage").get("kind")
    if kind == "radius":
        return Entourage.radius(space, _number(_field(doc, "r", "radius entourage"), "r"),
                                closed=bool(doc.get("closed", False)))
    if kind == "pairs":
        return Entourage.from_pairs(space, _pairs(_field(doc, "pairs", "pairs entourage"),
                                                  "entourage pairs"))
    raise InvalidInputError(f"unknown entourage kind {kind!r}")


def load_cover(doc: dict, space: Space, require_covering: bool = True) -> Cover:
    sets = _index_lists(_field(_object(doc, "cover"), "sets", "cover"), "cover sets")
    families = doc.get("families")
    if families is not None:
        return ColoredCover(space, sets, _index_lists(families, "cover families"),
                            Entourage.diagonal(space),
                            require_covering=require_covering)
    return Cover(space, sets, require_covering=require_covering)


def dump_cover(cover: Cover) -> dict:
    out = {"sets": [list(s) for s in cover.sets]}
    if cover.families is not None:
        out["families"] = [list(f) for f in cover.families]
    return out


def load_decomposition(doc: dict) -> Decomposition:
    blocks = _index_lists(_field(_object(doc, "decomposition"), "blocks", "decomposition"),
                          "decomposition blocks")
    dims = _indices(_field(doc, "dims", "decomposition"), "decomposition dims")
    return Decomposition(Space.discrete(sum(len(b) for b in blocks)), blocks, dims)


def load_operator(doc: dict, decomposition: Decomposition) -> BlockOperator:
    re = _floats(_field(_object(doc, "operator"), "re", "operator"), "operator re")
    im = _floats(doc["im"], "operator im") if "im" in doc else np.zeros_like(re)
    if im.shape != re.shape:
        raise InvalidInputError("operator re and im must have the same shape")
    if "dims" in doc and tuple(_indices(doc["dims"], "operator dims")) != decomposition.dims:
        raise InvalidInputError("operator dims do not match the decomposition")
    return BlockOperator(decomposition, re + 1j * im)


def load_vector(doc) -> np.ndarray:
    return _floats(doc, "vector").astype(complex)


def load_complex(doc: dict) -> SimplicialComplex:
    coords = _field(_object(doc, "complex"), "coordinates", "complex")
    return SimplicialComplex(_floats(coords, "complex coordinates"),
                             _index_lists(_field(doc, "maximal", "complex"),
                                          "complex maximal simplices"))


def load_simplex_grid(doc: dict) -> SimplexGrid:
    corners = _floats(_field(_object(doc, "simplex grid"), "corners", "simplex grid"),
                      "simplex grid corners")
    if corners.ndim != 2 or not corners.size:
        raise InvalidInputError("simplex grid corners must be a non-empty list of points")
    resolution = _integer(_field(doc, "resolution", "simplex grid"), "simplex grid resolution")
    labeling = doc.get("labeling")
    labels = _indices(labeling, "simplex grid labeling") if labeling else None
    grid = SimplexGrid(corners, resolution)
    grid.labeling = labels if labels is not None else nearest_corner_labeling(grid)
    return grid


def load_model(doc: dict) -> CompactificationModel:
    space = load_space(_field(_object(doc, "model"), "space", "model"))
    return CompactificationModel(space,
                                 _indices(_field(doc, "interior", "model"), "model interior"),
                                 _indices(_field(doc, "corona", "model"), "model corona"))


def load_schedule(doc: dict) -> tuple[CoronaCoverSchedule, float, float]:
    """(schedule, c, power): the band schedule and the constants of its
    delta sequence c / (m + 1)^power."""
    kind = _object(doc, "schedule").get("kind")
    if kind == "point":
        schedule = fixtures.point_schedule()
    elif kind == "circle_arcs":
        points = _integer(doc.get("points", 720), "schedule points")
        if points < 1:
            raise InvalidInputError(f"schedule points must be at least 1, got {points}")
        if points > POINT_CAP:
            raise ResourceLimitError(
                f"a circle schedule of {points} points is beyond the {POINT_CAP} point cap")
        space = fixtures.circle_space(points)
        schedule = fixtures.circle_arc_schedule(
            space, _number(doc.get("overlap", 0.95), "schedule overlap"))
    else:
        raise InvalidInputError("schedule kind must be 'point' or 'circle_arcs'")
    delta = _object(doc.get("delta", {}), "schedule delta")
    return (schedule, _number(delta.get("c", 4.0), "delta c"),
            _number(delta.get("power", 1.5), "delta power"))


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as err:  # malformed JSON or text that is not UTF-8
            raise InvalidInputError(f"{path} is not a JSON document: {err}") from None


def write_json(path: str, doc) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python one
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Document checks: a malformed document is invalid input, never a crash
# ---------------------------------------------------------------------------


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} document must be a JSON object")
    return doc


def _field(doc: dict, key: str, what: str):
    if key not in doc:
        raise InvalidInputError(f"{what} document needs {key!r}")
    return doc[key]


def _number(value, what: str) -> float:
    """Finite numbers pass; NaN, the infinities (which Python's JSON reader
    accepts) and integers beyond the float range are rejected with bools,
    strings and the rest."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise InvalidInputError(f"{what} must be a finite number, got {value!r}")


def _floats(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, TypeError, ValueError) as err:
        raise InvalidInputError(f"{what} must be an array of numbers: {err}") from None


def _integer(value, what: str) -> int:
    """Integers and integral floats in the int64 range pass; bools,
    fractional floats, strings and the rest are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool) and -2 ** 63 <= value < 2 ** 63:
        return int(value)
    raise InvalidInputError(f"{what}: expected an integer, got {value!r}")


def _plain_int64(values: list) -> bool:
    """Whether every entry is an int (no bool, no float) in the int64 range,
    decided by one scan of the entry types and one int64 conversion. Such
    entries are what _integer returns unchanged; a document holding any
    other entry goes entry by entry through _integer, which accepts or
    rejects each as before and names the first bad one."""
    if not set(map(type, values)) <= {int}:
        return False
    try:
        np.array(values, dtype=np.int64)
    except OverflowError:
        return False
    return True


def _indices(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a list of integers")
    if _plain_int64(value):
        return list(value)
    return [_integer(v, what) for v in value]


def _index_lists(value, what: str) -> list:
    """A list of lists of integer indices."""
    if not isinstance(value, list) or not all(isinstance(row, (list, tuple)) for row in value):
        raise InvalidInputError(f"{what} must be a list of lists of integers")
    if _plain_int64(list(itertools.chain.from_iterable(value))):
        return [list(row) for row in value]
    return [[_integer(v, what) for v in row] for row in value]


def _pairs(value, what: str) -> list[tuple[int, int]]:
    rows = _index_lists(value, what)
    if any(len(row) != 2 for row in rows):
        raise InvalidInputError(f"{what} must be pairs [i, j]")
    return [tuple(row) for row in rows]
