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
  operator    {"dims":[...],"re":[[...]],"im":[[...]]}
"""

from __future__ import annotations

import json

import numpy as np

from .covers import Cover
from .errors import InvalidInputError
from .spaces import Entourage, Space
from .support import BlockOperator, Decomposition
from .transforms import ColoredCover


def load_space(doc: dict) -> Space:
    kind = doc.get("kind")
    if kind == "matrix":
        return Space.from_matrix(np.asarray(doc["dist"], dtype=float))
    if kind == "grid":
        return Space.grid(int(doc["dim"]), doc["min"], doc["max"], float(doc["step"]))
    if kind == "tree":
        return Space.tree([tuple(e) for e in doc["edges"]])
    if kind == "hyperbolic_polar":
        return Space.hyperbolic_polar(float(doc["kappa"]),
                                      [tuple(p) for p in doc["points"]])
    if kind == "cloud":
        return Space.cloud(np.asarray(doc["points"], dtype=float))
    raise InvalidInputError(f"unknown space kind {kind!r}")


def dump_space(space: Space) -> dict:
    if space.kind == "matrix":
        return {"kind": "matrix", "dist": space.meta["matrix"].tolist()}
    if space.kind == "grid":
        coords = space.meta["coords"]
        return {"kind": "grid", "dim": space.meta["dim"],
                "min": coords.min(axis=0).tolist(),
                "max": coords.max(axis=0).tolist(),
                "step": space.meta["step"]}
    if space.kind == "tree":
        return {"kind": "tree", "edges": [list(e) for e in space.meta["edges"]]}
    if space.kind == "hyperbolic_polar":
        return {"kind": "hyperbolic_polar", "kappa": space.meta["kappa"],
                "points": [list(p) for p in space.points]}
    if space.kind == "cloud":
        return {"kind": "cloud", "points": space.meta["coords"].tolist()}
    raise InvalidInputError(f"space kind {space.kind!r} has no JSON form")


def load_entourage(doc: dict, space: Space) -> Entourage:
    kind = doc.get("kind")
    if kind == "radius":
        return Entourage.radius(space, float(doc["r"]), closed=bool(doc.get("closed", False)))
    if kind == "pairs":
        return Entourage.from_pairs(space, [tuple(p) for p in doc["pairs"]])
    raise InvalidInputError(f"unknown entourage kind {kind!r}")


def load_cover(doc: dict, space: Space, require_covering: bool = True) -> Cover:
    families = doc.get("families")
    if families is not None:
        return ColoredCover(space, doc["sets"], families,
                            Entourage.diagonal(space),
                            require_covering=require_covering)
    return Cover(space, doc["sets"], require_covering=require_covering)


def dump_cover(cover: Cover) -> dict:
    out = {"sets": [list(s) for s in cover.sets]}
    if cover.families is not None:
        out["families"] = [list(f) for f in cover.families]
    return out


def load_decomposition(doc: dict) -> Decomposition:
    blocks = doc["blocks"]
    total = sum(len(b) for b in blocks)
    space = Space.discrete(total)
    return Decomposition(space, blocks, doc["dims"])


def load_operator(doc: dict, decomposition: Decomposition) -> BlockOperator:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
    dims = [int(d) for d in doc.get("dims", decomposition.dims)]
    if tuple(dims) != decomposition.dims:
        raise InvalidInputError("operator dims do not match the decomposition")
    return BlockOperator(decomposition, re + 1j * im)


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
