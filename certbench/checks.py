"""Independent output checks and report digests.

Everything here is the benchmark's own code: it recounts covers from the
raw set lists with plain Python, so a defect in coarselab's own counting
cannot hide a wrong cover.
"""

from __future__ import annotations

import hashlib
import json


def recount(n_points: int, sets) -> tuple[list[int], int]:
    """(uncovered points, multiplicity) of a cover of range(n_points).

    Multiplicity follows coarselab's definition: sets with equal contents
    count once, empty sets never count.
    """
    counts = [0] * n_points
    for s in {tuple(sorted(s)) for s in sets if s}:
        for p in s:
            counts[p] += 1
    return [p for p, c in enumerate(counts) if c == 0], max(counts, default=0)


def cover_problems(doc: dict, n_points: int, mult_bound: int, universe=None,
                   n_families=None, reported=None) -> list[str]:
    """Problems found in a cover document {"sets": [...], "families": [...]}.

    universe: the points that must be covered (default: all points).
    reported: figures coarselab reported about this cover ("sets",
    "multiplicity", "families"); each must equal the recount.
    """
    sets = doc.get("sets", [])
    out = []
    for s in sets:
        if any(not 0 <= p < n_points for p in s):
            return [f"set index out of range 0..{n_points - 1}"]
    uncovered, mult = recount(n_points, sets)
    if universe is not None:
        need = set(universe)
        uncovered = [p for p in uncovered if p in need]
    if uncovered:
        out.append(f"{len(uncovered)} points uncovered, first {uncovered[0]}")
    if mult > mult_bound:
        out.append(f"multiplicity {mult} exceeds {mult_bound}")
    families = doc.get("families")
    if n_families is not None:
        got = len(families) if families is not None else None
        if got != n_families:
            out.append(f"{got} families, expected {n_families}")
    for fi, fam in enumerate(families or []):
        seen: set[int] = set()
        for si in fam:
            if seen.intersection(sets[si]):
                out.append(f"family {fi} has overlapping sets")
                break
            seen.update(sets[si])
    for key, value in (reported or {}).items():
        mine = {"sets": len(sets), "multiplicity": mult,
                "families": len(families) if families is not None else None}[key]
        if mine != value:
            out.append(f"reported {key} {value} but recount gives {mine}")
    return out


def guarantee_problems(guarantees) -> list[str]:
    return [f"guarantee {g.get('id')} failed" for g in guarantees
            if not g.get("pass")]


def digest(*parts) -> str:
    """Stable digest of JSON-like report parts (paths excluded by callers)."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
