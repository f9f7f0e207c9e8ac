"""Reference loops for the sparse set-containment kernel.

`covers.first_container` answers every "is this set inside some covering
set" question with one sparse product. The direct loops it replaced are
kept here, unchanged in their logic, as oracles for differential tests:
they are slow, but each step is plain to check by eye.
"""

import math

import numpy as np

TOL = 1e-9


def first_container_brute(queries: np.ndarray, sets: np.ndarray) -> list[int]:
    """Dense boolean rows: the first set row holding each query row, or -1."""
    out = []
    for q in queries:
        hit = [k for k, s in enumerate(sets) if np.all(s[q])]
        out.append(hit[0] if hit else -1)
    return out


def _set_masks(cover) -> np.ndarray:
    masks = np.zeros((len(cover.sets), cover.space.n), dtype=bool)
    for k, s in enumerate(cover.sets):
        masks[k, list(s)] = True
    return masks


def appetite_witness_loop(cover, entourage):
    """None if every non-empty E(x) fits inside some covering set, else the
    first failing x; one image and one mask scan per point."""
    masks = _set_masks(cover)
    n = cover.space.n
    ball = np.zeros(n, dtype=bool)
    for x in range(n):
        ball[:] = False
        ball[list(entourage.image([x]))] = True
        if not ball.any():
            continue
        if not np.any(np.all(masks[:, ball], axis=1)):
            return x
    return None


def band_appetite_scan(cover, schedule, deltas, win, width: int, depth: int):
    """The corona band appetite scan point by point: the ball of (c, m) must
    fit inside one of the sets incident to (c, m)."""
    corona = schedule.corona_space
    member_sets = [set(s) for s in cover.sets]
    incident: dict[int, list[int]] = {}
    for si, s in enumerate(cover.sets):
        for p in s:
            incident.setdefault(p, []).append(si)
    level_partners = [sorted(win.image([m])) for m in range(depth + 1)]
    for c in range(corona.n):
        row = corona.dist_row(c)
        for m in range(depth + 1):
            ball = set()
            for b in level_partners[m]:
                if b > depth:
                    continue
                cut = deltas[max(m, b) - 1] if max(m, b) >= 1 else math.inf
                for y in np.nonzero(row < cut - TOL)[0]:
                    ball.add(int(y) * width + b)
            point = c * width + m
            if not any(ball <= member_sets[si] for si in incident.get(point, [])):
                return (c, m)
    return None
