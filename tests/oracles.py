"""Reference loops for the sparse kernels.

`covers.first_container` answers every "is this set inside some covering
set" question with one sparse product, and a pairs `Entourage` is its
boolean CSR matrix, so the relation algebra is sparse matrix algebra. Radius
relations on grids and clouds come from a cell list, and the mesh of a
simplex subdivision from one vectorized norm. The direct loops and the
sorted-key algebra they replaced are kept here,
unchanged in their logic, as oracles for differential tests: they are slow,
but each step is plain to check by eye. A relation over n points is given
as its sorted unique int64 keys i * n + j.
"""

import math

import numpy as np

from coarselab.errors import ResourceLimitError
from coarselab.spaces import PAIR_CAP, RADIUS_TOL

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


# ---------------------------------------------------------------------------
# The relation algebra on sorted keys i * n + j
# ---------------------------------------------------------------------------


def materialize_rows_loop(entourage, cap=PAIR_CAP):
    """The keys of a radius relation from one full distance row per point,
    raising ResourceLimitError as soon as the running count passes cap."""
    space, r = entourage.space, entourage.r
    n = space.n
    rows = [np.empty(0, dtype=np.int64)]
    total = 0
    for i in range(n):
        d = space.dist_row(i)
        hits = np.nonzero(d <= r + RADIUS_TOL if entourage.closed else d < r - RADIUS_TOL)[0]
        total += hits.size
        if total > cap:
            raise ResourceLimitError(f"radius entourage would exceed the {cap} pair cap")
        rows.append(np.int64(i) * n + hits)
    return np.concatenate(rows)


def union_keys(ka, kb):
    return np.unique(np.concatenate([ka, kb]))


def inverse_keys(k, n):
    return np.unique((k % n) * n + (k // n))


def compose_keys(ka, kb, n):
    """{(x, z) | (x, y) in A, (y, z) in B}: each pair of A joined with the
    run of B's keys in row y."""
    out = []
    for k in ka:
        x, y = int(k // n), int(k % n)
        lo, hi = np.searchsorted(kb, [y * n, (y + 1) * n])
        out.extend(x * n + int(kb[t] % n) for t in range(lo, hi))
    return np.unique(np.array(out, dtype=np.int64))


def contains_key(keys, key) -> bool:
    pos = np.searchsorted(keys, key)
    return bool(pos < keys.size and keys[pos] == key)


def first_pair_outside_keys(mine, n, contains):
    """The first pair of mine, in key order, for which contains(i, j) fails."""
    for k in mine:
        i, j = int(k // n), int(k % n)
        if not contains(i, j):
            return (i, j)
    return None


def push_keys(k, table, n_src, n_tgt):
    return np.unique(table[k // n_src] * n_tgt + table[k % n_src])


def pull_keys(tkeys, table, n_src, n_tgt):
    """Source pairs (i, j) with (f(i), f(j)) in the target relation, one
    source row at a time."""
    out = [np.empty(0, dtype=np.int64)]
    for i in range(n_src):
        cand = table[i] * n_tgt + table
        hit = np.array([contains_key(tkeys, c) for c in cand], dtype=bool)
        out.append(np.int64(i) * n_src + np.nonzero(hit)[0])
    return np.unique(np.concatenate(out))


def product_keys(ka, na, kb, nb):
    """Keys of {((x,y),(x',y')) | (x,x') in A, (y,y') in B} over the product
    sample, where the point (x, y) has index x * nb + y."""
    xi, xj = ka // na, ka % na
    yi, yj = kb // nb, kb % nb
    left = (xi[:, None] * nb + yi[None, :]).ravel()
    right = (xj[:, None] * nb + yj[None, :]).ravel()
    return np.unique(left * (na * nb) + right)


def cover_entourage_keys(cover):
    """The union of U x U over the covering sets, one set at a time."""
    n = cover.space.n
    chunks = [np.empty(0, dtype=np.int64)]
    for s in set(cover.sets):
        idx = np.array(s, dtype=np.int64)
        chunks.append((idx[:, None] * n + idx[None, :]).ravel())
    return np.unique(np.concatenate(chunks))


# ---------------------------------------------------------------------------
# The corona maps, candidate by candidate
# ---------------------------------------------------------------------------


def filtration_set_loop(model, i):
    if i <= 0:
        return []
    return [p for p in range(len(model.interior))
            if model._corona_dist[p] >= 1.0 / i - TOL]


def map_f_loop(model, corona_index, n):
    row = model.ambient.dist_row(model.corona[corona_index])
    cand = [model.interior[p] for p in filtration_set_loop(model, n)]
    return int(min(cand, key=lambda idx: (row[idx], idx)))


def map_g_loop(model, interior_index):
    row = model.ambient.dist_row(interior_index)
    return int(min(range(len(model.corona)), key=lambda ci: (row[model.corona[ci]], ci)))


# ---------------------------------------------------------------------------
# The simplex subdivision, cell by cell
# ---------------------------------------------------------------------------


def cell_mesh_loop(grid):
    worst = 0.0
    for cell in grid.cells:
        pts = np.array([grid.vertex_point(v) for v in cell])
        for i in range(len(pts)):
            worst = max(worst, float(np.linalg.norm(pts - pts[i], axis=1).max()))
    return worst
