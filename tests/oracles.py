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

The mesh of a grid or cloud cover skips the members whose box bound
cannot raise it, and a grid's Lebesgue number takes a full box's nearest
outside point in closed form. The dense loops over every point outside or
inside a set, with the Gram-form block they used, a scan of every
distance row, the block sweep of every member, the polar row loops and
the grid's sweep against outer boundaries are kept as their references.
So is the per-point bucketing loop of the cube cover.

A Cover is its incidence matrix, and colorize, product_refine and
merge_union work a level of sets at a time through sparse products. The
set-by-set code they replaced is kept here: the tuple constructor with its
canonical order, the family overlap and disjointness witnesses, interior
of one set, the shared-point tuples and intersections, the shield-and-trim
loop and merge's attach step. colorize erodes the sets once and intersects
the eroded sets; its per-level recipe, which eroded the intersections of
every level again, is kept here.

The corona module works in arrays: a compactification model reads one
interior x corona distance block, the arc covers of a circle test only
each arc's window of points, with the arc count found by bisection, and
the band appetite is decided from set margins, looked up once per run of
equal keys over slices deduplicated a run at a time. The point-by-point
appetite scan, the per-key margin lookup over slices ordered all at once,
the arc-by-arc cover with its step-by-2 arc count, roundtrip_bounds with
its distance rows, candidate minima and list.index lookups, and the
pair-by-pair tail widths of check_cc_entourage are kept here.

Every distance to the outside of a set, for the Lebesgue number and for
the band margins, comes from one backend kernel, outside_distances, and a
band's spreads from the backend's mesh. The set-by-set Lebesgue scan of
the base backend, the corona module's own block loop over member
distances with the margins and spreads it computed, and a per-entry row
scan of the kernel are kept here. A cloud finds the nearest point outside
a small set in a cell list, and the base mesh measures a small set by
flat member pairs; the sweep they replaced, with its blocks shared by
small sets against every point and its per-set blocks, is kept here too,
as is the per-level mat-vec loop of the band cover's prefix sets.

A tree's distances come from an Euler tour and a sparse table of range
minima, mesh takes a double sweep per set and the Lebesgue number one
search inward from each set's outer boundary, and the tree cover keys its
classes and separates them by array steps. The breadth-first searches they
replaced, one distance row at a time, the exhaustive class separation and
the vertex-by-vertex tree cover are kept here.

Each geometry is one metric backend in coarselab.spaces, with one
dist_block kernel under dist_row, dist and diameter. The per-kind branches
of Space.dist_row and Space.dist_block that it replaced, with the squared
option, and the dense mesh and Lebesgue scans over squared blocks, are
kept here; the row scans below read distances through them.

No certificate forms a power of a relation, a cover spread M^T M or a
composite bound: interiors under L^k are k erosions by L, appetite L^k is
read from the k-fold eroded sets, disjointness under L∘L and under
L∘D_A∘L∘D_A∘L from forward images of the sets, spread bounds from a
container test on the incidence rows, the lower bound's axis relations
from each set's members, the ray spread power from interval reaches and a
decomposition's bound one block at a time. The materialized forms they
replaced, Entourage.power among them, are kept here.

merge_union certifies on CSR index arrays: a spread gathers the sets that
each row meets from the cover's family owners, a forward image gathers the
relation's rows, and each (row, point) pair is kept once. The chain of
sparse products it replaced, rows + (rows @ M^T) @ M for each spread, the
attach matrix product, and the vstacked containers with their overlap
product, is kept here as merge_union_products.

The Sperner lower bound and the hyperbolic lift's checks work in arrays: a
simplex grid is built from the monotone lattice points and the permutation
step tables at once, its vertices are snapped to the sample together, the
simplex mask is one least-squares solve, the polar mesh skips the rows that
provably cannot raise it, and the contraction check measures all its pairs
in two calls. The vertex-by-vertex grid walk, snap and labelings, the
per-point least-squares mask, the row-by-row polar mesh, the pair-by-pair
contraction loop and the whole lower-bound certificate built from them are
kept here. The polar mesh oracle scans every row: the old loop skipped a
set once 2 max r <= the running maximum, which a computed distance can
break by rounding.

A grid's radius relation and neighbour graph come from a lattice stencil,
written straight into CSR from chunks in key order, and index lists load
in bulk when every entry is a plain int64. The head/tail construction of
the grid's neighbour graph through a COO matrix, and the loaders that
checked each index entry on its own, are kept here; the row scan
materialize_rows_loop above is the reference of the stencil.

A ray cover's sets are boxes of bands, built as a Kronecker power of the
band indicator rows; its family witness reads a band touch table, its
spread one reach per band, and the interval completion of a relation is a
prefix maximum and a suffix minimum of scattered pair ends. The member by
member builder with its set-pair witness, per-axis touch loop and
set-by-set spread test, the slice-per-pair interval completion and the
point-by-point sample of the positive cone are kept here.
"""

import math
from itertools import combinations, permutations, product as iproduct

import numpy as np

from scipy import sparse

from coarselab.errors import ContractViolationError, InvalidInputError, ResourceLimitError
from coarselab.jsonio import _integer
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
    """The first failure of band_appetite_failures, or None."""
    return next(band_appetite_failures(cover, schedule, deltas, win, width, depth), None)


def band_appetite_failures(cover, schedule, deltas, win, width: int, depth: int):
    """The corona band appetite scan point by point: the ball of (c, m) must
    fit inside one of the sets incident to (c, m). Yields the failing (c, m)
    in the order c * width + m."""
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
                yield (c, m)


def member_distances(space, sets, queries):
    """For the stored entries (s, x) of queries, in order, a block at a
    time: (the block's slice of the entries, the distances from each x to
    every point, and which of those points row s of sets holds)."""
    n = space.n
    rows = np.repeat(np.arange(queries.shape[0]), np.diff(queries.indptr))
    step = max(1, (1 << 16) // max(n, 1))
    for at in range(0, queries.nnz, step):
        part = slice(at, at + step)
        yield (part, space.dist_block(queries.indices[part], np.arange(n)),
               sets[rows[part]].toarray())


def slice_margins_loop(corona, members):
    """(queries, margins): the band appetite's margins as the corona module
    computed them from member_distances, at the members of each slice on a
    backend with zero self-distance and at every corona point otherwise."""
    if corona.backend.zero_self_distance:
        queries = members
    else:
        queries = sparse.csr_matrix(np.ones(members.shape, dtype=bool))
    margins = np.empty(queries.nnz)
    for part, d, inside in member_distances(corona, members, queries):
        d[inside] = np.inf
        margins[part] = d.min(axis=1)
    return queries, margins


def distinct_rows_lex(m):
    """(ids, rows): the distinct rows of the CSR matrix m in lexicographic
    order and each row's index among them, from one _lex_order of every
    row."""
    from coarselab.covers import _lex_order

    order, repeat = _lex_order(m)
    ids = np.empty(m.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(~repeat) - 1
    return ids, m[order[~repeat]]


def band_appetite_failures_keys(cover, schedule, deltas, win, width: int, depth: int):
    """The band appetite failures from set margins, every (slice, point) key
    of every entry and partner slot sorted and looked up on its own."""
    corona = schedule.corona_space
    nc = corona.n
    m = cover.incidence()
    owner = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    x, level = np.divmod(m.indices.astype(np.int64), width)
    slices = sparse.csr_matrix((np.ones(m.nnz, dtype=bool), (owner * width + level, x)),
                               shape=(m.shape[0] * width, nc))
    slice_id, members = distinct_rows_lex(slices)
    near = sparse.csr_matrix(win.matrix().T)[:depth + 1, :depth + 1]
    near.sort_indices()
    count = np.diff(near.indptr)
    slots = int(count.max(initial=0))
    partner = np.zeros((depth + 1, slots), dtype=np.int64)
    cut = np.full((depth + 1, slots), -np.inf)
    filled = np.arange(slots) < count[:, None]
    partner[filled] = near.indices
    top = np.maximum(np.arange(depth + 1)[:, None], partner)
    deltas = np.asarray(deltas, dtype=float)
    cut[filled] = np.where(top >= 1, deltas[top - 1], np.inf)[filled] - TOL
    checked = level <= depth
    owner, x, level = owner[checked], x[checked], level[checked]
    keys = [slice_id[owner * width + partner[level, t]] * nc + x for t in range(slots)]
    pairs = np.unique(np.concatenate([np.empty(0, dtype=np.int64)] + keys))
    queries = sparse.csr_matrix((np.ones(pairs.size, dtype=bool), np.divmod(pairs, nc)),
                                shape=members.shape)
    margins = corona.backend.outside_distances(queries, members)
    ok = np.ones(owner.size, dtype=bool)
    for t, key in enumerate(keys):
        ok &= margins[np.searchsorted(pairs, key)] >= cut[level, t]
    passed = np.zeros(nc * width, dtype=bool)
    passed[(x * width + level)[ok]] = True
    return ~passed & (np.arange(nc * width) % width <= depth)


def window_prefixes_loop(step, depth):
    """The prefix sets K_0, K_1, ... of corona_dim_cover as boolean masks
    over the levels, one sparse mat-vec step @ reach per level until the
    last level is reached or the sets stop growing."""
    reach = np.zeros(step.shape[0], dtype=bool)
    reach[0] = True
    prefixes = [reach]
    while True:
        nxt = reach | (step @ reach).astype(bool)
        if np.array_equal(nxt, reach):
            last = int(np.flatnonzero(reach)[-1])
            if last < depth:
                raise ContractViolationError(
                    "window relation never reaches the requested depth", witness=last)
            break
        prefixes.append(nxt)
        reach = nxt
        if reach[-1]:
            break
    return np.array(prefixes)


def band_bookkeeping_loop(cover, schedule, scales, cuts, bands, width: int):
    """The band cover's (d_m, proj_ok) as the corona module computed them:
    the spread of each distinct projection from member_distances, a member's
    own distance counted, and the whole corona as one more projection whose
    spread is the head value."""
    from coarselab.corona import _distinct

    corona = schedule.corona_space
    m = cover.incidence()
    k = m.shape[0]
    owner = np.repeat(np.arange(k), np.diff(m.indptr))
    point, level = np.divmod(m.indices.astype(np.int64), width)
    projections = sparse.vstack([
        sparse.csr_matrix((np.ones(m.nnz, dtype=bool), (owner, point)), shape=(k, corona.n)),
        sparse.csr_matrix(np.ones((1, corona.n), dtype=bool))], format="csr")
    proj_id, distinct = _distinct(projections)
    reach = np.empty(distinct.nnz)
    for part, d, inside in member_distances(corona, distinct, distinct):
        d[~inside] = -np.inf
        reach[part] = d.max(axis=1)
    spread = np.full(distinct.shape[0], -np.inf)
    np.maximum.at(spread, np.repeat(np.arange(distinct.shape[0]), np.diff(distinct.indptr)),
                  reach)
    head = max(1.0, float(spread[proj_id[k]]))
    ordered = sorted(i for i in cuts if i >= 0)
    layer = np.full(width, ordered[-1])
    for i in reversed(ordered):
        layer[bands(cuts[i])] = i
    d_m = np.where(layer <= 1, head, 1.0 / np.array(scales)[np.maximum(layer - 2, 0)])
    top = np.full(k, -1)
    np.maximum.at(top, owner, level)
    proj_ok = not np.any(spread[proj_id[:k]] > d_m[top] + TOL)
    return d_m.tolist(), proj_ok


# ---------------------------------------------------------------------------
# Distances, one branch per kind
# ---------------------------------------------------------------------------


def _squared_distances(x, y):
    total = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))
    for a in range(x.shape[-1]):
        t = x[..., a] - y[..., a]
        total += t * t
    return total


def dist_row_by_kind(space, i):
    """Space.dist_row as a switch on the space's kind."""
    from coarselab.spaces import hyperbolic_distance

    kind, meta = space.kind, space.meta
    if kind == "tree":
        return meta["table"].dist(i, np.arange(space.n)).astype(float)
    if kind == "matrix":
        return meta["matrix"][i]
    if kind in ("grid", "cloud"):
        coords = meta["coords"]
        return np.sqrt(_squared_distances(coords, coords[i]))
    if kind == "hyperbolic_polar":
        return hyperbolic_distance(meta["kappa"], meta["r"][i], meta["phi"][i],
                                   meta["r"], meta["phi"])
    if kind == "discrete":
        row = np.ones(space.n)
        row[i] = 0.0
        return row
    a, b = meta["left"], meta["right"]
    ia, ib = divmod(i, b.n)
    return np.repeat(dist_row_by_kind(a, ia), b.n) + np.tile(dist_row_by_kind(b, ib), a.n)


def dist_block_by_kind(space, rows, cols, squared=False):
    """Space.dist_block as a switch on the space's kind, squaring every
    kind's distances under squared=True."""
    from coarselab.spaces import hyperbolic_distance

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    kind, meta = space.kind, space.meta
    if kind in ("grid", "cloud"):
        coords = meta["coords"]
        d2 = _squared_distances(coords[rows][:, None, :], coords[cols][None, :, :])
        return d2 if squared else np.sqrt(d2)
    if kind == "matrix":
        block = meta["matrix"][np.ix_(rows, cols)]
    elif kind == "tree":
        block = meta["table"].dist(rows[:, None], cols[None, :]).astype(float)
    elif kind == "hyperbolic_polar":
        r, p = meta["r"], meta["phi"]
        block = hyperbolic_distance(meta["kappa"], r[rows][:, None], p[rows][:, None],
                                    r[cols][None, :], p[cols][None, :])
    else:
        block = np.array([dist_row_by_kind(space, int(i))[cols] for i in rows]).reshape(
            rows.size, cols.size)
    return block ** 2 if squared else block


def diameter_rows(space):
    return max(float(dist_row_by_kind(space, i).max()) for i in range(space.n))


def mesh_squared_blocks(cover):
    """The largest set diameter from squared dist_block_by_kind blocks of
    each distinct set against itself, one square root at the end."""
    def squared(space, rows, cols):
        return dist_block_by_kind(space, rows, cols, squared=True)
    return mesh_loop(cover, squared)


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
        d = dist_row_by_kind(space, i)
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
# The corona maps, candidate by candidate, and the circle arc covers
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


def corona_dist_loop(model):
    """d(x, corona) for every interior point, one distance row each."""
    corona = np.array(model.corona, dtype=np.int64)
    return np.array([float(model.ambient.dist_row(i)[corona].min()) for i in model.interior])


def filtration_index_loop(model, pos):
    return max(1, int(math.ceil(1.0 / model._corona_dist[pos] - TOL)))


def widths_loop(model):
    out = []
    for i in range(model.depth + 1):
        xi = [model.interior[p] for p in filtration_set_loop(model, i)]
        if not xi:
            out.append(math.inf)
            continue
        xi_arr = np.array(xi, dtype=np.int64)
        worst = 0.0
        for c in model.corona:
            worst = max(worst, float(model.ambient.dist_row(c)[xi_arr].min()))
        out.append(worst)
    return out


def roundtrip_bounds_loop(model):
    """roundtrip_bounds point by point, with list.index lookups."""
    worst_ratio = 0.0
    fg_failures = []
    for pos, x in enumerate(model.interior):
        ci = map_g_loop(model, x)
        level = filtration_index_loop(model, pos)
        y = map_f_loop(model, ci, level)
        d = model.ambient.dist(x, y)
        if level >= 2:
            bound = 2.0 / (level - 1)
            if d > bound + TOL:
                fg_failures.append((x, level, d, bound))
            if bound > 0:
                worst_ratio = max(worst_ratio, d / bound)

    widths = widths_loop(model)
    gf_failures = []
    checked = 0
    for k in range(1, model.depth + 1):
        if not filtration_set_loop(model, k):
            continue
        a_k = widths[k] if k < len(widths) else math.inf
        n_k = None
        if a_k < 1.0:
            n_k = int(math.floor(1.0 / a_k - TOL)) if a_k > 0 else model.depth
        for ci in range(len(model.corona)):
            y = map_f_loop(model, ci, k)
            pos = model.interior.index(y)
            k_tilde = filtration_index_loop(model, pos)
            checked += 1
            if k_tilde > k:
                gf_failures.append((ci, k, k_tilde, "above"))
            if n_k is not None and k_tilde < n_k + 1:
                gf_failures.append((ci, k, k_tilde, f"below n_k+1 = {n_k + 1}"))
    return {
        "fg_failures": fg_failures,
        "gf_failures": gf_failures,
        "gf_checked": checked,
        "fg_worst_ratio": worst_ratio,
    }


def check_cc_entourage_loop(model, entourage, schedule_constant=None, schedule_power=1.0):
    """check_cc_entourage pair by pair and level by level."""
    interior_set = set(model.interior)
    pairs = [(i, j) for i, j in entourage.materialize().pairs()
             if i in interior_set and j in interior_set]
    pos_of = {x: p for p, x in enumerate(model.interior)}
    exhaust = model.depth
    for level in range(1, model.depth + 1):
        if len(filtration_set_loop(model, level)) == len(model.interior):
            exhaust = level
            break
    depth_eval = max(2, exhaust - 1)
    rho = []
    for level in range(1, depth_eval + 1):
        cut = 1.0 / level - TOL
        worst = 0.0
        for i, j in pairs:
            if model._corona_dist[pos_of[i]] < cut or model._corona_dist[pos_of[j]] < cut:
                d = model.ambient.dist(i, j)
                if d > worst:
                    worst = d
        rho.append(worst)
    prefix = max(1, depth_eval // 4)
    if schedule_constant is None:
        schedule_constant = 2.0 * max(
            (level + 1) ** schedule_power * r
            for level, r in enumerate(rho[:prefix]))
        schedule_constant = max(schedule_constant, TOL)
    tail_from = max(prefix + 1, depth_eval // 2 + 1)
    controlled = all(
        rho[level - 1] <= schedule_constant / level ** schedule_power + TOL
        for level in range(tail_from, depth_eval + 1))
    return {
        "rho": rho,
        "depth": depth_eval,
        "controlled": bool(controlled),
        "schedule_constant": schedule_constant,
        "schedule_power": schedule_power,
    }


def arc_count_loop(overlap, k):
    """The fewest arcs m (even, at least 4) whose chord
    2 sin(min(2pi/m * overlap, pi / 2)) is at most 1/k, stepping m by 2.
    It never ends where no m passes, as for a huge overlap."""
    reach = 2 * overlap

    def chord(angle):
        return 2 * math.sin(min(angle / 2, math.pi / 2))

    m = 4
    while chord(2 * math.pi / m * reach) > 1.0 / k:
        m += 2
    return m


def arc_cover_loop(n, overlap, k):
    """(sets, families) of the scale-k arc cover of the n-point circle
    sample, arc by arc: arc_count_loop arcs, and arc j holds the points
    within overlap * 2pi/m of j * 2pi/m, each arc measured against every
    point."""
    m = arc_count_loop(overlap, k)
    angles = np.arange(n) * (2 * math.pi / n)
    sigma = 2 * math.pi / m
    half = overlap * sigma
    sets, fams = [], [[], []]
    for j in range(m):
        center = j * sigma
        d = np.abs((angles - center + math.pi) % (2 * math.pi) - math.pi)
        members = [int(p) for p in np.nonzero(d <= half - 1e-12)[0]]
        fams[j % 2].append(len(sets))
        sets.append(members)
    return sets, fams


# ---------------------------------------------------------------------------
# The simplex subdivision, cell by cell
# ---------------------------------------------------------------------------


def cell_mesh_loop(cells, point):
    """The largest distance between two vertices of a cell, point(v) the
    coordinates of vertex v."""
    worst = 0.0
    for cell in cells:
        pts = np.array([point(v) for v in cell])
        for i in range(len(pts)):
            worst = max(worst, float(np.linalg.norm(pts - pts[i], axis=1).max()))
    return worst


class SimplexGridLoop:
    """The staircase subdivision built by walking every lattice tuple, base
    point by base point, permutation by permutation, step by step; vertices
    are tuples numbered in order of first appearance, cells sorted tuples."""

    def __init__(self, corners, resolution):
        self.corners = np.asarray(corners, dtype=float)
        self.n = self.corners.shape[0] - 1
        self.resolution = resolution
        self.vertices = []
        self._vid = {}
        self.cells = []
        self._build()

    def _build(self):
        m, n = self.resolution, self.n
        if n == 0:
            self.vertices = [(m,)]
            self._vid[(m,)] = 0
            self.cells = [(0,)]
            return

        def y_to_bary(y):
            prev = m
            out = []
            for val in y:
                out.append(prev - val)
                prev = val
            out.append(prev)
            return tuple(out)

        def valid(y):
            prev = m
            for val in y:
                if val > prev or val < 0:
                    return False
                prev = val
            return True

        def vid(y):
            b = y_to_bary(y)
            got = self._vid.get(b)
            if got is None:
                got = len(self.vertices)
                self._vid[b] = got
                self.vertices.append(b)
            return got

        lattice = [y for y in iproduct(range(m + 1), repeat=n) if valid(y)]
        for y in lattice:
            for perm in permutations(range(n)):
                chain = [tuple(y)]
                ok = True
                cur = list(y)
                for axis in perm:
                    cur[axis] += 1
                    if not valid(cur):
                        ok = False
                        break
                    chain.append(tuple(cur))
                if ok:
                    self.cells.append(tuple(vid(y2) for y2 in chain))
        self.cells = sorted(set(tuple(sorted(c)) for c in self.cells))
        self.cells = [c for c in self.cells if len(set(c)) == self.n + 1]

    def vertex_point(self, vid):
        b = np.array(self.vertices[vid], dtype=float) / self.resolution
        return b @ self.corners

    def support(self, vid):
        return frozenset(i for i, c in enumerate(self.vertices[vid]) if c > 0)


def fully_labeled_cells_loop(grid, lab):
    want = set(range(grid.n + 1))
    return [cell for cell in grid.cells if {lab[v] for v in cell} == want]


def nearest_corner_labeling_loop(grid):
    return {vid: max(range(len(b)), key=lambda i: (b[i], -i))
            for vid, b in enumerate(grid.vertices)}


def constant_interior_labeling_loop(grid, label=0):
    lab = {}
    for vid in range(len(grid.vertices)):
        sup = grid.support(vid)
        lab[vid] = label if len(sup) == grid.n + 1 else min(sup)
    return lab


def random_admissible_labeling_loop(grid, rng):
    lab = {}
    for vid in range(len(grid.vertices)):
        sup = sorted(grid.support(vid))
        lab[vid] = sup[rng.randint(0, len(sup) - 1)]
    return lab


def in_simplex_mask_loop(coords, corners):
    """Barycentric coordinates by one least-squares solve per point."""
    A = np.vstack([corners.T, np.ones(corners.shape[0])])
    mask = np.zeros(coords.shape[0], dtype=bool)
    for i, x in enumerate(coords):
        b = np.concatenate([x, [1.0]])
        lam, res, *_ = np.linalg.lstsq(A, b, rcond=None)
        recon = A @ lam
        if np.linalg.norm(recon - b) < 1e-7 and np.all(lam > -1e-9):
            mask[i] = True
    return mask


def snap_to_sample_loop(v, support, n, r, step, coord_index):
    """One vertex at a time; coord_index maps rounded coordinate tuples to
    sample indices."""
    x = np.round(v / step) * step
    if n >= 2:
        if 0 not in support:
            x[0] = 0.0
        for j in range(1, n - 1):
            if j not in support:
                x[j - 1] = x[j]
        if (n - 1) not in support:
            diff = x[n - 1] - x[n - 2]
            x[n - 1] = x[n - 2] + min(max(diff, 0.0), 1.0)
        if n not in support:
            x[n - 1] = r
    else:
        if 0 not in support:
            x[0] = min(max(x[0], step), 1.0)
        if 1 not in support:
            x[0] = r
    x[n - 1] = max(x[n - 1], step)
    for i in range(n - 1):
        x[i] = min(max(x[i], 0.0), x[n - 1])
    got = coord_index.get(tuple(np.round(x, 9)))
    if got is not None and np.linalg.norm(x - v) <= 1.0:
        return got
    return None


def subdivide_to_mesh_loop(corners, target):
    diam = 0.0
    for i in range(corners.shape[0]):
        diam = max(diam, float(np.linalg.norm(corners - corners[i], axis=1).max()))
    res = max(2, int(math.ceil(diam * max(1, corners.shape[1]) / target)))
    grid = SimplexGridLoop(corners, res)
    while cell_mesh_loop(grid.cells, grid.vertex_point) > target and res < 4000:
        res = int(res * 1.5) + 1
        grid = SimplexGridLoop(corners, res)
    return grid


def simplex_lower_bound_loop(cover, n):
    """The lower-bound certificate with set-based axis relations, one snap
    and one face label per vertex, and the raw recount over Python sets."""
    from coarselab.covers import cover_entourage, first_container
    from coarselab.errors import ContractViolationError, InternalCheckError, InvalidInputError
    from coarselab.spaces import Entourage
    from coarselab.witnesses import FLOAT_TOL, _face_predicates, _min_positive_gap

    space = cover.space
    if space.kind not in ("cloud", "grid"):
        raise InvalidInputError("needs a coordinate-backed sample")
    coords = space.meta["coords"]
    if coords.shape[1] != n:
        raise InvalidInputError("sample dimension does not match n")
    step = _min_positive_gap(coords)
    if abs(round(1.0 / step) - 1.0 / step) > FLOAT_TOL:
        raise InvalidInputError("sample step must divide 1")
    unit = Entourage.radius(space, 1.0, closed=True)
    deep = first_container(unit.matrix().T, cover.incidence())
    if np.any(deep < 0):
        aw = int(np.argmax(deep < 0))
        raise ContractViolationError(
            f"cover lacks unit appetite at sample point {aw}", witness=aw)
    spread = cover_entourage(cover).matrix().tocoo()
    rows, cols = spread.row, spread.col
    lattice = np.round(coords / step).astype(np.int64)
    axis_rel = [set(zip(lattice[rows, ax].tolist(), lattice[cols, ax].tolist()))
                for ax in range(n)]

    def rel_image(rel, vals):
        return {a for a, b in rel if b in vals}

    unit_lat = int(round(1.0 / step))
    chain = {0}
    for ax in range(n - 1):
        chain = rel_image(axis_rel[ax], chain)
        chain.add(0)
    chain = {v + d for v in chain for d in range(-unit_lat, unit_lat + 1) if v + d >= 0}
    chain = rel_image(axis_rel[n - 1], chain) | chain
    top = max(chain) if chain else 0
    r_lat = max(top + 1, unit_lat + 1)
    r = r_lat * step
    if r > coords[:, -1].max() + FLOAT_TOL:
        raise ContractViolationError(
            "cover is not uniformly bounded relative to the sampled region: "
            f"the level r = {r} does not fit", witness=r)
    corners = np.zeros((n + 1, n))
    for j in range(n):
        corners[j, j:] = r
    corners[n, n - 1] = 1.0
    faces = _face_predicates(n, r)
    simplex_pts = in_simplex_mask_loop(coords, corners)

    def face_label(si):
        pts = coords[list(cover.sets[si])]
        for i, pred in enumerate(faces):
            if not np.any(pred(pts)):
                return i
        raise InternalCheckError(
            f"covering set {si} meets every face level; this contradicts "
            "the spanning bound")

    assignment = {si: face_label(si) for si, s in enumerate(cover.sets)
                  if np.any(simplex_pts[list(s)])}
    coord_index = {tuple(np.round(c, 9)): i for i, c in enumerate(coords)}
    grid = subdivide_to_mesh_loop(corners, target=0.45)
    labeling, anchors = {}, {}
    for vid in range(len(grid.vertices)):
        anchor = snap_to_sample_loop(grid.vertex_point(vid), grid.support(vid), n, r, step,
                                     coord_index)
        if anchor is None:
            raise InternalCheckError(f"no sample anchor near subdivision vertex {vid}")
        si = int(deep[anchor])
        if si not in assignment:
            assignment[si] = face_label(si)
        anchors[vid] = si
        labeling[vid] = assignment[si]
    for vid in range(len(grid.vertices)):
        if labeling[vid] not in grid.support(vid):
            raise InvalidInputError(
                f"labeling not admissible at vertex {vid}: "
                f"label {labeling[vid]} outside support {sorted(grid.support(vid))}")
    hits = fully_labeled_cells_loop(grid, labeling)
    if not hits:
        raise InternalCheckError("no fully-labeled cell found for an admissible labeling")
    cell = hits[0]
    cell_sets = sorted({anchors[v] for v in cell})
    if len(cell_sets) != n + 1:
        raise InternalCheckError("fully-labeled cell does not span n+1 distinct sets")
    bary = np.mean([grid.vertex_point(v) for v in cell], axis=0)
    common = set(cover.sets[cell_sets[0]]).intersection(*(cover.sets[si] for si in cell_sets[1:]))
    cands = np.array(sorted(common), dtype=np.int64)
    if cands.size == 0:
        raise InternalCheckError("no sample point realizes the n+1-fold overlap")
    witness_point = int(cands[int(np.argmin(np.linalg.norm(coords[cands] - bary, axis=1)))])
    containing = [si for si in range(len(cover.sets)) if witness_point in set(cover.sets[si])]
    if len(containing) < n + 1:
        raise InternalCheckError("certificate failed the raw recount")
    return {"point": witness_point, "sets": [int(s) for s in cell_sets],
            "all_containing_sets": containing, "r": r, "corners": corners.tolist(),
            "cell": [int(v) for v in cell], "fully_labeled_count": len(hits)}


# ---------------------------------------------------------------------------
# The hyperbolic lift's checks, row by row and pair by pair
# ---------------------------------------------------------------------------


def polar_mesh_rows(disk, cover):
    """Every row of every set against the whole set."""
    from coarselab.spaces import hyperbolic_distance

    rr, ph = disk.meta["r"], disk.meta["phi"]
    worst = 0.0
    for s in cover.sets:
        idx = np.array(s, dtype=np.int64)
        if idx.size < 2:
            continue
        rs, ps = rr[idx], ph[idx]
        for t in range(idx.size):
            d = hyperbolic_distance(disk.meta["kappa"], rs[t], ps[t], rs, ps)
            worst = max(worst, float(d.max()))
    return worst


def polar_mesh_pruned(disk, cover):
    """hyperbolic._polar_mesh as it was: each set's rows in descending
    reach, stopping at the first that cannot raise the running maximum."""
    from coarselab.spaces import hyperbolic_distance

    rr, ph = disk.meta["r"], disk.meta["phi"]
    kappa = disk.meta["kappa"]
    s = math.sqrt(-kappa)
    c, h = np.cosh(rr * s), np.sinh(rr * s)
    m = cover.incidence()
    worst = 0.0
    for k in range(m.shape[0]):
        idx = m.indices[m.indptr[k]:m.indptr[k + 1]]
        if idx.size < 2:
            continue
        rs, ps = rr[idx], ph[idx]
        ch = c[idx] * c[idx].max() + h[idx] * h[idx].max()
        reach = np.arccosh(np.maximum(ch * (1 + 2.0 ** -40), 1.0)) / s
        for t in np.argsort(-reach, kind="stable"):
            if reach[t] <= worst:
                break
            d = hyperbolic_distance(kappa, rs[t], ps[t], rs, ps)
            worst = max(worst, float(d.max()))
    return worst


def check_contraction_loop(kappa, rho, k, space, rng, trials):
    from coarselab.hyperbolic import TOL, radial_projection
    from coarselab.spaces import hyperbolic_distance

    rr, ph = space.meta["r"], space.meta["phi"]
    outside = np.nonzero(rr >= k * rho - TOL)[0]
    worst = -math.inf
    for _ in range(trials):
        i = int(outside[rng.randint(0, outside.size - 1)])
        j = int(outside[rng.randint(0, outside.size - 1)])
        if i == j:
            continue
        x, y = (rr[i], ph[i]), (rr[j], ph[j])
        d = float(hyperbolic_distance(kappa, x[0], x[1], y[0], y[1]))
        tx, ty = radial_projection(x, k, rho), radial_projection(y, k, rho)
        dt = float(hyperbolic_distance(kappa, tx[0], tx[1], ty[0], ty[1]))
        worst = max(worst, dt - d)
    return worst


# ---------------------------------------------------------------------------
# Lebesgue number and mesh
# ---------------------------------------------------------------------------


def gram_block(space, rows, cols):
    """Squared euclidean distances in the Gram form |x|^2 + |y|^2 - 2<x, y>,
    clamped at 0: exact on small integer coordinates, but it cancels away
    from the origin and depends on the block's shape."""
    coords = space.meta["coords"]
    sq = np.einsum("ij,ij->i", coords, coords)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    d2 = sq[rows][:, None] + sq[cols][None, :] - 2.0 * (coords[rows] @ coords[cols].T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def set_diameter_loop(space, s, block=gram_block):
    idx = np.array(sorted(set(int(i) for i in s)), dtype=np.int64)
    if idx.size < 2:
        return 0.0
    worst = 0.0
    chunk = max(1, (1 << 21) // max(idx.size, 1))
    for at in range(0, idx.size, chunk):
        worst = max(worst, float(block(space, idx[at:at + chunk], idx).max()))
    return math.sqrt(worst)


def mesh_loop(cover, block=gram_block):
    """Each distinct set against all its members."""
    return max((set_diameter_loop(cover.space, s, block) for s in set(cover.sets)),
               default=0.0)


def lebesgue_number_loop(cover, block=gram_block):
    """Each set's members against every point outside it."""
    n = cover.space.n
    if n == 0 or any(len(s) == n for s in cover.sets):
        return math.inf
    best = np.zeros(n)
    for s in cover.sets:
        if not s:
            continue
        members = np.array(s, dtype=np.int64)
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        comp = np.nonzero(outside)[0]
        chunk = max(1, (1 << 21) // max(comp.size, 1))
        for at in range(0, members.size, chunk):
            rows = members[at:at + chunk]
            d = block(cover.space, rows, comp).min(axis=1)
            np.maximum.at(best, rows, d)
    return math.sqrt(float(best.min()))


def lebesgue_scan(space, m):
    """The Lebesgue number of the incidence matrix m, none of whose rows
    holds every point, set by set: each set's members against every point
    outside it, on the backend's keys, inverted once at the end."""
    backend = space.backend
    n = m.shape[1]
    best = np.zeros(n)
    for k in np.flatnonzero(np.diff(m.indptr)):
        members = m.indices[m.indptr[k]:m.indptr[k + 1]].astype(np.int64)
        outside = np.ones(n, dtype=bool)
        outside[members] = False
        comp = np.flatnonzero(outside)
        chunk = max(1, (1 << 21) // max(comp.size, 1))
        for at in range(0, members.size, chunk):
            rows = members[at:at + chunk]
            np.maximum.at(best, rows, backend._key_block(rows, comp).min(axis=1))
    return float(backend._from_key(float(best.min())))


def outside_distances_rows(space, queries, sets):
    """For each entry (k, x) of queries, in order, from one distance row
    per entry: the least distance from x to a point outside row k of sets,
    +inf when there is none."""
    n = space.n
    rows = np.repeat(np.arange(queries.shape[0]), np.diff(queries.indptr))
    out = []
    for k, x in zip(rows.tolist(), queries.indices.tolist()):
        outside = np.ones(n, dtype=bool)
        outside[sets.indices[sets.indptr[k]:sets.indptr[k + 1]]] = False
        row = dist_row_by_kind(space, x)
        out.append(float(row[outside].min()) if outside.any() else math.inf)
    return np.array(out)


def sweep_blocks(backend, rows, points, sets, outside, shared, reduce=np.minimum,
                 entry_block=1 << 16, cover_block=1 << 21):
    """The two-mode sweep that the member-pair mesh and the cloud cell list
    replaced: for entries grouped by row, the keys from points[e] to the
    points outside row rows[e] of sets (outside) or in it, reduced by the
    ufunc reduce, +inf where there are none. Entries where shared holds
    take blocks of entry_block keys against every point, the other points
    masked (outside takes the minimum) or gathered; the rest go row by row,
    cover_block keys a block."""
    n = backend.n
    sizes = np.diff(sets.indptr)
    every = np.arange(n, dtype=np.int64)
    out = np.full(rows.size, np.inf)
    step = max(1, entry_block // max(n, 1))
    shared, alone = np.flatnonzero(shared), np.flatnonzero(~shared)
    for at in range(0, shared.size, step):
        part = shared[at:at + step]
        d = backend._key_block(points[part], every)
        count = sizes[rows[part]]
        held = (np.repeat(np.arange(part.size), count),
                np.concatenate([np.empty(0, dtype=np.int64)] + [
                    sets.indices[sets.indptr[k]:sets.indptr[k + 1]] for k in rows[part]]))
        if outside:
            d[held] = np.inf
            out[part] = d.min(axis=1)
        else:
            out[part] = reduce.reduceat(d[held], np.cumsum(count) - count)
    starts = np.flatnonzero(np.diff(rows[alone], prepend=-1))
    for a, b in zip(starts.tolist(), starts[1:].tolist() + [alone.size]):
        k = rows[alone[a]]
        cand = sets.indices[sets.indptr[k]:sets.indptr[k + 1]].astype(np.int64)
        if outside:
            cand = np.setdiff1d(every, cand, assume_unique=True)
        if not cand.size:
            continue
        chunk = max(1, cover_block // cand.size)
        for at in range(a, b, chunk):
            part = alone[at:min(at + chunk, b)]
            out[part] = reduce.reduce(backend._key_block(points[part], cand), axis=1)
    return out


def outside_distances_blocks(space, queries, sets):
    """outside_distances of a cloud by sweep_blocks: a set of more than half
    the points against its complement, the members of smaller sets in
    shared blocks against every point."""
    backend = space.backend
    n = space.n
    keys = np.repeat(np.arange(queries.shape[0], dtype=np.int64), np.diff(queries.indptr)) * n
    keys += queries.indices
    held = np.repeat(np.arange(sets.shape[0], dtype=np.int64), np.diff(sets.indptr)) * n
    at = np.isin(keys, held + sets.indices)
    rows, points = np.divmod(keys[at], n)
    out = np.zeros(keys.size)
    shared = 2 * np.diff(sets.indptr)[rows] <= n
    out[at] = backend._from_key(sweep_blocks(backend, rows, points, sets, True, shared))
    return out


def outer_boundary_outside(space, queries, sets):
    """outside_distances of a grid as it was before full boxes took a
    closed form: each member entry swept against its set's outer boundary,
    the points outside it next to a member (0 at an entry outside its
    set)."""
    backend = space.backend
    n = space.n
    keys = np.repeat(np.arange(queries.shape[0], dtype=np.int64), np.diff(queries.indptr)) * n
    keys += queries.indices
    held = np.repeat(np.arange(sets.shape[0], dtype=np.int64), np.diff(sets.indptr)) * n
    at = np.isin(keys, held + sets.indices)
    rows, points = np.divmod(keys[at], n)
    outer = (sparse.csr_matrix(sets, dtype=np.int32) @ backend.adjacency()).astype(bool) > sets
    out = np.zeros(keys.size)
    out[at] = np.sqrt(sweep_blocks(backend, rows, points, outer, False,
                                   np.zeros(rows.size, dtype=bool)))
    return out


def mesh_blocks(space, m):
    """The mesh of the rows of m by sweep_blocks: rows whose members'
    distance rows fit in 4,096 entries in shared blocks, the members
    gathered, larger rows one at a time."""
    backend = space.backend
    sizes = np.diff(m.indptr)
    rows = np.flatnonzero(sizes > 1)
    points = np.concatenate([np.empty(0, dtype=np.int64)] + [
        m.indices[m.indptr[k]:m.indptr[k + 1]] for k in rows]).astype(np.int64)
    rows = np.repeat(rows, sizes[rows])
    reach = sweep_blocks(backend, rows, points, m, False, sizes[rows] * space.n <= 1 << 12,
                         np.maximum)
    return float(backend._from_key(reach.max(initial=0.0)))


def lebesgue_number_rows(cover):
    """From one full distance row per point: the best set's distance to its
    nearest outside point, minimized over the points."""
    n = cover.space.n
    if n == 0 or any(len(s) == n for s in cover.sets):
        return math.inf
    sets = [np.array(s, dtype=np.int64) for s in cover.sets if s]
    worst = math.inf
    for x in range(n):
        row = dist_row_by_kind(cover.space, x)
        best = 0.0
        for s in sets:
            if x in s:
                outside = np.ones(n, dtype=bool)
                outside[s] = False
                best = max(best, float(row[outside].min()))
        worst = min(worst, best)
    return worst


def mesh_rows(cover):
    """From one full distance row per member of each set."""
    worst = 0.0
    for s in set(cover.sets):
        for x in s:
            worst = max(worst, float(dist_row_by_kind(cover.space, x)[list(s)].max()))
    return worst


# ---------------------------------------------------------------------------
# Cube covers
# ---------------------------------------------------------------------------


def cube_sets_loop(coords, n, a):
    """The sets and families of cube_cover, bucketing point by point."""
    sets, families = [], []
    for i in range(n + 1):
        offset = a * i / (n + 1)
        u = (coords - offset) / a
        z = np.round(u)
        inside = np.all(np.abs(u - z) < 0.5 - RADIUS_TOL, axis=1)
        fam = []
        buckets = {}
        for idx in np.nonzero(inside)[0]:
            buckets.setdefault(tuple(int(v) for v in z[idx]), []).append(int(idx))
        for key in sorted(buckets):
            fam.append(len(sets))
            sets.append(tuple(buckets[key]))
        families.append(fam)
    return sets, families


# ---------------------------------------------------------------------------
# Covers as tuples of indices, set by set
# ---------------------------------------------------------------------------


def cover_tuples(sets, families, n, canonicalize=True):
    """The sets and families a Cover holds, built set by set: each set a
    sorted tuple of distinct indices, the sets in lexicographic tuple order
    when canonicalize is on (ties stable), families remapped through the
    rank. Raises ValueError where the constructor raises."""
    cleaned = [tuple(sorted(set(int(i) for i in s))) for s in sets]
    for s in cleaned:
        if s and (s[0] < 0 or s[-1] >= n):
            raise ValueError("cover set index out of range")
    fams = None
    if families is not None:
        fams = [tuple(int(i) for i in fam) for fam in families]
        used = sorted(i for fam in fams for i in fam)
        if used != sorted(set(used)) or (used and (used[0] < 0 or used[-1] >= len(cleaned))):
            raise ValueError("families must partition distinct set indices")
        if len(used) != len(cleaned):
            raise ValueError("families must mention every set exactly once")
    if canonicalize:
        order = sorted(range(len(cleaned)), key=lambda k: cleaned[k])
        rank = {old: new for new, old in enumerate(order)}
        cleaned = [cleaned[k] for k in order]
        if fams is not None:
            fams = [tuple(sorted(rank[i] for i in fam)) for fam in fams]
    return tuple(cleaned), (tuple(fams) if fams is not None else None)


def multiplicity_loop(sets, n):
    counts = np.zeros(n, dtype=np.int64)
    for s in set(sets):
        if s:
            counts[list(s)] += 1
    return int(counts.max()) if n else 0


def family_overlap_loop(sets, families):
    """(first set, second set, point) for the first point met twice while
    walking each family's sets in order, or None."""
    if families is None:
        return None
    for fam in families:
        hit = {}
        for si in fam:
            for p in sets[si]:
                if p in hit:
                    return (hit[p], si, p)
                hit[p] = si
    return None


def family_disjoint_loop(sets, families, n, entourage):
    """The first pair of the relation, in key order and family by family,
    joining two sets of one family: (set a, set b, (x, y)), or None."""
    pairs = entourage.matrix().tocoo()
    rows, cols = pairs.row, pairs.col
    for fam in families:
        owner = np.full(n, -1, dtype=np.int64)
        for si in fam:
            owner[list(sets[si])] = si
        a, b = owner[rows], owner[cols]
        bad = (a >= 0) & (b >= 0) & (a != b)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            return (int(a[k]), int(b[k]), (int(rows[k]), int(cols[k])))
    return None


# ---------------------------------------------------------------------------
# The constructions, cut by cut
# ---------------------------------------------------------------------------


def interior_loop(indices, entourage):
    """{x | E(x) inside the set}, E(x) = {y | (y, x) in E}, from one
    mat-vec over the points outside the set."""
    outside = np.ones(entourage.space.n, dtype=bool)
    outside[[int(i) for i in indices]] = False
    excluded = entourage.matrix().T @ outside
    return frozenset(np.flatnonzero(~excluded).tolist())


def shared_point_tuples_loop(sets, size, n):
    """All size-subsets of the sets that share a point, from one list of
    incident sets per point."""
    incidence = [[] for _ in range(n)]
    for si, s in enumerate(sets):
        for p in s:
            incidence[p].append(si)
    found = set()
    for lst in incidence:
        if len(lst) >= size:
            for combo in combinations(lst, size):
                found.add(combo)
    return sorted(found)


def intersections_loop(sets, size, n):
    return [set(sets[combo[0]]).intersection(*(sets[si] for si in combo[1:]))
            for combo in shared_point_tuples_loop(sets, size, n)]


def colorize_levels_loop(base, L, n):
    """colorize's levels d = 1, ..., n+2, each eroded from the sets again:
    the L^{n+2-d}-interiors of the d-fold intersections of the rows of base,
    (n+1)(n+2)/2 erosions in all."""
    from coarselab.transforms import _intersections, interior

    return [interior(_intersections(base, d), L, n + 2 - d) for d in range(1, n + 3)]


def shield_and_trim_loop(levels, n):
    """Family by family: each core of a level minus the union of the next
    level's cores, empty results dropped."""
    sets, families = [], []
    for cores, deeper in zip(levels, levels[1:]):
        shield = np.zeros(n, dtype=bool)
        for core in deeper:
            shield[list(core)] = True
        fam = []
        for core in cores:
            trimmed = tuple(sorted(p for p in core if not shield[p]))
            if trimmed:
                fam.append(len(sets))
                sets.append(trimmed)
        families.append(fam)
    return sets, families


def merge_attach_loop(sets_a, fams_a, sets_b, fams_b, n, relation):
    """merge_union's sets and families: per family, each B-set absorbs the
    A-sets it meets through the relation, untouched A-sets survive. Returns
    ("conflict", (ai, sorted B-sets)) for the first A-set, in order of first
    contact, that meets two B-sets of one family."""
    pairs = relation.matrix().tocoo()
    lrows, lcols = pairs.row, pairs.col
    sets, families = [], []
    for fam_a, fam_b in zip(fams_a, fams_b):
        fam_out = []
        owner_a = np.full(n, -1, dtype=np.int64)
        for si in fam_a:
            owner_a[list(sets_a[si])] = si
        owner_b = np.full(n, -1, dtype=np.int64)
        for si in fam_b:
            owner_b[list(sets_b[si])] = si
        pa, pb = owner_a[lrows], owner_b[lcols]
        hit = (pa >= 0) & (pb >= 0)
        attach = {si: set() for si in fam_b}
        touched_by = {}
        for ai, bi in zip(pa[hit], pb[hit]):
            attach[int(bi)].add(int(ai))
            touched_by.setdefault(int(ai), set()).add(int(bi))
        for ai, bis in touched_by.items():
            if len(bis) > 1:
                return "conflict", (ai, sorted(bis))
        for bi in fam_b:
            merged = set(sets_b[bi])
            for ai in attach[bi]:
                merged |= set(sets_a[ai])
            fam_out.append(len(sets))
            sets.append(tuple(sorted(merged)))
        for ai in fam_a:
            if ai not in touched_by:
                fam_out.append(len(sets))
                sets.append(tuple(sets_a[ai]))
        families.append(fam_out)
    return sets, families


# ---------------------------------------------------------------------------
# Trees, one breadth-first search at a time
# ---------------------------------------------------------------------------


def tree_adjacency_lists(space):
    adj = [[] for _ in range(space.n)]
    for i, j in space.meta["edges"].tolist():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def bfs_depths(adj, root):
    depths = np.full(len(adj), -1, dtype=np.int64)
    depths[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if depths[w] < 0:
                    depths[w] = depths[v] + 1
                    nxt.append(w)
        frontier = nxt
    return depths


def bfs_tree(adj, root):
    n = len(adj)
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return depth, parent


def bfs_ball(adj, sources, hops):
    seen = set(sources)
    frontier = list(seen)
    for _ in range(hops):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def tree_distance_rows(space):
    """The n x n float distance matrix of a tree, one BFS row per vertex."""
    adj = tree_adjacency_lists(space)
    return np.stack([bfs_depths(adj, i) for i in range(space.n)]).astype(float)


def tree_set_diameter_rows(rows, s):
    """A set's diameter from one full distance row per member."""
    idx = np.array(sorted(set(int(i) for i in s)), dtype=np.int64)
    return float(rows[np.ix_(idx, idx)].max()) if idx.size > 1 else 0.0


def class_separation_loop(rows, classes, class_list):
    """Min distance between distinct same-parity classes, exhaustively."""
    best = math.inf
    by_parity = {0: [], 1: []}
    for key in class_list:
        by_parity[key[0] % 2].append(key)
    for _, group in sorted(by_parity.items()):
        for ka, kb in combinations(group, 2):
            mem_b = np.array(classes[kb], dtype=np.int64)
            for v in classes[ka]:
                best = min(best, float(rows[v][mem_b].min()))
    return best


def tree_cover_loop(space, L, root=0):
    """(sets, families, classes, class_list) of tree_cover, vertex by
    vertex: classes keyed by (grade, ancestor at depth ceil(L'(grade -
    1/2))), each grown by a BFS ball of ceil(L) - 1 hops."""
    adj = tree_adjacency_lists(space)
    lp = int(math.floor(2 * L)) + 1
    depth, parent = bfs_tree(adj, root)

    def ancestor(v, target_depth):
        while depth[v] > target_depth:
            v = parent[v]
        return v

    keys = {}
    for v in range(space.n):
        grade = depth[v] // lp
        if grade == 0:
            keys[v] = (0, root)
        else:
            tau = lp * (grade - 0.5)
            keys[v] = (grade, ancestor(v, int(math.ceil(tau - TOL))))
    classes = {}
    for v, key in sorted(keys.items()):
        classes.setdefault(key, []).append(v)
    hop = int(math.ceil(L)) - 1
    sets, families = [], [[], []]
    class_list = sorted(classes)
    for key in class_list:
        families[key[0] % 2].append(len(sets))
        sets.append(tuple(sorted(bfs_ball(adj, classes[key], hop))))
    return sets, families, classes, class_list


# ---------------------------------------------------------------------------
# Certificates from materialized relations: powers, spreads, composites
# ---------------------------------------------------------------------------


def relation_power(e, k):
    """The k-fold composition of e with itself, k = 0 the diagonal, as
    Entourage.power built it."""
    from coarselab.spaces import Entourage

    out = Entourage.diagonal(e.space)
    for _ in range(k):
        out = out.compose(e)
    return out


def interior_power(cuts, e, k):
    """The E^k-interiors of the rows of cuts, from the materialized E^k."""
    from coarselab.transforms import interior

    return interior(cuts, relation_power(e, k))


def appetite_power_witness(cover, e, k):
    """appetite_witness for the materialized E^k."""
    from coarselab.covers import appetite_witness

    return appetite_witness(cover, relation_power(e, k))


def l2_witness(cover, L):
    """expand's precondition: the witness of L∘L-disjointness, by pairs."""
    from coarselab.transforms import family_disjoint_witness

    return family_disjoint_witness(cover, L.compose(L))


def strong_relation(cover_a, L):
    """L∘D_A∘L∘D_A∘L with D_A = M_A^T M_A + I, materialized."""
    from coarselab.covers import cover_entourage
    from coarselab.spaces import Entourage

    delta_a = cover_entourage(cover_a).union(Entourage.diagonal(cover_a.space))
    return L.compose(delta_a).compose(L).compose(delta_a).compose(L)


def strong_witness(cover_a, cover_b, L):
    """merge_union's precondition on the B families, by pairs."""
    from coarselab.transforms import family_disjoint_witness

    return family_disjoint_witness(cover_b, strong_relation(cover_a, L))


def expand_spread_ok(cover, out, L):
    """expand's spread bound: cover_entourage(out) inside L∘(M^T M)∘L^-1."""
    from coarselab.covers import cover_entourage

    bound = L.compose(cover_entourage(cover)).compose(L.inverse())
    return cover_entourage(out).is_subset_of(bound)


def merge_spread_ok(cover_a, cover_b, out, L):
    """merge_union's spread bound: cover_entourage(out) inside
    D_A∘L∘D_B∘L∘D_A ∪ M_A^T M_A."""
    from coarselab.covers import cover_entourage
    from coarselab.spaces import Entourage

    delta_a = cover_entourage(cover_a).union(Entourage.diagonal(cover_a.space))
    delta_b = cover_entourage(cover_b).union(Entourage.diagonal(cover_b.space))
    bound = delta_a.compose(L).compose(delta_b).compose(L).compose(delta_a)
    return cover_entourage(out).is_subset_of(bound.union(cover_entourage(cover_a)))


def _spread_image_products(rows, m):
    """The forward images of the rows under M^T M + I: rows + (rows @ M^T) @ M."""
    return (rows + (rows @ m.T) @ m).tocsr()


def _spread_inside_products(sets, containers, bound_image):
    """Whether W x W lies inside B for every row W of sets, given containers
    N with N^T N inside B and bound_image mapping unit rows to their B-rows:
    a set in no container is tested by one overlap product."""
    from coarselab.covers import first_container
    from coarselab.spaces import _bool_matrix

    sizes = np.diff(sets.indptr)
    rest = np.flatnonzero((first_container(sets, containers) < 0) & (sizes > 0))
    if not rest.size:
        return True
    w = sets[rest]
    points = np.unique(w.indices)
    reach = bound_image(_bool_matrix(np.arange(points.size), points,
                                     (points.size, sets.shape[1])))
    overlap = (sparse.csr_matrix(reach, dtype=np.int32)
               @ sparse.csr_matrix(w.T, dtype=np.int32)).tocsr()
    keep = overlap.data == sizes[rest][overlap.indices]
    fits = sparse.csr_matrix((keep, overlap.indices, overlap.indptr), shape=overlap.shape)
    fits.eliminate_zeros()
    members = w[:, points].T
    return bool(np.all(np.asarray(fits.multiply(members).sum(axis=0)).ravel() == sizes[rest]))


def merge_attach_products(cover_a, cover_b, L):
    """merge_union's sets and families through an attach matrix: the grown
    B-sets are attach @ M_A + M_B, stacked on M_A and picked family by
    family."""
    from coarselab.transforms import _pair_arrays

    ma, mb = cover_a.incidence(), cover_b.incidence()
    na, nb = ma.shape[0], mb.shape[0]
    lrows, lcols = _pair_arrays(L)
    pa, pb = cover_a.family_owners()[:, lrows], cover_b.family_owners()[:, lcols]
    hit = (pa >= 0) & (pb >= 0)
    pa, pb = pa[hit].astype(np.int64), pb[hit]
    links = np.unique(pa * nb + pb)
    link_a, link_b = links // nb, links % nb
    touches = np.bincount(link_a, minlength=na)
    if np.any(touches > 1):
        ais, first = np.unique(pa, return_index=True)
        twice = touches[ais] > 1
        ai = int(ais[twice][np.argmin(first[twice])])
        bis = link_b[link_a == ai].tolist()
        raise ContractViolationError(
            f"A-set {ai} meets two B-sets {bis} in one family; "
            "the disjointness preconditions have drifted",
            witness=(ai, bis))
    attach = sparse.csr_matrix((np.ones(links.size, dtype=bool), (link_b, link_a)),
                               shape=(nb, na))
    grown = sparse.vstack([attach @ ma + mb, ma], format="csr")
    picks = [np.empty(0, dtype=np.int64)]
    families, count = [], 0
    for fam_a, fam_b in zip(cover_a.families, cover_b.families):
        fa = np.asarray(fam_a, dtype=np.int64)
        pick = np.concatenate([np.asarray(fam_b, dtype=np.int64), nb + fa[touches[fa] == 0]])
        families.append(list(range(count, count + pick.size)))
        count += pick.size
        picks.append(pick)
    return grown[np.concatenate(picks)], families


def merge_spread_products(ma, mb, out, lm, grown_b):
    """merge_union's spread bound by sparse products: containers grown_b
    stacked on M_A, and the bound's rows D_A L D_B L D_A + M_A^T M_A."""
    def bound_image(rows):
        chain = _spread_image_products(
            _spread_image_products(_spread_image_products(rows, ma) @ lm, mb) @ lm, ma)
        return chain + (rows @ ma.T) @ ma

    return _spread_inside_products(out, sparse.vstack([grown_b, ma], format="csr"), bound_image)


def merge_union_products(cover_a, cover_b, entourage):
    """merge_union with every certificate step a sparse product: the spreads
    rows + (rows @ M^T) @ M, the B-images a chain of them and of products
    with L, the attach step attach @ M_A + M_B and the spread bound's
    containers a vstack. Same checks, results and witnesses."""
    from coarselab.certificates import certify, claim, holds
    from coarselab.covers import Cover
    from coarselab.transforms import (_require_symmetric_with_diagonal, _strong_relation,
                                      _touching_witness, family_disjoint_witness)

    if cover_a.space is not cover_b.space:
        raise InvalidInputError("merge_union needs covers over one ambient space")
    if entourage.space is not cover_a.space:
        raise InvalidInputError("entourage must live over the cover's space")
    if cover_a.families is None or cover_b.families is None:
        raise InvalidInputError("union needs covers with families")
    if len(cover_a.families) != len(cover_b.families):
        raise InvalidInputError("family counts differ; pad the smaller cover first")
    L = entourage.materialize()
    _require_symmetric_with_diagonal(L, "merge entourage")
    wa = family_disjoint_witness(cover_a, L)
    if wa is not None:
        raise ContractViolationError(f"cover A families not L-disjoint: {wa}", witness=wa)
    ma, mb, lm = cover_a.incidence(), cover_b.incidence(), L.matrix()
    grown_b = _spread_image_products(mb @ lm, ma)
    wb = _touching_witness(cover_b, _spread_image_products(grown_b @ lm, ma) @ lm,
                           lambda: _strong_relation(cover_a, L))
    if wb is not None:
        raise ContractViolationError(
            f"cover B families not (L∘D_A∘L∘D_A∘L)-disjoint: {wb}", witness=wb)
    sets, families = merge_attach_products(cover_a, cover_b, L)
    out = Cover(cover_a.space, sets, families, require_covering=False, canonicalize=False)
    covered = np.zeros(cover_a.space.n, dtype=bool)
    covered[out.incidence().indices] = True
    cov_ok = bool(covered[ma.indices].all() and covered[mb.indices].all())
    dw = family_disjoint_witness(out, L)
    return out, certify([
        holds("merge_union.covers_union", cov_ok),
        holds("merge_union.families_L_disjoint", dw is None, dw),
        claim("merge_union.family_count", max(len(cover_a.families), len(cover_b.families)),
              len(out.families), len(out.families) == len(cover_a.families)),
        holds("merge_union.spread_bound",
              merge_spread_products(ma, mb, out.incidence(), lm, grown_b)),
    ])


def block_pair_outside(space, blocks, bound):
    """A decomposition's bound check: the first pair of the blocks' spread
    outside the bound, from the whole spread."""
    from coarselab.covers import Cover, cover_entourage

    ce = cover_entourage(Cover(space, blocks))
    return None if ce.is_subset_of(bound) else ce.first_pair_outside(bound)



def grid_adjacency_loop(grid):
    """The grid's neighbour graph from its lattice edges (lo, lo + stride)
    along each axis, symmetrized through a COO matrix."""
    idx = np.arange(grid.n, dtype=np.int64)
    heads, tails = [], []
    stride = 1
    for count in reversed(grid.meta["shape"]):
        lo = idx[(idx // stride) % count < count - 1]
        heads.append(lo)
        tails.append(lo + stride)
        stride *= count
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    return sparse.csr_matrix((np.ones(2 * heads.size, dtype=np.int32),
                              (np.concatenate([heads, tails]),
                               np.concatenate([tails, heads]))), shape=(grid.n, grid.n))


def indices_loop(value, what):
    """An index list read entry by entry through jsonio._integer."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a list of integers")
    return [_integer(v, what) for v in value]


def index_lists_loop(value, what):
    """A list of index lists read entry by entry through jsonio._integer."""
    if not isinstance(value, list) or not all(isinstance(row, (list, tuple)) for row in value):
        raise InvalidInputError(f"{what} must be a list of lists of integers")
    return [[_integer(v, what) for v in row] for row in value]


def interval_relation_loop(e, extra_steps):
    """IntervalRelation.from_entourage, one slice assignment per pair: the
    reaches (lo, hi)."""
    n = e.space.n
    idx = np.arange(n)
    lo = np.maximum(idx - extra_steps, 0)
    hi = np.minimum(idx + extra_steps, n - 1)
    for i, j in e.pairs():
        a, b = (i, j) if i <= j else (j, i)
        lo[a:b + 1] = np.minimum(lo[a:b + 1], a)
        hi[a:b + 1] = np.maximum(hi[a:b + 1], b)
    return lo, hi


def ray_cell_cover_loop(n, e):
    """ray_cell_cover built member by member, with the set-pair family
    witness and the set-by-set spread test, on the slice-loop reaches."""
    from coarselab.certificates import certify, claim, count_at_most, holds
    from coarselab.covers import Cover, multiplicity
    from coarselab.spaces import GridMetric, Space
    from coarselab.witnesses import IntervalRelation

    if n < 0:
        raise InvalidInputError("n must be >= 0")
    line = e.space
    if not isinstance(line.backend, GridMetric) or line.backend.dim != 1:
        raise InvalidInputError("ray cover needs a 1-d grid sample")
    coords = line.backend.coords[:, 0]
    if coords[0] < -TOL:
        raise InvalidInputError("ray sample must start at 0")
    step = line.backend.step
    unit_steps = int(math.floor(1.0 / step + TOL))
    if unit_steps < 1:
        raise InvalidInputError("sample step must be <= 1")
    rel = IntervalRelation(*interval_relation_loop(e.materialize(), unit_steps))

    m = line.n
    pref_hi = np.maximum.accumulate(rel.hi)
    kappas = [int(rel.hi[0])]
    while kappas[-1] < m - 1:
        nxt = int(pref_hi[kappas[-1]])
        if nxt <= kappas[-1]:
            raise ResourceLimitError("sample region is not reached by iterated bands")
        kappas.append(nxt)
    kappas.extend([kappas[-1]] * max(n, 1))
    width = max(n, 1)

    def band(i):
        top = kappas[i] if i >= 0 else -1
        bot = kappas[i - width] if i - width >= 0 else -1
        return range(bot + 1, top + 1)

    bands = [band(i) for i in range(len(kappas))]

    if n <= 1:
        prod_space = line
        strides = [1]
    else:
        prod_space = Space.grid(n, [0.0] * n, [float(coords[-1])] * n, step)
        if prod_space.n != m ** n:
            raise InvalidInputError("product sample does not match axis sample")
        strides = [m ** (n - 1 - k) for k in range(n)]

    families = []
    sets = []
    n_fam = n + 1 if n >= 1 else 1
    factors = max(n, 1)
    for r in range(n_fam):
        fam = []
        idx_choices = [i for i in range(len(bands)) if i % (n + 1) == r] if n >= 1 \
            else list(range(len(bands)))
        for combo in iproduct(*[idx_choices] * factors):
            members = []
            pieces = [bands[i] for i in combo]
            if any(len(p) == 0 for p in pieces):
                continue
            for tup in iproduct(*pieces):
                members.append(sum(t * s for t, s in zip(tup, strides)))
            fam.append(len(sets))
            sets.append(tuple(sorted(members)))
        families.append(fam)

    out = Cover(prod_space, sets, families, require_covering=False, canonicalize=False)
    missing = out.uncovered_points()
    claims = [holds("ray_cover.covers", not missing, missing[:3] if missing else None)]
    if n >= 1:
        dw = ray_family_witness_loop(out, rel, strides, m)
        ok = ray_spread_ok_loop(out, rel.composed(3 * n + 6), strides, m)
        claims += [holds("ray_cover.families_disjoint", dw is None, dw),
                   claim("ray_cover.spread_bound", f"power {3 * n + 6}", ok, ok)]
    claims.append(count_at_most("ray_cover.multiplicity", multiplicity(out), n_fam))
    return out, certify(claims)


def _factor_indices(flat, strides, m):
    return [flat // s % m for s in strides]


def ray_family_witness_loop(cover, rel, strides, m):
    """The first same-family set pair, in combinations order, whose bands
    touch on every axis: (set a, set b, (per-axis band minima of a, of b)),
    or None."""
    for fam in cover.families:
        for sa, sb in combinations(fam, 2):
            a0 = _factor_indices(cover.sets[sa][0], strides, m)
            b0 = _factor_indices(cover.sets[sb][0], strides, m)
            if bands_touch_loop(cover.sets[sa], cover.sets[sb], rel, strides, m):
                return (sa, sb, (a0, b0))
    return None


def bands_touch_loop(set_a, set_b, rel, strides, m):
    """Whether on every axis some u in a's band reaches [lo[u], hi[u]] into
    b's band."""
    fa = np.array([_factor_indices(p, strides, m) for p in set_a])
    fb = np.array([_factor_indices(p, strides, m) for p in set_b])
    for k in range(len(strides)):
        amin, amax = fa[:, k].min(), fa[:, k].max()
        bmin, bmax = fb[:, k].min(), fb[:, k].max()
        touched = False
        for u in range(amin, amax + 1):
            if not (rel.hi[u] < bmin or rel.lo[u] > bmax):
                touched = True
                break
        if not touched:
            return False
    return True


def ray_spread_ok_loop(cover, factor_power, strides, m):
    """Whether every set's band on every axis lies in one row of the power."""
    for s in cover.sets:
        fa = np.array([_factor_indices(p, strides, m) for p in s])
        for k in range(len(strides)):
            lo, hi = int(fa[:, k].min()), int(fa[:, k].max())
            if not factor_power.lo[lo] <= hi <= factor_power.hi[lo]:
                return False
    return True


def pn_sample_loop(n, xmax, step):
    """pn_sample, one candidate point at a time."""
    from coarselab.spaces import Space

    if abs(round(1.0 / step) - 1.0 / step) > TOL:
        raise InvalidInputError("step must divide 1")
    vals = np.arange(0.0, xmax + step / 2, step)
    pts = []
    for tup in iproduct(vals, repeat=n):
        x = np.array(tup)
        if x[-1] > TOL and np.all(x[:-1] <= x[-1] + TOL):
            pts.append(x)
    return Space.cloud(np.array(pts))
