"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from coarselab import fixtures
from coarselab.corona import corona_dim_cover, roundtrip_bounds
from coarselab.covers import (Cover, appetite_witness, has_appetite,
                              lebesgue_number, mesh, multiplicity)
from coarselab.hyperbolic import (SphereAtlas, check_contraction,
                                  check_radial_lipschitz, hyperbolic_params,
                                  lipschitz_gap_bound, sample_disk,
                                  sphere_cover_lift)
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab.support import (BlockOperator, Decomposition, check_calculus,
                               induce_adjoint, pvm_projection)
from coarselab.transforms import (colorize, expand,
                                  family_disjoint_witness,
                                  make_product_entourage, merge_union,
                                  product_refine)
from coarselab.witnesses import (SimplexGrid, SimplicialComplex, cube_cover,
                                 nearest_corner_labeling, pn_sample,
                                 random_admissible_labeling,
                                 simplex_lower_bound_check, sperner_find,
                                 star_cover, tree_cover)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_cube_cover():
    started = time.monotonic()
    checked = 0
    for n in (1, 2, 3):
        for L in (1.0, 2.0):
            a = 2 * (n + 1) * L
            per_axis = 20 if n < 3 else 19
            side = 2 * a
            step = side / (per_axis - 1)
            assert step <= a / (2 * (n + 1)) + 1e-9
            grid = Space.grid(n, [0.0] * n, [side] * n, step)
            cov, cert = cube_cover(grid, n, a)
            by_id = {g["id"]: g for g in cert}
            assert multiplicity(cov) == n + 1, (n, L)
            assert by_id["cube_cover.lebesgue"]["measured"] >= L - step - 1e-9, (n, L)
            assert by_id["cube_cover.mesh"]["measured"] <= a * math.sqrt(n) + step + 1e-9, (n, L)
            checked += 1
    elapsed = time.monotonic() - started
    report("criterion-01 cube-cover", checked == 6 and elapsed < 5.0,
           f"{checked} fixtures in {elapsed:.2f}s")


def test_criterion_02_definition_equivalence():
    rng = SplitMix64(2024)
    colorize_runs = 0
    for trial in range(50):
        n = 1 + trial % 2
        if trial % 5 == 4:
            cover, L = fixtures.randomized_partition_cover(rng, points=120)
            # shrink L so chains of n+1 hops stay inside a cell
            L = Entourage.radius(cover.space, max(L.r / (n + 1), 1e-4)).materialize()
        else:
            cover, L = fixtures.randomized_grid_cover(rng, n)
        assert cover.space.n <= 400
        out, cert = colorize(cover, L, n)
        assert len(out.families) == n + 1
        assert family_disjoint_witness(out, L) is None
        assert out.uncovered_points() == []
        colorize_runs += 1
    expand_runs = 0
    for trial in range(25):
        # partition an integer line into width-w blocks, families by parity;
        # same-family blocks sit w+1 > 2 apart, i.e. (L^2)-disjoint for the
        # closed unit relation
        sp = Space.line(0, 60 + rng.randint(0, 40), 1.0)
        width = rng.randint(2, 4)
        sets, fams = [], [[], []]
        i = 0
        while i < sp.n:
            fams[(i // width) % 2].append(len(sets))
            sets.append(list(range(i, min(i + width, sp.n))))
            i += width
        colored = Cover(sp, sets, fams, require_covering=True, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = expand(colored, L)
        assert has_appetite(out, L)
        expand_runs += 1
    report("criterion-02 definition-equivalence",
           colorize_runs == 50 and expand_runs == 25,
           f"{colorize_runs} colorize + {expand_runs} expand runs, zero failures")


def test_criterion_03_union_construction():
    rng = SplitMix64(3)
    runs = 0
    for _ in range(25):
        ca, cb, L = fixtures.two_piece_union_fixture(rng)
        out, cert = merge_union(ca, cb, L)
        assert family_disjoint_witness(out, L) is None
        covered = set()
        for s in out.sets:
            covered.update(s)
        target = {x for s in (ca.sets + cb.sets) for x in s}
        assert covered >= target
        assert len(out.families) == max(len(ca.families), len(cb.families))
        runs += 1
    report("criterion-03 union-construction", runs == 25,
           f"{runs} two-piece fixtures, zero failures")


def _interval_cover(sp, spacing=8, reach=7):
    sets, i = [], 0
    while i * spacing < sp.n + reach:
        lo = max(0, i * spacing - reach + 1)
        hi = min(sp.n - 1, i * spacing + reach)
        if lo <= hi:
            sets.append(list(range(lo, hi + 1)))
        i += 1
    return Cover(sp, sets)


def test_criterion_04_product_construction():
    # 1-d x 1-d
    x = Space.line(0, 19, 1.0)
    y = Space.line(0, 19, 1.0)
    prod = Space.product(x, y)
    ex = Entourage.radius(x, 1.0, closed=True).materialize()
    ey = Entourage.radius(y, 1.0, closed=True).materialize()
    e = make_product_entourage(prod, ex, ey)
    cx, cy = _interval_cover(x), _interval_cover(y)
    out11, _ = product_refine(cx, cy, e, 1, 1)
    mult11 = multiplicity(out11)
    naive = multiplicity(cx) * multiplicity(cy)
    assert len(out11.families) == 3
    assert mult11 <= 3 and mult11 < naive == 4
    counts = np.zeros(prod.n, dtype=int)
    for s in set(out11.sets):
        counts[list(s)] += 1
    assert counts.max() == mult11  # brute-force oracle

    # 1-d x 2-d
    x2 = Space.line(0, 9, 1.0)
    y2 = Space.grid(2, [0, 0], [11, 11], 1.0)
    prod2 = Space.product(x2, y2)
    assert prod2.n <= 40 * 40
    ex2 = Entourage.radius(x2, 1.0, closed=True).materialize()
    ey2 = Entourage.radius(y2, 1.0, closed=True).materialize()
    e2 = make_product_entourage(prod2, ex2, ey2)
    cx2 = Cover(x2, [list(range(10))])
    cov_y2, _ = cube_cover(y2, 2, 50.0)
    cy2 = Cover(y2, cov_y2.sets)
    out12, _ = product_refine(cx2, cy2, e2, 1, 2)
    assert len(out12.families) == 4
    mult12 = multiplicity(out12)
    assert mult12 <= 4
    counts2 = np.zeros(prod2.n, dtype=int)
    for s in set(out12.sets):
        counts2[list(s)] += 1
    assert counts2.max() == mult12
    report("criterion-04 product-construction", True,
           f"family counts 3 and 4, multiplicities {mult11} and {mult12}")


def test_criterion_05_lower_bound():
    certs = 0
    for n in (1, 2):
        space = pn_sample(n, 24.0 if n == 2 else 28.0, 0.5)
        covers = []
        if n == 1:
            coords = space.meta["coords"][:, 0]
            for width, overlap in ((4.0, 1.5), (5.0, 2.0)):
                sets, lo = [], 0.0
                while lo <= coords.max():
                    mask = (coords >= lo - overlap - 1e-9) & (coords <= lo + width + 1e-9)
                    sets.append([int(i) for i in np.nonzero(mask)[0]])
                    lo += width
                covers.append(Cover(space, sets))
            cc, _ = cube_cover(space, 1, 5.0)
            covers.append(Cover(space, cc.sets))
        else:
            for a in (8.0, 10.0):
                cc, _ = cube_cover(space, 2, a)
                covers.append(Cover(space, cc.sets))
        for cov in covers:
            cert = simplex_lower_bound_check(cov, n)
            assert len(cert["sets"]) == n + 1
            # independent re-verification from raw cover data
            point = cert["point"]
            containing = [si for si, s in enumerate(cov.sets) if point in set(s)]
            assert len(containing) >= n + 1
            assert set(cert["sets"]) <= set(containing)
            certs += 1
    # odd fully-labeled counts across admissible labelings
    rng = SplitMix64(5)
    odd_checks = 0
    for n in (1, 2):
        corners = np.zeros((n + 1, n))
        for i in range(n):
            corners[i + 1, i] = 1.0
        for depth in (2, 4, 6):
            grid = SimplexGrid(corners, depth)
            labelings = [nearest_corner_labeling(grid)]
            for _ in range(3):
                labelings.append(random_admissible_labeling(grid, rng))
            for lab in labelings:
                grid.labeling = lab
                found = sperner_find(grid)
                assert found["count"] % 2 == 1
                odd_checks += 1
    report("criterion-05 lower-bound", certs == 5 and odd_checks == 24,
           f"{certs} certificates, {odd_checks} odd-count checks")


def test_criterion_06_tree_cover():
    rng = SplitMix64(6)
    runs = 0
    for trial in range(20):
        size = 200 + rng.randint(0, 1800)
        tree = Space.tree([(rng.randint(0, v - 1), v) for v in range(1, size)])
        L = [1.0, 1.5, 2.0, 2.5][trial % 4]
        lp = int(math.floor(2 * L)) + 1
        cov, cert = tree_cover(tree, L)
        assert multiplicity(cov) <= 2
        assert mesh(cov) <= 3 * lp + 2 * L + 1e-9
        sep = [g for g in cert if g["id"] == "tree_cover.class_separation"][0]
        assert sep["pass"] and sep["measured"] >= lp - 1e-9
        runs += 1
    report("criterion-06 tree-cover", runs == 20, f"{runs} random trees")


def test_criterion_07_hyperbolic_chain():
    started = time.monotonic()
    kappa, lam, D, L, n = -1.0, 0.2, 1.0, 5.0, 2
    rho, N = hyperbolic_params(kappa, lam, D, L, n)
    assert rho == pytest.approx(10.01) and N == 2
    atlas = SphereAtlas(kappa, rho, lam, D)
    disk = sample_disk(kappa, 30.0, 0.5, 64)
    cov, cert, labels = sphere_cover_lift(atlas, rho, N, L, disk)
    assert multiplicity(cov) <= n + 1
    assert mesh(cov) <= 2 * (N + 2 * n) * rho + D + 1e-9
    assert lebesgue_number(cov) >= L - 1e-9
    rng = SplitMix64(7)
    worst = check_contraction(kappa, rho, 1, disk, rng, 10_000)
    assert worst <= 1e-9
    delta = lam / D
    gap = lipschitz_gap_bound(kappa, delta) + 0.5
    ratio = check_radial_lipschitz(kappa, rho, 1, gap, delta, 1440)
    assert ratio <= delta + 1e-9
    elapsed = time.monotonic() - started
    report("criterion-07 hyperbolic-chain", elapsed < 60.0,
           f"rho={rho}, N={N}, contraction slack {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_support_calculus():
    rng = SplitMix64(8)
    for trial in range(100):
        n_blocks = rng.randint(2, 6)
        dims = [rng.randint(1, 4) for _ in range(n_blocks)]
        dec = Decomposition(Space.discrete(n_blocks),
                            [[i] for i in range(n_blocks)], dims)
        def rnd():
            m = np.zeros((dec.total, dec.total), dtype=complex)
            for i in range(dec.total):
                for j in range(dec.total):
                    if rng.uniform() < 0.4:
                        m[i, j] = rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5)
            return BlockOperator(dec, m)
        u = np.array([rng.uniform() - 0.5 if rng.uniform() < 0.6 else 0.0
                      for _ in range(dec.total)], dtype=complex)
        rep = check_calculus(rnd(), rnd(), u)
        assert rep["all_pass"], trial
    # PVM axioms and projection products, exhaustive over 5 blocks
    from itertools import combinations
    dec5 = Decomposition(Space.discrete(5), [[i] for i in range(5)],
                         [1, 2, 1, 3, 2])
    subsets = [c for k in range(6) for c in combinations(range(5), k)]
    assert not pvm_projection(dec5, []).any()
    assert pvm_projection(dec5, range(5)).all()
    for a in subsets:
        pa = pvm_projection(dec5, a)
        for b in subsets:
            want = pvm_projection(dec5, set(a) & set(b))
            assert np.array_equal(pa * pvm_projection(dec5, b), want)
    # induced-map containment, ten trials
    for _ in range(10):
        src = Decomposition(Space.discrete(3), [[0], [1], [2]], [2, 2, 2])
        tgt = Decomposition(Space.discrete(2), [[0], [1]], [4, 2])
        phi = np.zeros((6, 6), dtype=complex)
        phi[0:4, 0:4] = np.eye(4)
        phi[4:6, 4:6] = np.eye(2)
        m = np.array([[rng.uniform() - 0.5 for _ in range(6)]
                      for _ in range(6)], dtype=complex)
        _, rep = induce_adjoint([0, 0, 1], phi, BlockOperator(src, m), tgt)
        assert rep["pass"]
    report("criterion-08 support-calculus", True,
           "100 triples + exhaustive projections + 10 induced maps")


def test_criterion_09_corona_equivalence():
    interval = fixtures.unit_interval_model(1.0 / 400)
    out1 = roundtrip_bounds(interval)
    assert not out1["fg_failures"] and not out1["gf_failures"]
    disk = fixtures.disk_model(radial=20, angular=36)
    out2 = roundtrip_bounds(disk)
    assert not out2["fg_failures"] and not out2["gf_failures"]
    report("criterion-09 corona-equivalence", True,
           f"interval + disk models, {out1['gf_checked'] + out2['gf_checked']} "
           "band checks")


def test_criterion_10_corona_dim_cover():
    started = time.monotonic()
    space = fixtures.circle_space(720)
    sched = fixtures.circle_arc_schedule(space)
    depth = 200
    cov, cert, info = corona_dim_cover(
        sched, fixtures.power_decay_deltas(depth), fixtures.shift_window(depth),
        depth)
    assert multiplicity(cov) <= 3
    by_id = {g["id"]: g for g in cert}
    assert by_id["dim_cover.appetite"]["pass"]
    assert by_id["dim_cover.d_sequence_non_increasing"]["pass"]
    assert by_id["dim_cover.projection_bands"]["pass"]
    d = info["d_sequence"]
    assert d[-1] < d[0]
    elapsed = time.monotonic() - started
    report("criterion-10 corona-dim-cover", elapsed < 30.0,
           f"depth {depth}, d floor {d[-1]:.3g}, {elapsed:.1f}s")


def test_criterion_11_star_cover():
    edge = SimplicialComplex([[0.0], [1.0]], [(0, 1)])
    cov1, _ = star_cover(edge, 1, resolution=12)
    l1 = lebesgue_number(cov1)
    assert abs(l1 - 0.5) <= 1e-6
    s3 = math.sqrt(3) / 2
    rhombus = SimplicialComplex(
        [[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]],
        [(0, 1, 2), (0, 1, 3)])
    cov2, _ = star_cover(rhombus, 2, resolution=12)
    l2 = lebesgue_number(cov2)
    assert abs(l2 - 1 / math.sqrt(12)) <= 1e-6
    report("criterion-11 star-cover", True,
           f"lambda_1 = {l1:.9f}, lambda_2 = {l2:.9f}")
