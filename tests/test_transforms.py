from itertools import combinations

import numpy as np
import pytest
from scipy import sparse
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from coarselab.certificates import claim, holds
from coarselab.covers import (Cover, appetite_witness, first_container, has_appetite,
                              multiplicity)
from coarselab.errors import ContractViolationError, InvalidInputError
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab import transforms
from coarselab.transforms import (_appetite_gap, _attach, _distinct_contents,
                                  _expand_spread_ok, _intersections, _merge_spread_ok,
                                  _shared_point_tuples, _shield_and_trim, _spread_image,
                                  _touching_witness, colorize, expand,
                                  family_disjoint_witness, interior,
                                  make_product_entourage, merge_union,
                                  product_refine)
from coarselab.witnesses import cube_cover


def interior_of(indices, e):
    """The E-interior of one set, through the batched interior."""
    row = Cover(e.space, [list(indices)], require_covering=False).incidence()
    return frozenset(interior(row, e).indices.tolist())


class TestInterior:
    def test_whole_space_stays_whole(self):
        sp = Space.line(0, 10, 1.0)
        e = Entourage.radius(sp, 3.0)
        assert interior_of(range(11), e) == frozenset(range(11))

    def test_diagonal_interior_is_the_set(self):
        sp = Space.line(0, 10, 1.0)
        d = Entourage.diagonal(sp)
        assert interior_of([2, 3, 4], d) == frozenset({2, 3, 4})

    def test_interval_shrinks_by_radius(self):
        sp = Space.line(0, 20, 1.0)
        e = Entourage.radius(sp, 2.5, closed=False)
        got = interior_of(range(0, 11), e)
        # ball around index i is {i-2..i+2}; inside [0,10] needs i <= 8,
        # and the left edge keeps 0..2 since the sample stops at 0
        assert got == frozenset(range(0, 9))


def blocks_cover(sp, width, gap_sets):
    """Partition an integer line sample into blocks of the given width."""
    sets = []
    i = 0
    while i < sp.n:
        sets.append(list(range(i, min(i + width, sp.n))))
        i += width
    fams = gap_sets(len(sets))
    return Cover(sp, sets, fams, canonicalize=False)


class TestExpand:
    def test_diagonal_expand_is_identity(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [[i] for i in range(10)], [list(range(10))])
        out, cert = expand(c, Entourage.diagonal(sp))
        assert [set(s) for s in out.sets] == [set(s) for s in c.sets]
        assert all(g["pass"] for g in cert)

    def test_block_expand_gets_appetite(self):
        sp = Space.line(0, 40, 1.0)
        c = blocks_cover(sp, 4, lambda k: [[i for i in range(k) if i % 2 == 0],
                                           [i for i in range(k) if i % 2 == 1]])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = expand(c, L)
        assert has_appetite(out, L)
        assert all(g["pass"] for g in cert)

    def test_violated_precondition_reports_witness(self):
        sp = Space.line(0, 10, 1.0)
        c = blocks_cover(sp, 2, lambda k: [list(range(k))])
        L = Entourage.radius(sp, 1.5, closed=True).materialize()
        with pytest.raises(ContractViolationError) as err:
            expand(c, L)
        assert err.value.witness is not None

    def test_cover_without_families_is_rejected_before_materializing(self):
        # the radius relation holds 1.6 * 10^7 pairs, past the pair cap
        sp = Space.line(0, 3999, 1.0)
        with pytest.raises(InvalidInputError, match="^expand needs a cover with families$"):
            expand(Cover(sp, [range(4000)]), Entourage.radius(sp, 1e9))


class TestColorize:
    def test_single_set_cover_n0(self):
        sp = Space.line(0, 9, 1.0)
        c = Cover(sp, [list(range(10))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = colorize(c, L, 0)
        assert len(out.families) == 1
        assert out.uncovered_points() == []

    def test_cube_cover_on_plane(self):
        grid = Space.grid(2, [0, 0], [18, 18], 0.5)
        cov, _ = cube_cover(grid, 2, 10.0)
        flat = Cover(grid, cov.sets)
        L = Entourage.radius(grid, 0.6).materialize()
        out, cert = colorize(flat, L, 2)
        assert len(out.families) == 3
        assert family_disjoint_witness(out, L) is None
        assert out.uncovered_points() == []
        assert all(g["pass"] for g in cert)

    def test_two_overlapping_intervals(self):
        sp = Space.line(0, 30, 1.0)
        c = Cover(sp, [list(range(0, 20)), list(range(12, 31))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = colorize(c, L, 1)
        assert len(out.families) == 2
        assert family_disjoint_witness(out, L) is None

    def test_missing_appetite_raises(self):
        sp = Space.line(0, 30, 1.0)
        c = Cover(sp, [[i, i + 1] for i in range(30)])
        L = Entourage.radius(sp, 2.0, closed=True).materialize()
        with pytest.raises(ContractViolationError):
            colorize(c, L, 1)

    def test_refinement_property(self):
        sp = Space.line(0, 40, 1.0)
        c = Cover(sp, [list(range(0, 25)), list(range(15, 41))])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, _ = colorize(c, L, 1)
        originals = [set(s) for s in c.sets]
        for s in out.sets:
            assert any(set(s) <= o for o in originals)

    @pytest.mark.parametrize("n", [1, 2])
    def test_roundtrip_lebesgue_bookkeeping(self, n):
        # colorize at scale L/(n+1), then expand at L/(2n+2): the result
        # keeps a discrete Lebesgue number of at least L/(2n+2)
        from coarselab.covers import lebesgue_number
        L = 2.0
        a = 2 * (n + 1) * L
        step = 0.5
        grid = Space.grid(n, [0.0] * n, [2 * a] * n, step)
        base, _ = cube_cover(grid, n, a)
        assert lebesgue_number(base) >= L - 1e-9
        K = Entourage.radius(grid, L / (n + 1)).materialize()
        colored, _ = colorize(Cover(grid, base.sets), K, n)
        K_half = Entourage.radius(grid, L / (2 * n + 2)).materialize()
        refit = Cover(grid, colored.sets, colored.families, require_covering=False,
                      canonicalize=False)
        out, _ = expand(refit, K_half)
        assert has_appetite(out, K_half)
        assert lebesgue_number(out) >= L / (2 * n + 2) - 1e-9


class TestMergeUnion:
    def make_pieces(self, split=50, hi=100):
        # A covers [0, split] with width-4 blocks, families by parity; B
        # covers [split, hi] with two wide blocks, one per family, so the
        # strong disjointness precondition holds vacuously
        sp = Space.line(0, hi, 1.0)
        a_sets, fam_a = [], [[], []]
        i = 0
        while i <= split:
            fam_a[(i // 4) % 2].append(len(a_sets))
            a_sets.append([j for j in range(i, min(i + 4, split + 1))])
            i += 4
        mid = (split + hi) // 2
        b_sets = [list(range(split, mid + 1)), list(range(mid + 1, hi + 1))]
        fam_b = [[0], [1]]
        return sp, a_sets, fam_a, b_sets, fam_b

    def test_two_piece_line(self):
        sp, a_sets, fam_a, b_sets, fam_b = self.make_pieces()
        ca = Cover(sp, a_sets, fam_a, require_covering=False, canonicalize=False)
        cb = Cover(sp, b_sets, fam_b, require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = merge_union(ca, cb, L)
        assert all(g["pass"] for g in cert)
        covered = set()
        for s in out.sets:
            covered.update(s)
        assert covered == set(range(0, 101))

    def test_family_count_mismatch_rejected(self):
        sp, a_sets, fam_a, b_sets, fam_b = self.make_pieces()
        ca = Cover(sp, a_sets, fam_a, require_covering=False, canonicalize=False)
        cb = Cover(sp, b_sets, [[0, 1], [], []], require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        with pytest.raises(InvalidInputError):
            merge_union(ca, cb, L)
        with pytest.raises(InvalidInputError, match="^union needs covers with families$"):
            merge_union(ca, Cover(sp, b_sets, require_covering=False), L)

    def test_the_old_cover_name_ignores_its_relation(self):
        # certbench's merge items build their inputs in this shape
        sp, a_sets, fam_a, _, _ = self.make_pieces()
        old = transforms.ColoredCover(sp, a_sets, fam_a, Entourage.diagonal(sp),
                                      require_covering=False, canonicalize=False)
        new = Cover(sp, a_sets, fam_a, require_covering=False, canonicalize=False)
        assert isinstance(old, Cover) and vars(old).keys() == vars(new).keys()
        assert old.sets == new.sets and old.families == new.families

    def test_empty_b_piece_returns_a(self):
        sp = Space.line(0, 20, 1.0)
        a_sets = [[i for i in range(0, 21) if i % 2 == 0],
                  [i for i in range(0, 21) if i % 2 == 1]]
        # families must be unit-disjoint: split evens/odds further apart
        a_sets = [list(range(0, 9)), list(range(12, 21)), list(range(9, 12))]
        ca = Cover(sp, a_sets, [[0, 1], [2]], canonicalize=False)
        cb = Cover(sp, [[], []], [[0], [1]], require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = merge_union(ca, cb, L)
        got = sorted(tuple(s) for s in out.sets if s)
        want = sorted(tuple(s) for s in ca.sets)
        assert got == want


class TestProductRefine:
    def line_cover(self, sp, spacing=8, reach=7):
        # intervals [8i - reach + 1, 8i + reach] overlap enough that every
        # +-3 ball sits deep inside one of them, with multiplicity 2
        sets = []
        i = 0
        while i * spacing < sp.n + reach:
            lo = max(0, i * spacing - reach + 1)
            hi = min(sp.n - 1, i * spacing + reach)
            if lo <= hi:
                sets.append(list(range(lo, hi + 1)))
            i += 1
        return Cover(sp, sets)

    def test_two_lines(self):
        x = Space.line(0, 19, 1.0)
        y = Space.line(0, 19, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, cert = product_refine(cx, cy, e, 1, 1)
        assert len(out.families) == 3
        assert multiplicity(out) <= 3
        assert all(g["pass"] for g in cert)

    def test_multiplicity_beats_naive_product(self):
        x = Space.line(0, 19, 1.0)
        y = Space.line(0, 19, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        naive = (multiplicity(cx)) * (multiplicity(cy))
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, _ = product_refine(cx, cy, e, 1, 1)
        assert multiplicity(out) <= 3 < naive

    def test_brute_force_multiplicity_oracle(self):
        x = Space.line(0, 14, 1.0)
        y = Space.line(0, 14, 1.0)
        prod = Space.product(x, y)
        cx = self.line_cover(x)
        cy = self.line_cover(y)
        ex = Entourage.radius(x, 1.0, closed=True).materialize()
        ey = Entourage.radius(y, 1.0, closed=True).materialize()
        e = make_product_entourage(prod, ex, ey)
        out, _ = product_refine(cx, cy, e, 1, 1)
        counts = np.zeros(prod.n, dtype=int)
        for s in set(out.sets):
            counts[list(s)] += 1
        assert counts.max() == multiplicity(out)


def rows_of(m):
    return [tuple(sorted(m[k].indices.tolist())) for k in range(m.shape[0])]


def as_matrix(sets, n):
    return Cover(Space.discrete(n), [sorted(s) for s in sets], require_covering=False,
                 canonicalize=False).incidence()


@st.composite
def sets_and_relation(draw, max_n=10):
    """Any sets over a small space and any pair relation on it, which may
    leave columns of degree 0."""
    n = draw(st.integers(1, max_n))
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=n), max_size=7))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rel = Entourage.from_pairs(Space.discrete(n), pairs, symmetrize=draw(st.booleans()))
    return n, sets, rel


@st.composite
def colored_sets(draw, n, family_count=None):
    """Sets and families over range(n) with disjoint sets in each family (a
    set may be empty), in shuffled set order; one to three families unless
    family_count is given."""
    sets, families = [], []
    for _ in range(family_count or draw(st.integers(1, 3))):
        labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        fam = []
        for lab in range(draw(st.integers(1, 4))):
            fam.append(len(sets))
            sets.append([p for p in range(n) if labels[p] == lab])
        families.append(fam)
    order = draw(st.permutations(range(len(sets))))
    rank = {old: new for new, old in enumerate(order)}
    return [sets[k] for k in order], [[rank[k] for k in fam] for fam in families]


class TestSparseConstructionsOracle:
    @given(case=sets_and_relation())
    @settings(max_examples=200, deadline=None)
    def test_batched_interior_matches_the_loop(self, case):
        n, sets, rel = case
        got = interior(as_matrix(sets, n), rel)
        assert got.shape == (len(sets), n)
        assert [frozenset(r) for r in rows_of(got)] == [oracles.interior_loop(s, rel)
                                                        for s in sets]

    @given(case=sets_and_relation(), size=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_shared_point_tuples_and_intersections_match_the_loops(self, case, size):
        n, sets, _ = case
        base = _distinct_contents(Cover(Space.discrete(n), sets, require_covering=False,
                                        canonicalize=False))
        distinct = rows_of(base)
        assert [tuple(c) for c in _shared_point_tuples(base, size).tolist()] == \
            oracles.shared_point_tuples_loop(distinct, size, n)
        assert [set(r) for r in rows_of(_intersections(base, size))] == \
            oracles.intersections_loop(distinct, size, n)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_shield_and_trim_matches_the_loop(self, data, n):
        levels = data.draw(st.lists(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=4),
                                    min_size=2, max_size=4))
        sets, families = _shield_and_trim([as_matrix(level, n) for level in levels])
        assert (rows_of(sets), families) == oracles.shield_and_trim_loop(levels, n)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_family_disjoint_witness_matches_the_loop(self, data, n):
        sets, families = data.draw(colored_sets(n))
        sp = Space.discrete(n)
        cover = Cover(sp, sets, families, require_covering=False, canonicalize=False)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        rel = Entourage.from_pairs(sp, pairs, symmetrize=data.draw(st.booleans()))
        assert family_disjoint_witness(cover, rel) == \
            oracles.family_disjoint_loop(cover.sets, cover.families, n, rel)

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_attach_step_matches_the_loop(self, data, n):
        sets_a, fams_a = data.draw(colored_sets(n))
        sets_b, fams_b = data.draw(colored_sets(n))
        fams = min(len(fams_a), len(fams_b))
        keep_a = sorted(k for fam in fams_a[:fams] for k in fam)
        keep_b = sorted(k for fam in fams_b[:fams] for k in fam)
        sp = Space.discrete(n)
        ca = Cover(sp, [sets_a[k] for k in keep_a],
                   [[keep_a.index(k) for k in fam] for fam in fams_a[:fams]],
                   require_covering=False, canonicalize=False)
        cb = Cover(sp, [sets_b[k] for k in keep_b],
                   [[keep_b.index(k) for k in fam] for fam in fams_b[:fams]],
                   require_covering=False, canonicalize=False)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        rel = Entourage.from_pairs(sp, pairs)
        want = oracles.merge_attach_loop(ca.sets, ca.families, cb.sets, cb.families, n, rel)
        if want[0] == "conflict":
            with pytest.raises(ContractViolationError) as err:
                _attach(ca, cb, rel)
            assert err.value.witness == want[1]
            return
        sets, families = _attach(ca, cb, rel)
        assert (rows_of(sets), families) == want


def symmetric_relation(data, sp, n):
    """A random symmetric relation on sp holding the diagonal; often just
    the diagonal."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=data.draw(st.sampled_from([0, n, 2 * n]))))
    return Entourage.from_pairs(sp, pairs).union(Entourage.diagonal(sp))


def colored_cover(data, sp, n, family_count=None):
    sets, families = data.draw(colored_sets(n, family_count))
    return Cover(sp, sets, families, require_covering=False, canonicalize=False)


def small_sets_cover(data, sp, n):
    """Up to six sets of two to four points: their pairwise meets are
    often single points, so triangles of meets lie in no one set."""
    sets = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=4),
                              max_size=6))
    return Cover(sp, sets, require_covering=False)


def fallback_runs(out, containers):
    """Whether some non-empty set of out lies in no container row, so that
    the spread test decides it pair by pair."""
    m = out.incidence()
    return bool(np.any((first_container(m, containers) < 0) & (np.diff(m.indptr) > 0)))


@st.composite
def queries_over(draw, rows, n):
    """Sets to test a spread bound with, given the container rows. Either
    only triangles, a point from each pairwise meet of three rows, whose
    pairs each share a row while often no row holds all three, or a mix of
    triangles, subsets of the union of two rows and any sets."""
    rows = [set(r) for r in rows]
    triangles = [meets for a, b, c in combinations(rows, 3)
                 for meets in [(sorted(a & c), sorted(a & b), sorted(b & c))] if all(meets)]
    only_triangles = bool(triangles) and draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = "meets" if only_triangles else draw(st.sampled_from(["meets", "union", "any"]))
        if kind == "meets" and triangles:
            out.append([draw(st.sampled_from(meet)) for meet in draw(st.sampled_from(triangles))])
        elif kind == "union" and rows:
            pool = sorted(draw(st.sampled_from(rows)) | draw(st.sampled_from(rows)))
            out.append(draw(st.lists(st.sampled_from(pool), max_size=len(pool))) if pool else [])
        else:
            out.append(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return out


def outcome(fn):
    """("ok", result) or ("error", type, witness) of a call."""
    try:
        return ("ok", fn())
    except (ContractViolationError, InvalidInputError) as err:
        return ("error", type(err), getattr(err, "witness", None))


class TestCertificatesAgainstMaterializedForms:
    """Each certificate decided from M and L alone agrees with the power,
    spread or composite relation it replaced (tests/oracles.py), witness
    for witness."""

    @given(case=sets_and_relation(), k=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_iterated_erosion_is_the_interior_of_the_power(self, case, k):
        n, sets, rel = case
        cuts = as_matrix(sets, n)
        assert rows_of(interior(cuts, rel, k)) == rows_of(oracles.interior_power(cuts, rel, k))

    @given(case=sets_and_relation(), k=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_appetite_from_eroded_sets_matches_the_power(self, case, k):
        n, sets, rel = case
        cover = Cover(rel.space, sets, require_covering=False)
        inner = interior(cover.incidence(), rel, k)
        got = _appetite_gap(inner, rel, k)
        assert got == oracles.appetite_power_witness(cover, rel, k)
        event("appetite fails" if got is not None else "appetite holds")

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_forward_images_decide_disjointness_with_the_pair_witness(self, data, n):
        sp = Space.discrete(n)
        cover = colored_cover(data, sp, n)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=2 * n))
        rel = Entourage.from_pairs(sp, pairs, symmetrize=data.draw(st.booleans()))
        images = (cover.incidence() @ rel.matrix()).tocsr()
        got = _touching_witness(cover, images, lambda: rel)
        assert got == family_disjoint_witness(cover, rel)
        event("joined" if got is not None else "disjoint")

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_expand_precondition_and_spread_match(self, data, n):
        sp = Space.discrete(n)
        cover = colored_cover(data, sp, n)
        L = symmetric_relation(data, sp, n)
        want = oracles.l2_witness(cover, L)
        got = outcome(lambda: expand(cover, L))
        if want is not None:
            assert got == ("error", ContractViolationError, want)
        elif got[0] == "ok":
            out, cert = got[1]
            assert oracles.expand_spread_ok(cover, out, L)
            assert cert[-1]["id"] == "expand.spread_bound" and cert[-1]["pass"]
        event(f"{got[0]}, L^2 witness {want is not None}")

    @given(data=st.data(), n=st.integers(2, 10))
    @settings(max_examples=300, deadline=None)
    def test_expand_spread_test_matches_the_pairs(self, data, n):
        sp = Space.discrete(n)
        cover = small_sets_cover(data, sp, n)
        L = symmetric_relation(data, sp, n)
        m, lm = cover.incidence(), L.matrix()
        out = Cover(sp, data.draw(queries_over(rows_of(m @ lm.T), n)),
                    require_covering=False)
        got = _expand_spread_ok(out.incidence(), m, lm, m @ lm.T)
        assert got == oracles.expand_spread_ok(cover, out, L)
        event(f"spread {got}, set by set {fallback_runs(out, m @ lm.T)}")

    @given(data=st.data(), n=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_merge_preconditions_and_spread_match(self, data, n):
        sp = Space.discrete(n)
        ca = colored_cover(data, sp, n)
        cb = colored_cover(data, sp, n, len(ca.families))
        L = symmetric_relation(data, sp, n)
        got = outcome(lambda: merge_union(ca, cb, L))
        wa = family_disjoint_witness(ca, L)
        wb = oracles.strong_witness(ca, cb, L)
        if wa is not None:
            assert got == ("error", ContractViolationError, wa)
        elif wb is not None:
            assert got == ("error", ContractViolationError, wb)
        elif got[0] == "ok":
            out, cert = got[1]
            assert oracles.merge_spread_ok(ca, cb, out, L)
            assert cert[-1]["id"] == "merge_union.spread_bound" and cert[-1]["pass"]
        event(f"{got[0]}, strong witness {wb is not None}")

    @given(data=st.data(), n=st.integers(2, 10))
    @settings(max_examples=300, deadline=None)
    def test_merge_spread_test_matches_the_pairs(self, data, n):
        sp = Space.discrete(n)
        ca, cb = small_sets_cover(data, sp, n), small_sets_cover(data, sp, n)
        L = symmetric_relation(data, sp, n)
        ma, mb, lm = ca.incidence(), cb.incidence(), L.matrix()
        grown_b = _spread_image(mb @ lm, ma)
        out = Cover(sp, data.draw(queries_over(rows_of(grown_b) + rows_of(ma), n)),
                    require_covering=False)
        got = _merge_spread_ok(ma, mb, out.incidence(), lm, grown_b)
        assert got == oracles.merge_spread_ok(ca, cb, out, L)
        event(f"spread {got}, set by set "
              f"{fallback_runs(out, sparse.vstack([grown_b, ma], format='csr'))}")

    def test_spread_holding_only_through_several_sets(self):
        # {0, 1, 2} lies in no single set, yet each of its pairs shares one:
        # the set-by-set fallback decides it, and 3 shares a set with no one
        sp = Space.discrete(4)
        cover = Cover(sp, [[0, 1], [1, 2], [0, 2], [3]], [[0, 3], [1], [2]])
        m, lm = cover.incidence(), Entourage.diagonal(sp).matrix()
        for sets, want in (([[0, 1, 2]], True), ([[0, 1, 2], [1, 3]], False)):
            out = Cover(sp, sets, require_covering=False)
            assert _expand_spread_ok(out.incidence(), m, lm, m) is want
            assert oracles.expand_spread_ok(cover, out, Entourage.diagonal(sp)) is want


class TestSpreadCertificatesCanFail:
    """Mutation checks: a set grown past the bound fails each spread
    certificate, and nothing else."""

    def test_expand_spread_bound_catches_a_grown_set(self, monkeypatch):
        sp = Space.line(0, 40, 1.0)
        c = blocks_cover(sp, 4, lambda k: [[i for i in range(k) if i % 2 == 0],
                                           [i for i in range(k) if i % 2 == 1]])
        L = Entourage.radius(sp, 1.0, closed=True).materialize()

        class Grown(Cover):
            def __init__(self, space, sets, *args, **kwargs):
                # point 22 sits in block 5, of the other family
                sets = sets.tolil()
                sets[0, 22] = True
                super().__init__(space, sets.tocsr(), *args, **kwargs)

        monkeypatch.setattr(transforms, "Cover", Grown)
        with pytest.raises(ContractViolationError) as err:
            expand(c, L)
        assert err.value.witness["id"] == "expand.spread_bound"

    def test_merge_spread_bound_catches_a_grown_set(self, monkeypatch):
        pieces = TestMergeUnion().make_pieces()
        sp, a_sets, fam_a, b_sets, fam_b = pieces
        ca = Cover(sp, a_sets, fam_a, require_covering=False, canonicalize=False)
        cb = Cover(sp, b_sets, fam_b, require_covering=False, canonicalize=False)
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        attach = transforms._attach

        def grown(*args):
            # the first family's first set is the B-set over [50, 75]; point
            # 100 belongs to the other family's B-set
            sets, families = attach(*args)
            sets = sets.tolil()
            sets[0, 100] = True
            return sets.tocsr(), families

        monkeypatch.setattr(transforms, "_attach", grown)
        with pytest.raises(ContractViolationError) as err:
            merge_union(ca, cb, L)
        assert err.value.witness["id"] == "merge_union.spread_bound"


@st.composite
def low_multiplicity_case(draw, n):
    """A cover of at most ten points by up to six sets, each point in one
    to n+1 of them, and a symmetric relation holding the diagonal: steps
    between neighbours i, i+1, often with some other pairs."""
    size = draw(st.integers(1, 10))
    count = draw(st.integers(1, 6))
    sets = [[] for _ in range(count)]
    for p in range(size):
        for k in draw(st.sets(st.integers(0, count - 1), min_size=1,
                              max_size=min(n + 1, count))):
            sets[k].append(p)
    sp = Space.discrete(size)
    pairs = [(i, i + 1) for i in range(size - 1) if draw(st.booleans())]
    pairs += draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                           max_size=draw(st.sampled_from([0, 0, 2]))))
    L = Entourage.from_pairs(sp, pairs).union(Entourage.diagonal(sp))
    return Cover(sp, sets), L


def colorize_outcome(cover, L, n):
    """("ok", sets, families, guarantees) of colorize, or ("error", witness)."""
    try:
        out, cert = colorize(cover, L, n)
    except ContractViolationError as err:
        return ("error", err.witness)
    return ("ok", rows_of(out.incidence()), [list(f) for f in out.families], cert)


def colorize_by_levels(cover, L, n):
    """colorize_outcome from the per-level recipe, the shield-and-trim loop
    and set-by-set guarantees."""
    size = cover.space.n
    levels = oracles.colorize_levels_loop(_distinct_contents(cover), L, n)
    aw = _appetite_gap(levels[0], L, n + 1)
    if aw is not None:
        return ("error", aw)
    event("a tuple meets in the sets but not in their erosions"
          if any(np.any(np.diff(level.indptr) == 0) for level in levels[1:])
          else "every tuple still meets")
    sets, families = oracles.shield_and_trim_loop([rows_of(level) for level in levels], size)
    missing = sorted(set(range(size)).difference(*sets))
    dw = oracles.family_disjoint_loop(sets, families, size, L)
    refines = all(any(set(s) <= set(c) for c in cover.sets) for s in sets)
    claims = [
        holds("colorize.covers", not missing, missing[:3] if missing else None),
        claim("colorize.family_count", n + 1, len(families), len(families) == n + 1),
        holds("colorize.families_L_disjoint", dw is None, dw),
        holds("colorize.refines_input", refines),
    ]
    failed = [c for c in claims if not c["pass"]]
    return ("error", failed[0]) if failed else ("ok", sets, families, claims)


class TestColorizeErosionChain:
    """colorize erodes the sets once and intersects the eroded sets; the
    per-level recipe it replaced (tests/oracles.py) eroded every level's
    intersections again."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_colorize_matches_the_per_level_recipe(self, n, data):
        cover, L = data.draw(low_multiplicity_case(n))
        want = colorize_by_levels(cover, L, n)
        event(want[0])
        assert colorize_outcome(cover, L, n) == want

    @given(data=st.data(), n=st.integers(1, 10), k=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_erosion_distributes_over_intersection(self, data, n, k):
        # relations of any shape: asymmetric, and with empty E(x) for
        # points outside every pair's second entry
        u, v = (data.draw(st.frozensets(st.integers(0, n - 1))) for _ in range(2))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=3 * n))
        rel = Entourage.from_pairs(Space.discrete(n), pairs, symmetrize=data.draw(st.booleans()))
        both, inner_u, inner_v = rows_of(interior(as_matrix([u & v, u, v], n), rel, k))
        assert set(both) == set(inner_u) & set(inner_v)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_colorize_makes_n_plus_one_products_with_L(self, n, monkeypatch):
        sp = Space.line(0, 60, 1.0)
        sets = [range(61)] if n == 0 else [range(a, min(a + 16, 61)) for a in range(0, 60, 8)]
        L = Entourage.radius(sp, 1.0, closed=True).materialize()
        erosions = []

        def counted(cuts, entourage, times=1):
            erosions.append(times)
            return interior(cuts, entourage, times)

        monkeypatch.setattr(transforms, "interior", counted)
        colorize(Cover(sp, [list(s) for s in sets]), L, n)
        assert sum(erosions) == n + 1


class TestGuards:
    @given(data=st.data(), n=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_kept_relation_facts_match_the_transpose(self, data, n):
        sp = Space.discrete(n)
        kind = data.draw(st.sampled_from(["symmetric", "asymmetric", "no diagonal"]))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=3 * n))
        rel = Entourage.from_pairs(sp, pairs, symmetrize=kind != "asymmetric")
        if kind != "no diagonal":
            rel = rel.union(Entourage.diagonal(sp))
        m = rel.matrix().toarray()
        want = (bool(np.array_equal(m, m.T)), bool(np.all(np.diag(m))))
        event(f"{kind}: {want}")
        assert (rel.is_symmetric(), rel.contains_diagonal()) == want
        rel.matrix = None  # the second answers must be the kept ones
        assert (rel.is_symmetric(), rel.contains_diagonal()) == want

    @pytest.mark.parametrize("levels", [
        [[{0, 1}], [{0, 1, 2}], []],
        [[{0}, {3}], [{1}], [{1, 2}], []],
        [[{0, 4}, {2}], [set()], [{0, 2, 4}]],
        [[{0}], [{0}]],
        [[], [], []],
    ])
    def test_shield_and_trim_with_a_level_trimmed_to_nothing(self, levels):
        sets, families = _shield_and_trim([as_matrix(level, 5) for level in levels])
        want = oracles.shield_and_trim_loop(levels, 5)
        assert sets.shape == (len(want[0]), 5)
        assert (rows_of(sets), families) == want
