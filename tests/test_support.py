from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from coarselab.errors import ContractViolationError, InvalidInputError
from coarselab.prng import SplitMix64
from coarselab.spaces import Entourage, Space
from coarselab.support import (BlockOperator, Decomposition, check_calculus,
                               induce_adjoint, is_controlled, pvm_projection,
                               support_operator, support_vector)


def make_decomposition(block_sizes, dims):
    total_pts = sum(block_sizes)
    sp = Space.discrete(total_pts)
    blocks, at = [], 0
    for size in block_sizes:
        blocks.append(list(range(at, at + size)))
        at += size
    return Decomposition(sp, blocks, dims)


def random_operator(rng: SplitMix64, dec: Decomposition, density=0.5):
    m = np.zeros((dec.total, dec.total), dtype=complex)
    for i in range(dec.total):
        for j in range(dec.total):
            if rng.uniform() < density:
                m[i, j] = rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5)
    return BlockOperator(dec, m)


def random_vector(rng: SplitMix64, dec: Decomposition):
    return np.array([rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5)
                     if rng.uniform() < 0.6 else 0.0
                     for _ in range(dec.total)])


class TestPVM:
    def test_empty_and_full(self):
        dec = make_decomposition([1, 2, 1], [2, 3, 1])
        assert not pvm_projection(dec, []).any()
        assert pvm_projection(dec, [0, 1, 2]).all()

    def test_product_is_intersection_exhaustive(self):
        dec = make_decomposition([1] * 5, [1, 2, 1, 3, 2])
        blocks = range(5)
        for k1 in range(6):
            for a in combinations(blocks, k1):
                pa = pvm_projection(dec, a)
                for k2 in range(6):
                    for b in combinations(blocks, k2):
                        pb = pvm_projection(dec, b)
                        want = pvm_projection(dec, set(a) & set(b))
                        assert np.array_equal(pa * pb, want)
                        assert np.array_equal(pb * pa, want)

    def test_additive_on_disjoint_unions(self):
        dec = make_decomposition([1] * 4, [2, 2, 1, 3])
        lhs = pvm_projection(dec, [0, 2]) + pvm_projection(dec, [1])
        rhs = pvm_projection(dec, [0, 1, 2])
        assert np.array_equal(lhs, rhs)

    def test_non_partition_rejected(self):
        sp = Space.discrete(4)
        with pytest.raises(InvalidInputError):
            Decomposition(sp, [[0, 1], [1, 2, 3]], [1, 1])

    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_bound_check_matches_the_whole_spread(self, data, n):
        line = Space.line(0, n - 1, 1.0)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        blocks = [[p for p in range(n) if labels[p] == b] for b in range(4)]
        if data.draw(st.booleans()):
            bound = Entourage.radius(line, data.draw(st.sampled_from([0.5, 1.5, 2.5, 5.0])),
                                     closed=data.draw(st.booleans()))
        else:
            pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=3 * n))
            bound = Entourage.from_pairs(line, pairs, symmetrize=data.draw(st.booleans()))
        want = oracles.block_pair_outside(line, blocks, bound)
        if want is None:
            Decomposition(line, blocks, [1] * 4, bound=bound)
            return
        with pytest.raises(ContractViolationError) as err:
            Decomposition(line, blocks, [1] * 4, bound=bound)
        assert err.value.witness == want

    def test_bound_check_gives_the_first_pair_outside(self):
        line = Space.line(0, 4, 1.0)
        blocks = [[0, 1], [2, 3, 4]]
        Decomposition(line, blocks, [1, 1], bound=Entourage.radius(line, 2.5))
        with pytest.raises(ContractViolationError) as err:
            Decomposition(line, blocks, [1, 1], bound=Entourage.radius(line, 1.5))
        assert err.value.witness == (2, 4)


class TestSupports:
    def test_zero_vector(self):
        dec = make_decomposition([1, 1, 1], [2, 2, 2])
        assert support_vector(np.zeros(6), dec) == frozenset()

    def test_basis_vector(self):
        dec = make_decomposition([1, 1, 1], [2, 2, 2])
        v = np.zeros(6)
        v[3] = 1.0
        assert support_vector(v, dec) == frozenset({1})

    def test_identity_support_is_diagonal(self):
        dec = make_decomposition([1, 1, 1], [2, 1, 2])
        supp = support_operator(BlockOperator.identity(dec))
        assert sorted(supp.pairs()) == [(0, 0), (1, 1), (2, 2)]

    def test_single_entry_support(self):
        dec = make_decomposition([1, 1, 1], [1, 1, 1])
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        supp = support_operator(BlockOperator(dec, m))
        assert supp.pairs() == [(0, 1)]

    def test_adjoint_support_is_inverse(self):
        rng = SplitMix64(9)
        dec = make_decomposition([1, 2, 1, 1], [2, 1, 3, 2])
        for _ in range(10):
            t = random_operator(rng, dec, density=0.3)
            supp = set(support_operator(t).pairs())
            adj = set(support_operator(t.adjoint()).pairs())
            assert adj == {(b, a) for a, b in supp}


class TestCalculus:
    def test_identities_pass_trivially(self):
        dec = make_decomposition([1, 1], [2, 2])
        ident = BlockOperator.identity(dec)
        u = np.zeros(4)
        u[0] = 1.0
        report = check_calculus(ident, ident, u)
        assert report["all_pass"]

    def test_hundred_random_triples(self):
        rng = SplitMix64(0)
        for trial in range(100):
            sizes = [1] * rng.randint(2, 6)
            dims = [rng.randint(1, 4) for _ in sizes]
            dec = make_decomposition(sizes, dims)
            s = random_operator(rng, dec, density=0.4)
            t = random_operator(rng, dec, density=0.4)
            u = random_vector(rng, dec)
            report = check_calculus(s, t, u)
            assert report["all_pass"], (trial, report)

    def test_near_threshold_blocks_flagged(self):
        dec = make_decomposition([1, 1], [1, 1])
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 5e-12  # within a factor 10 of the cutoff
        t = BlockOperator(dec, m)
        report = check_calculus(t, t, np.zeros(2))
        assert report["tolerance_sensitive"]

    def test_controlled_product_bound(self):
        # S, T controlled by E implies ST controlled by D E D E D
        rng = SplitMix64(4)
        dec = make_decomposition([1] * 4, [2, 2, 2, 2])
        q = support_operator(BlockOperator.identity(dec)).space
        e = Entourage.from_pairs(q, [(0, 1), (1, 2), (2, 3), (0, 0), (1, 1),
                                     (2, 2), (3, 3)], symmetrize=False)
        diag = Entourage.diagonal(q)
        bound = diag.compose(e).compose(diag).compose(e).compose(diag)
        for _ in range(10):
            s = random_operator(rng, dec, density=0.8)
            t = random_operator(rng, dec, density=0.8)
            sm = _mask_to_entourage_support(s, e)
            tm = _mask_to_entourage_support(t, e)
            assert is_controlled(sm, e)
            assert is_controlled(tm, e)
            assert is_controlled(sm @ tm, bound)


def _mask_to_entourage_support(op: BlockOperator, e: Entourage) -> BlockOperator:
    """Zero out the blocks outside the relation so the support is inside e."""
    dec = op.decomposition
    m = op.matrix.copy()
    allowed = set(e.pairs())
    for b1 in range(dec.n_blocks):
        for b2 in range(dec.n_blocks):
            if (b1, b2) not in allowed:
                m[dec.block_slice(b1), dec.block_slice(b2)] = 0.0
    return BlockOperator(dec, m)


class TestControlled:
    def test_identity_controlled_by_diagonal(self):
        dec = make_decomposition([1, 1, 1], [1, 2, 1])
        q = Space.discrete(3)
        assert is_controlled(BlockOperator.identity(dec), Entourage.diagonal(q))

    def test_dense_not_controlled_by_diagonal(self):
        dec = make_decomposition([1, 1], [1, 1])
        q = Space.discrete(2)
        full = BlockOperator(dec, np.ones((2, 2), dtype=complex))
        assert not is_controlled(full, Entourage.diagonal(q))

    def test_monotone_in_relation(self):
        rng = SplitMix64(12)
        dec = make_decomposition([1] * 4, [1, 1, 1, 1])
        q = dec.quotient_space()
        t = random_operator(rng, dec, density=0.3)
        supp = support_operator(t)
        bigger = supp.union(Entourage.diagonal(q))
        assert is_controlled(t, supp)
        assert is_controlled(t, bigger)


class TestInducedMap:
    def test_identity_conjugation(self):
        dec = make_decomposition([1, 1], [2, 1])
        t = BlockOperator(dec, np.arange(9, dtype=complex).reshape(3, 3))
        out, report = induce_adjoint([0, 1], np.eye(3, dtype=complex), t, dec)
        assert np.allclose(out.matrix, t.matrix)
        assert report["pass"]

    def test_block_collapse(self):
        src = make_decomposition([1, 1], [1, 1])
        tgt = make_decomposition([2], [2])
        phi = np.eye(2, dtype=complex)
        t = BlockOperator(src, np.diag([2.0, 3.0]).astype(complex))
        out, report = induce_adjoint([0, 0], phi, t, tgt)
        assert report["pass"]
        assert sorted(support_operator(out).pairs()) == [(0, 0)]

    def test_random_containment_ten_trials(self):
        rng = SplitMix64(77)
        for _ in range(10):
            src = make_decomposition([1, 1, 1], [2, 2, 2])
            tgt = make_decomposition([1, 1], [4, 2])
            fmap = [0, 0, 1]
            phi = np.zeros((6, 6), dtype=complex)
            phi[0:2, 0:2] = np.eye(2)
            phi[2:4, 2:4] = np.eye(2)
            phi[4:6, 4:6] = np.eye(2)
            t = random_operator(rng, src, density=0.5)
            out, report = induce_adjoint(fmap, phi, t, tgt)
            assert report["pass"]

    def test_leaky_phi_rejected(self):
        src = make_decomposition([1, 1], [1, 1])
        tgt = make_decomposition([1, 1], [1, 1])
        phi = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # swaps blocks
        t = BlockOperator.identity(src)
        with pytest.raises(ContractViolationError):
            induce_adjoint([0, 1], phi, t, tgt)
