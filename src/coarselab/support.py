"""Finite-dimensional geometric Hilbert spaces over block decompositions.

A Decomposition splits the index set of a Space into named blocks, each
carrying a Hilbert-space dimension; the associated projection-valued
assignment sends a union of blocks to the diagonal 0/1 mask selecting their
coordinates. Operators are dense complex matrices read block-wise; the
support of an operator is the set of block pairs where it acts nontrivially
(block Frobenius norm above a declared threshold, default 1e-12, since an
exact "nonzero" has no float meaning).

The calculus verified here, with D the diagonal relation on blocks:

    supp(u + v)  inside  supp(u) | supp(v)
    supp(S + T)  inside  supp(S) | supp(T)
    supp(T u)    inside  (D supp(T) D)[supp(u)]
    supp(S T)    inside  D supp(S) D supp(T) D
    supp(T*)     equal   supp(T)^{-1}
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .certificates import check
from .errors import ContractViolationError, InvalidInputError
from .spaces import Entourage, Space

ZERO_THRESHOLD = 1e-12


class Decomposition:
    """A partition of a Space's indices into blocks with per-block dims."""

    def __init__(self, space: Space, blocks: Sequence[Iterable[int]],
                 dims: Sequence[int],
                 bound: Optional[Entourage] = None):
        cleaned = [tuple(sorted(set(int(i) for i in b))) for b in blocks]
        flat = sorted(i for b in cleaned for i in b)
        if flat != list(range(space.n)):
            raise InvalidInputError("blocks must partition the space indices")
        dims = [int(d) for d in dims]
        if len(dims) != len(cleaned):
            raise InvalidInputError("need one dimension per block")
        for b, d in zip(cleaned, dims):
            if d < 0 or (d == 0 and b):
                raise InvalidInputError("dimension 0 is only allowed for empty blocks")
        self.space = space
        self.blocks = tuple(cleaned)
        self.dims = tuple(dims)
        self.offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(dims)[:-1]]))
        self.total = int(sum(dims))
        if bound is not None:
            outside = _first_block_pair_outside(space, self.blocks, bound)
            if outside is not None:
                raise ContractViolationError(
                    "blocks are not uniformly bounded by the declared entourage",
                    witness=outside)
        self.bound = bound

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_slice(self, b: int) -> slice:
        return slice(self.offsets[b], self.offsets[b] + self.dims[b])

    def quotient_space(self) -> Space:
        """Bare index carrier whose points are the blocks; one shared
        instance per decomposition so supports of different operators are
        directly comparable."""
        if not hasattr(self, "_quotient"):
            self._quotient = Space.discrete(self.n_blocks)
        return self._quotient

    def block_mask(self, blocks: Iterable[int]) -> np.ndarray:
        mask = np.zeros(self.total)
        for b in blocks:
            mask[self.block_slice(int(b))] = 1.0
        return mask


def _first_block_pair_outside(space: Space, blocks, bound: Entourage):
    """The pair (i, j) with the smallest key i * n + j that lies in some
    block's U x U but not in bound, or None; one block's pairs at a time,
    so the union over the blocks is never held."""
    worst = None
    for block in blocks:
        idx = np.asarray(block, dtype=np.int64)
        square = Entourage.from_keys(space, (idx[:, None] * space.n + idx).ravel())
        pair = square.first_pair_outside(bound)
        if pair is not None and (worst is None or pair < worst):
            worst = pair
    return worst


class BlockOperator:
    """A dense complex matrix interpreted block-wise over a Decomposition."""

    def __init__(self, decomposition: Decomposition, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (decomposition.total, decomposition.total):
            raise InvalidInputError(
                f"matrix must be {decomposition.total} x {decomposition.total}")
        self.decomposition = decomposition
        self.matrix = m

    @classmethod
    def identity(cls, decomposition: Decomposition) -> "BlockOperator":
        return cls(decomposition, np.eye(decomposition.total, dtype=complex))

    def block(self, b1: int, b2: int) -> np.ndarray:
        d = self.decomposition
        return self.matrix[d.block_slice(b1), d.block_slice(b2)]

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.decomposition, self.matrix.conj().T)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if self.decomposition is not other.decomposition:
            raise InvalidInputError("operators live over different decompositions")
        return BlockOperator(self.decomposition, self.matrix @ other.matrix)

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        if self.decomposition is not other.decomposition:
            raise InvalidInputError("operators live over different decompositions")
        return BlockOperator(self.decomposition, self.matrix + other.matrix)


def pvm_projection(decomposition: Decomposition, blocks: Iterable[int]) -> np.ndarray:
    """Diagonal 0/1 mask selecting a union of blocks; the empty union gives
    the zero mask and the full union the identity mask."""
    blocks = [int(b) for b in blocks]
    for b in blocks:
        if b < 0 or b >= decomposition.n_blocks:
            raise InvalidInputError("block index out of range")
    return decomposition.block_mask(blocks)


def support_vector(u, decomposition: Decomposition,
                   threshold: float = ZERO_THRESHOLD) -> frozenset[int]:
    v = np.asarray(u, dtype=complex)
    if v.shape != (decomposition.total,):
        raise InvalidInputError("vector length does not match the decomposition")
    out = set()
    for b in range(decomposition.n_blocks):
        if np.linalg.norm(v[decomposition.block_slice(b)]) > threshold:
            out.add(b)
    return frozenset(out)


def support_operator(op: BlockOperator,
                     threshold: float = ZERO_THRESHOLD) -> Entourage:
    """Block pairs with nontrivial action, as an entourage over the block
    quotient; raw (no symmetric closure)."""
    return _support_of(op, _block_norms(op), threshold)


def _block_norms(op: BlockOperator) -> np.ndarray:
    """The Frobenius norm of every block, as a blocks x blocks array."""
    k = op.decomposition.n_blocks
    return np.array([np.linalg.norm(op.block(b1, b2)) for b1 in range(k)
                     for b2 in range(k)], dtype=float).reshape(k, k)


def _support_of(op: BlockOperator, norms: np.ndarray, threshold: float) -> Entourage:
    # the flat positions of the k x k norms are the keys b1 * k + b2
    return Entourage.from_keys(_quotient_of(op), np.flatnonzero(norms > threshold))


def _quotient_of(op: BlockOperator) -> Space:
    return op.decomposition.quotient_space()


def is_controlled(op: BlockOperator, entourage: Entourage,
                  threshold: float = ZERO_THRESHOLD) -> bool:
    """Whether the operator's support sits inside the given block relation."""
    supp = support_operator(op, threshold)
    if entourage.space.n != supp.space.n:
        raise InvalidInputError("entourage must live over the block quotient")
    if entourage.space is not supp.space:
        entourage = Entourage(supp.space, "pairs", entourage.csr)
    return supp.is_subset_of(entourage)


def check_calculus(s_op: BlockOperator, t_op: BlockOperator, u,
                   threshold: float = ZERO_THRESHOLD) -> dict:
    """Verify the five support inclusions on concrete data.

    Both sides of each inclusion are materialized as block-pair relations
    over the quotient and compared through the entourage algebra; the report
    lists each inclusion with a pass flag and a witness pair on failure,
    plus any block whose norm sits within a factor 10 of the threshold
    (tolerance-sensitive pairs).
    """
    if s_op.decomposition is not t_op.decomposition:
        raise InvalidInputError("operators live over different decompositions")
    d = s_op.decomposition
    uu = np.asarray(u, dtype=complex)
    if uu.shape != (d.total,):
        raise InvalidInputError("vector length does not match the decomposition")

    norms = {"S": _block_norms(s_op), "T": _block_norms(t_op)}
    supp_s = _support_of(s_op, norms["S"], threshold)
    supp_t = _support_of(t_op, norms["T"], threshold)
    supp_u = support_vector(uu, d, threshold)
    tu = t_op.matrix @ uu

    sv = support_vector(tu + uu, d, threshold)
    lhs_tu = support_vector(tu, d, threshold)
    rhs = supp_u | lhs_tu
    st_sum = support_operator(s_op + t_op, threshold)
    rhs_e = supp_s.union(supp_t)
    # D is the diagonal relation on blocks, so D supp(T) D is supp(T) and
    # D supp(S) D supp(T) D is supp(S) supp(T)
    reach = supp_t.image(supp_u)
    st = support_operator(s_op @ t_op, threshold)
    rhs_st = supp_s.compose(supp_t)
    adj = support_operator(t_op.adjoint(), threshold)
    inv = supp_t.inverse()
    # a relation lies inside another exactly when no first pair lies outside
    outside_sum = st_sum.first_pair_outside(rhs_e)
    outside_st = st.first_pair_outside(rhs_st)
    outside_adj = adj.first_pair_outside(inv) or inv.first_pair_outside(adj)
    checks = [
        check("supp.vector_sum", sv <= rhs, sorted(sv - rhs) or None),
        check("supp.operator_sum", outside_sum is None, outside_sum),
        check("supp.apply", lhs_tu <= reach, sorted(lhs_tu - reach) or None),
        check("supp.compose", outside_st is None, outside_st),
        check("supp.adjoint", outside_adj is None, outside_adj),
    ]

    sensitive = []
    for op_name, nrm in norms.items():
        for b1, b2 in zip(*np.nonzero((threshold / 10 < nrm) & (nrm <= threshold * 10)
                                      & (nrm > 0))):
            sensitive.append({"op": op_name, "block": (int(b1), int(b2)),
                              "norm": float(nrm[b1, b2])})

    return {
        "threshold": threshold,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "tolerance_sensitive": sensitive,
    }


def induce_adjoint(block_map: Sequence[int], phi, t_op: BlockOperator,
                   target: Decomposition,
                   threshold: float = ZERO_THRESHOLD) -> tuple[BlockOperator, dict]:
    """Conjugate an operator along a partial isometry respecting blocks.

    block_map sends each source block to a target block; phi must map the
    source block's coordinates into the image block's coordinates (entries
    outside those rectangles must vanish) and phi* phi must be a projection.
    Returns phi T phi* together with a verification report of the support
    containment supp(phi T phi*) inside (F x F)(supp(T)).
    """
    src = t_op.decomposition
    fmap = [int(b) for b in block_map]
    if len(fmap) != src.n_blocks:
        raise InvalidInputError("block map must cover every source block")
    for b in fmap:
        if b < 0 or b >= target.n_blocks:
            raise InvalidInputError("block map hits an out-of-range target block")
    ph = np.asarray(phi, dtype=complex)
    if ph.shape != (target.total, src.total):
        raise InvalidInputError(
            f"phi must be {target.total} x {src.total}")
    for b in range(src.n_blocks):
        allowed = np.zeros((target.total, src.total), dtype=bool)
        allowed[target.block_slice(fmap[b]), src.block_slice(b)] = True
        col = np.zeros((target.total, src.total), dtype=bool)
        col[:, src.block_slice(b)] = True
        leak = np.abs(ph)
        if np.any((leak > threshold) & col & ~allowed):
            raise ContractViolationError(
                f"phi leaks block {b} outside its image block {fmap[b]}",
                witness=b)
    gram = ph.conj().T @ ph
    if np.linalg.norm(gram @ gram - gram) > 1e-9 or np.linalg.norm(gram - gram.conj().T) > 1e-9:
        raise ContractViolationError("phi* phi is not a projection")

    out = BlockOperator(target, ph @ t_op.matrix @ ph.conj().T)
    supp_src = support_operator(t_op, threshold)
    supp_out = support_operator(out, threshold)
    nq = target.n_blocks
    mapped = set()
    for (b1, b2) in supp_src.pairs():
        mapped.add((fmap[b1], fmap[b2]))
    image_rel = Entourage.from_pairs(_quotient_of(out), sorted(mapped), symmetrize=False)
    return out, check("induced.support_containment", supp_out.is_subset_of(image_rel),
                      supp_out.first_pair_outside(image_rel))
