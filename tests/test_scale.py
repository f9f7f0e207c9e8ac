"""Scale: a 10^5-point grid certifies the whole chain cube -> colorize ->
expand -> stats. Interiors, appetite, disjointness and spreads are decided
from the incidence matrices and L, so no power of L, no cover spread and no
composite relation is formed, and none can stop the chain at the pair cap.
The radius relation L itself is assembled straight into CSR, holding at
most twice its arrays."""

import tracemalloc

import pytest

from coarselab import covers, transforms
from coarselab.spaces import Entourage, Space
from coarselab.transforms import colorize, expand
from coarselab.witnesses import cube_cover


def test_grid_chain_at_ten_to_the_fifth_points(monkeypatch):
    def formed(*args, **kwargs):
        raise AssertionError("a derived relation was formed")

    monkeypatch.setattr(transforms, "cover_entourage", formed)
    monkeypatch.setattr(Entourage, "compose", formed)
    grid = Space.grid(2, [0.0, 0.0], [316.0, 316.0], 1.0)
    assert grid.n == 100_489
    L = Entourage.radius(grid, 1.000001).materialize()
    cube, cert_cube = cube_cover(grid, 2, 24.0)
    colored, cert_colorize = colorize(cube, L, 2)
    out, cert_expand = expand(colored, L)
    stats = covers.stats(out, L)
    for cert in (cert_cube, cert_colorize, cert_expand):
        assert cert and all(g["pass"] for g in cert)
    assert [g["id"] for g in cert_expand] == [
        "expand.families_disjoint", "expand.appetite", "expand.spread_bound"]
    assert stats["multiplicity"] <= 3 and stats["appetite"] is True
    assert stats["lebesgue"] == pytest.approx(2 ** 0.5)


def test_grid_materialize_holds_at_most_twice_its_result():
    grid = Space.grid(2, [0.0, 0.0], [316.0, 316.0], 1.0)
    e = Entourage.radius(grid, 1.000001)
    tracemalloc.start()
    try:
        m = e.materialize().matrix()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == grid.n + 4 * 317 * 316
    assert peak <= 2 * (m.indices.nbytes + m.indptr.nbytes + m.data.nbytes)
