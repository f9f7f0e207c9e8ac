import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import Cover, lebesgue_number, mesh, multiplicity
from coarselab.errors import InvalidInputError
from coarselab.hyperbolic import (SphereAtlas, angle_for_chord, check_contraction,
                                  check_radial_lipschitz, chord_on_circle,
                                  hyperbolic_params, lipschitz_gap_bound,
                                  radial_projection, sample_disk,
                                  sphere_cover_lift)
from coarselab.prng import SplitMix64
from coarselab.spaces import Space, hyperbolic_distance
import oracles


class TestDistances:
    def test_law_of_cosines_reference(self):
        # antipodal points on a circle of radius r are 2r apart
        for r in (0.5, 2.0, 7.0):
            d = hyperbolic_distance(-1.0, r, 0.0, r, math.pi)
            assert d == pytest.approx(2 * r, abs=1e-9)

    def test_curvature_rescaling(self):
        d1 = hyperbolic_distance(-1.0, 2.0, 0.3, 3.0, 1.1)
        d4 = hyperbolic_distance(-4.0, 1.0, 0.3, 1.5, 1.1)
        assert d4 == pytest.approx(d1 / 2, abs=1e-9)

    def test_chord_angle_roundtrip(self):
        for r in (1.0, 3.0, 10.0):
            for theta in (0.01, 0.2, 1.0):
                c = chord_on_circle(-1.0, r, theta)
                assert angle_for_chord(-1.0, r, c) == pytest.approx(theta, rel=1e-6)


class TestRadialProjection:
    def test_preserves_angle(self):
        assert radial_projection((5.0, 1.2), 1, 3.0) == (3.0, 1.2)

    def test_inside_disk_rejected(self):
        with pytest.raises(InvalidInputError):
            radial_projection((2.0, 0.0), 1, 3.0)

    def test_contraction_on_random_pairs(self):
        disk = sample_disk(-1.0, 12.0, 0.5, 60)
        rng = SplitMix64(3)
        worst = check_contraction(-1.0, 3.0, 1, disk, rng, 2000)
        assert worst <= 1e-9

    def test_delta_lipschitz_beyond_gap(self):
        # at curvature -1, delta = 0.5 needs a gap above 2 log 4 ~ 2.773
        gap = lipschitz_gap_bound(-1.0, 0.5)
        assert gap == pytest.approx(2 * math.log(4.0), abs=1e-12)
        worst = check_radial_lipschitz(-1.0, 3.0, 1, 3.0, 0.5, 720)
        assert worst <= 0.5 + 1e-9


class TestParams:
    def test_reference_values(self):
        rho, N = hyperbolic_params(-1.0, 0.2, 1.0, 5.0, 2)
        assert rho == pytest.approx(10.01)
        assert N == 2

    def test_strong_curvature_dominated_by_2L(self):
        rho, N = hyperbolic_params(-100.0, 0.2, 1.0, 5.0, 2)
        assert rho == pytest.approx(10.01)

    def test_bounds_actually_hold(self):
        for kappa, lam, D, L, n in [(-1.0, 0.2, 1.0, 5.0, 2), (-2.0, 0.1, 0.8, 3.0, 2),
                                    (-1.0, 0.3, 2.0, 0.5, 2)]:
            rho, N = hyperbolic_params(kappa, lam, D, L, n)
            s = math.sqrt(-kappa)
            assert rho * n > D
            assert rho * n > (2 / s) * max(1, math.log(2 * D / lam))
            assert rho > 2 * L
            assert (N - 1) * rho > 2 * L
            assert (N - 1) * rho > (2 / s) * max(1, math.log(2 * L / lam))


class TestAtlas:
    def test_each_circle_two_families_disjoint(self):
        atlas = SphereAtlas(-1.0, 2.31, 0.2, 1.0)
        for k in (1, 2, 5):
            m, sigma, half, _ = atlas.layout(k)
            assert m % 2 == 0
            # same-family neighbors sit 2*sigma apart and reach half each way
            assert 2 * sigma > 2 * half - 1e-12

    def test_family_multiplicity_one_on_sampled_angles(self):
        atlas = SphereAtlas(-1.0, 2.31, 0.2, 1.0)
        for k in (1, 3):
            phis = np.linspace(0, 2 * math.pi, 500, endpoint=False)
            for phi in phis:
                arcs = atlas.arcs_containing(k, float(phi))
                fams = [j % 2 for j in arcs]
                assert len(fams) == len(set(fams))
                assert 1 <= len(arcs) <= 2

    def test_arcs_cover_circle_with_lambda_slack(self):
        atlas = SphereAtlas(-1.0, 2.31, 0.2, 1.0)
        for k in (1, 3):
            half_ball = atlas.layout(k)[3]
            phis = np.linspace(0, 2 * math.pi, 500, endpoint=False)
            for phi in phis:
                ok = any(atlas.arc_contains_interval(k, j, float(phi), half_ball)
                         for j in atlas.arcs_containing(k, float(phi)))
                assert ok

    def test_arc_mesh_under_bound(self):
        atlas = SphereAtlas(-1.0, 2.31, 0.2, 1.0)
        for k in (1, 2, 4):
            _, _, half, _ = atlas.layout(k)
            assert chord_on_circle(-1.0, k * 2.31, min(2 * half, math.pi)) <= 1.0 + 1e-9

    def test_huge_circle_layout_is_cheap(self):
        atlas = SphereAtlas(-1.0, 10.01, 0.2, 1.0)
        m, sigma, half, theta = atlas.layout(2)
        assert m > 10**8  # exponentially many arcs, never enumerated
        assert atlas.transfer(0, 12345) == 0
        assert atlas.arcs_containing(2, 1.234)


class TestSphereCoverLift:
    def test_small_parameters_nontrivial_shells(self):
        kappa, lam, D, L = -1.0, 0.2, 1.0, 0.5
        rho, N = hyperbolic_params(kappa, lam, D, L, 2)
        atlas = SphereAtlas(kappa, rho, lam, D)
        disk = sample_disk(kappa, 14.0, 1.0 / 3.0, 72)
        cov, cert, labels = sphere_cover_lift(atlas, rho, N, L, disk)
        assert multiplicity(cov) <= 3
        assert mesh(cov) <= 2 * (N + 4) * rho + D + 1e-9
        assert lebesgue_number(cov) >= L - 1e-9
        assert len({k for k, _ in labels}) >= 2
        assert all(g["pass"] for g in cert)

    def test_core_only_disk(self):
        kappa, lam, D, L = -1.0, 0.2, 1.0, 5.0
        rho, N = hyperbolic_params(kappa, lam, D, L, 2)
        atlas = SphereAtlas(kappa, rho, lam, D)
        disk = sample_disk(kappa, 30.0, 1.0, 48)
        cov, cert, labels = sphere_cover_lift(atlas, rho, N, L, disk)
        # the core ball of radius (N+2)*rho > 30 swallows the whole sample
        assert len(cov.sets) == 1
        assert multiplicity(cov) == 1


def polar_meshes(cover):
    """The mesh of a polar cover, then the pruned and the row-by-row polar
    meshes and the dense scan of squared blocks that it replaced."""
    return (mesh(cover), oracles.polar_mesh_pruned(cover.space, cover),
            oracles.polar_mesh_rows(cover.space, cover), oracles.mesh_squared_blocks(cover))


class TestLiftArrayKernels:
    """The polar backend's pruned mesh and the array contraction check
    against the loops in oracles, exact equality."""

    @given(data=st.data(), kappa=st.sampled_from([-1.0, -0.25, -4.0, -2.7]))
    @settings(max_examples=150, deadline=None)
    def test_polar_mesh_matches_every_row(self, data, kappa):
        # radii up to 60, where the law of cosines cancels, repeated rings,
        # near-antipodal pairs and sets whose largest radius is off the top
        top = data.draw(st.floats(0.0, 60.0))
        count = data.draw(st.integers(1, 30))
        radius = st.one_of(st.floats(0.0, top), st.sampled_from([0.0, top / 3, top / 2, top]))
        radii = data.draw(st.lists(radius, min_size=count, max_size=count))
        base = data.draw(st.floats(0.0, 2 * math.pi))
        angle = st.one_of(st.floats(0.0, 2 * math.pi),
                          st.sampled_from([0.0, 1e-15, -1e-9, 1e-9]).map(
                              lambda e: base + math.pi + e),
                          st.just(base))
        angles = data.draw(st.lists(angle, min_size=count, max_size=count))
        sets = data.draw(st.lists(st.lists(st.integers(0, count - 1), max_size=12), max_size=6))
        disk = Space.hyperbolic_polar(kappa, list(zip(radii, angles)))
        cover = Cover(disk, sets, require_covering=False)
        assert len(set(polar_meshes(cover))) == 1

    @pytest.mark.parametrize("radius, step, angles, L", [(14.0, 1.0 / 3.0, 72, 0.5),
                                                         (30.0, 1.0, 48, 5.0),
                                                         (40.0, 1.0, 24, 0.5)])
    def test_polar_mesh_of_lifts(self, radius, step, angles, L):
        rho, N = hyperbolic_params(-1.0, 0.2, 1.0, L, 2)
        disk = sample_disk(-1.0, radius, step, angles)
        cov, _, _ = sphere_cover_lift(SphereAtlas(-1.0, rho, 0.2, 1.0), rho, N, L, disk,
                                      verify=False)
        assert len(set(polar_meshes(cov))) == 1

    @given(seed=st.integers(0, 2 ** 64 - 1), trials=st.integers(0, 400),
           k=st.integers(1, 3), rho=st.sampled_from([0.5, 1.0, 3.0, 4.6]),
           radius=st.sampled_from([3.0, 7.0, 14.0]), angles=st.integers(1, 40),
           kappa=st.sampled_from([-1.0, -0.3, -2.0]))
    @settings(max_examples=150, deadline=None)
    def test_contraction_matches_the_pair_loop(self, seed, trials, k, rho, radius, angles,
                                               kappa):
        # few points outside the disk make many i == j trials
        disk = sample_disk(kappa, radius, 1.0, angles)
        if np.count_nonzero(disk.meta["r"] >= k * rho - 1e-9) < 2:
            return
        new, old = SplitMix64(seed), SplitMix64(seed)
        got = check_contraction(kappa, rho, k, disk, new, trials)
        assert got == oracles.check_contraction_loop(kappa, rho, k, disk, old, trials)
        assert new.next_u64() == old.next_u64()

    def test_polar_mesh_above_the_radial_bound(self):
        # at radius R the computed distance of an antipodal pair exceeds 2R
        # by rounding; a first set whose pair computes to just above 2R must
        # not hide it, as a prune by d <= r_x + r_y (or the set skip
        # 2 max r <= worst) would
        R, near = 0.34947570647885673, 3.141592621978793
        first = float(hyperbolic_distance(-1.0, R, 0.0, R, near))
        far = float(hyperbolic_distance(-1.0, R, 0.0, R, math.pi))
        assert 2 * R <= first < far
        disk = Space.hyperbolic_polar(-1.0, [(R, 0.0), (R, near), (R, 0.0), (R, math.pi)])
        cover = Cover(disk, [[0, 1], [2, 3]])
        assert set(polar_meshes(cover)) == {far}
