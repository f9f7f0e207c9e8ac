"""Hyperbolic-plane machinery: radial projection, parameter bounds, arc
atlases on concentric circles, and the lifted disk cover.

Points live in polar coordinates (r, phi) about a fixed basepoint in the
plane of constant curvature kappa < 0; distances come from the hyperbolic
law of cosines, which makes the radial projection onto a circle exact (it
preserves the angle). Circles of radius k*rho are covered by two
alternating families of closed arcs whose overlap is calibrated so that
every metric ball of radius lambda sits inside an arc, and the lifted cover
of the disk glues radial preimages of arcs into shells of controlled width.
"""

from __future__ import annotations

import math

import numpy as np

from .certificates import at_least, at_most, certify, count_at_most
from .covers import Cover, lebesgue_number, mesh, multiplicity
from .errors import ContractViolationError, InvalidInputError
from .spaces import PolarMetric, Space, hyperbolic_distance

TOL = 1e-9
# the number of alternating arc families on each circle of a SphereAtlas
ARC_COLORS = 2


def sqrt_minus_kappa(kappa: float) -> float:
    if kappa >= 0:
        raise InvalidInputError("curvature must be strictly negative")
    return math.sqrt(-kappa)


def chord_on_circle(kappa: float, radius: float, angle: float) -> float:
    """Hyperbolic distance between two points on the circle of the given
    radius separated by the given central angle."""
    return float(hyperbolic_distance(kappa, radius, 0.0, radius, angle))


def angle_for_chord(kappa: float, radius: float, chord: float) -> float:
    """Central angle whose chord on the circle has the given length.

    Inverts cosh(s*d) = cosh^2(s*r) - sinh^2(s*r) cos(theta); clamped to pi.
    """
    s = sqrt_minus_kappa(kappa)
    a = s * radius
    if a <= 0:
        return math.pi
    num = math.cosh(a) ** 2 - math.cosh(min(s * chord, 700.0))
    den = math.sinh(a) ** 2
    c = num / den
    if c < -1.0:
        return math.pi
    if c > 1.0:
        return 0.0
    return math.acos(c)


def radial_projection(point: tuple[float, float], k: int, rho: float) -> tuple[float, float]:
    """Project a point radially onto the circle of radius k*rho.

    The projection keeps the angular coordinate; it is only defined outside
    the open disk of radius k*rho.
    """
    r, phi = point
    target = k * rho
    if r < target - TOL:
        raise InvalidInputError(
            f"point at radius {r} lies inside the disk of radius {target}")
    return (target, phi)


def lipschitz_gap_bound(kappa: float, delta: float) -> float:
    """The gap beyond which the radial projection is delta-Lipschitz on sets
    of diameter below the gap: a > (2/sqrt(-kappa)) * max(1, log(2/delta))."""
    if delta <= 0:
        raise InvalidInputError("delta must be positive")
    s = sqrt_minus_kappa(kappa)
    return (2.0 / s) * max(1.0, math.log(2.0 / delta))


def hyperbolic_params(kappa: float, lam: float, mesh_bound: float, L: float,
                      n: int) -> tuple[float, int]:
    """Smallest (rho, N) on a 0.01 lattice satisfying the shell bounds.

    rho must exceed all of: mesh_bound/n, the delta = lam/mesh_bound
    Lipschitz gap divided by n, and 2L. N is the smallest natural number
    with (N-1)*rho beyond both 2L and the delta = lam/L Lipschitz gap.
    """
    if min(lam, mesh_bound, L) <= 0 or n < 1:
        raise InvalidInputError("lambda, mesh bound, L must be positive and n >= 1")
    s = sqrt_minus_kappa(kappa)
    rho_floor = max(
        mesh_bound / n,
        (2.0 / s) * max(1.0, math.log(2.0 * mesh_bound / lam)) / n,
        2.0 * L,
    )
    steps = int(math.floor(rho_floor / 0.01 + TOL)) + 1
    rho = round(steps * 0.01, 10)
    shift_floor = max(2.0 * L, (2.0 / s) * max(1.0, math.log(2.0 * L / lam)))
    N = 1
    while (N - 1) * rho <= shift_floor + TOL:
        N += 1
    return rho, N


# ---------------------------------------------------------------------------
# Arc atlases on concentric circles
# ---------------------------------------------------------------------------


class SphereAtlas:
    """Two-family arc covers of the circles of radius k*rho, k = 0, 1, 2, ...

    Each circle is split into an even number m of closed arcs with equally
    spaced centers j * (2 pi / m), alternating between the two families;
    neighboring arcs overlap by the angle of a chord-lambda ball, so every
    metric ball of radius lambda sits inside an arc, the mesh stays under
    the declared bound, and each family has multiplicity one. Circle 0 is
    the single basepoint.

    The arc count m grows like the circumference, i.e. exponentially in the
    radius, so arcs are never enumerated: they are addressed by index j in
    [0, m) and membership is index arithmetic.
    """

    def __init__(self, kappa: float, rho: float, lam: float, mesh_bound: float):
        if lam <= 0 or mesh_bound <= 2 * lam:
            raise InvalidInputError("need 0 < 2*lambda < mesh bound")
        self.kappa = float(kappa)
        self.rho = float(rho)
        self.lam = float(lam)
        self.mesh_bound = float(mesh_bound)
        self.n_colors = ARC_COLORS
        self._layout: dict[int, tuple[int, float, float, float]] = {}

    def layout(self, k: int) -> tuple[int, float, float, float]:
        """(arc count, center spacing, arc half width, lambda half width)
        of circle k, all angles in radians."""
        got = self._layout.get(k)
        if got is not None:
            return got
        if k == 0:
            out = (1, 2 * math.pi, math.pi, math.pi)
            self._layout[0] = out
            return out
        radius = k * self.rho
        theta_lam = angle_for_chord(self.kappa, radius, self.lam)
        # widest center spacing keeping whole arcs within the mesh bound
        lo, hi = 0.0, math.pi
        for _ in range(200):
            mid = (lo + hi) / 2
            if chord_on_circle(self.kappa, radius,
                               min(mid + 2 * theta_lam, math.pi)) <= self.mesh_bound:
                lo = mid
            else:
                hi = mid
        sigma_max = lo
        if sigma_max <= 2 * theta_lam:
            raise InvalidInputError(
                f"circle {k} too small for the requested lambda/mesh ratio")
        m = 2 * int(math.ceil(math.pi / sigma_max))
        sigma = 2 * math.pi / m
        if sigma <= 2 * theta_lam + 1e-15:
            raise InvalidInputError(
                f"circle {k} cannot fit an even number of overlapping arcs")
        out = (m, sigma, sigma / 2 + theta_lam, theta_lam)
        self._layout[k] = out
        return out

    def arc(self, k: int, j: int) -> tuple[int, float, float]:
        """(family, center angle, half width) of arc j on circle k."""
        m, sigma, half, _ = self.layout(k)
        j %= m
        return (j % 2, j * sigma, half)

    def arcs_containing(self, k: int, phi: float) -> list[int]:
        """Indices of the arcs of circle k containing the angle; at most one
        per family."""
        m, sigma, half, _ = self.layout(k)
        if m == 1:
            return [0]
        lo = int(math.ceil((phi - half) / sigma - TOL))
        hi = int(math.floor((phi + half) / sigma + TOL))
        out = []
        for j in range(lo, hi + 1):
            if _circ_dist(phi, (j % m) * sigma) <= half + TOL:
                out.append(j % m)
        return sorted(set(out))

    def arc_contains_interval(self, k: int, j: int, center: float,
                              half: float) -> bool:
        _, c, h = self.arc(k, j)
        if half > h:
            return False
        return _circ_dist(center, c) + half <= h + TOL

    def transfer(self, k: int, j_high: int) -> int:
        """The arc of circle k that absorbs arc j_high of circle k + n_colors:
        the lowest-index arc whose span contains the chord-lambda ball around
        the projected midpoint."""
        if k == 0:
            return 0
        m, sigma, half, theta_lam = self.layout(k)
        _, center, _ = self.arc(k + self.n_colors, j_high)
        for j in self.arcs_containing(k, center):
            if self.arc_contains_interval(k, j, center, theta_lam):
                return j
        raise ContractViolationError(
            f"no arc on circle {k} accommodates the lambda ball of arc "
            f"{j_high} on circle {k + self.n_colors}", witness=(k, j_high))


def _circ_dist(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def sample_disk(kappa: float, max_radius: float, radial_step: float,
                angles: int) -> Space:
    """Polar sample of the closed disk: the basepoint plus rings of equally
    spaced angles at every multiple of the radial step."""
    pts = [(0.0, 0.0)]
    r = radial_step
    while r <= max_radius + TOL:
        for j in range(angles):
            pts.append((r, 2 * math.pi * j / angles))
        r += radial_step
    return Space.hyperbolic_polar(kappa, pts)


def check_contraction(kappa: float, rho: float, k: int, space: Space,
                      rng, trials: int) -> float:
    """Largest violation of d(theta(x), theta(y)) <= d(x, y) over random
    sample pairs outside the projection disk; negative means slack.

    Each trial draws i, then j, from the generator; trials with i == j are
    skipped. The distances of all pairs, and of their projections onto the
    circle of radius k*rho, are two array calls.
    """
    rr, ph = space.backend.r, space.backend.phi
    outside = np.nonzero(rr >= k * rho - TOL)[0]
    if outside.size < 2:
        raise InvalidInputError("not enough sample points outside the disk")
    draws = [rng.randint(0, outside.size - 1) for _ in range(2 * trials)]
    i, j = outside[np.array(draws, dtype=np.int64).reshape(trials, 2).T]
    i, j = i[i != j], j[i != j]
    if not i.size:
        return -math.inf
    d = hyperbolic_distance(kappa, rr[i], ph[i], rr[j], ph[j])
    dt = hyperbolic_distance(kappa, k * rho, ph[i], k * rho, ph[j])
    return float((dt - d).max())


def check_radial_lipschitz(kappa: float, rho: float, k: int, gap: float,
                           delta: float, angles: int) -> float:
    """Largest ratio d(theta x, theta y) / d(x, y) over sampled pairs on the
    circle of radius k*rho + gap with d(x, y) < gap; should stay <= delta
    once gap exceeds the Lipschitz gap bound."""
    radius = k * rho + gap
    phis = np.arange(angles) * (2 * math.pi / angles)
    worst = 0.0
    for i in range(angles):
        d = hyperbolic_distance(kappa, radius, phis[i], radius, phis)
        tproj = hyperbolic_distance(kappa, k * rho, phis[i], k * rho, phis)
        mask = (d > TOL) & (d < gap - TOL)
        if np.any(mask):
            worst = max(worst, float((tproj[mask] / d[mask]).max()))
    return worst


# ---------------------------------------------------------------------------
# The lifted disk cover
# ---------------------------------------------------------------------------


def sphere_cover_lift(atlas: SphereAtlas, rho: float, N: int, L: float,
                      disk: Space, verify: bool = True):
    """Cover the sampled disk by shells glued from radial arc preimages.

    For every second circle index k (stepping by the number of colors n)
    and every arc U of color i on circle k, the covering set is

        A(U): the radial preimage of U between radii (k+N+i-1)*rho and
              (k+N+n)*rho  (the full core disk of radius (N+n)*rho at k = 0)
        B(V): for each arc V on circle k+n that the transfer map sends to U,
              the preimage of V between (k+n+N)*rho and (k+n+N+i_V)*rho

    The transfer map picks, deterministically, the first arc on circle k
    whose span contains the chord-lambda ball around the projected midpoint
    of V; its existence is guaranteed once (rho, N) satisfy the parameter
    bounds. Guarantees: multiplicity <= n+1, mesh <= 2(N+2n)rho + mesh
    bound, discrete Lebesgue >= L.
    """
    if not isinstance(disk.backend, PolarMetric):
        raise InvalidInputError("lift needs a hyperbolic polar sample")
    n = atlas.n_colors
    rr, ph = disk.backend.r, disk.backend.phi
    max_r = float(rr.max())

    ks = [0]
    while (ks[-1] + N) * rho <= max_r + TOL:
        ks.append(ks[-1] + n)
    kset = set(ks)

    # assemble sets bottom-up from sample points; arcs never containing a
    # sample point never materialize, which matters because circles carry
    # exponentially many arcs
    members: dict[tuple[int, int], list[int]] = {}
    for idx in range(disk.n):
        r, phi = float(rr[idx]), float(ph[idx])
        for k in ks:
            shell_lo = (k + N) * rho
            shell_hi = (k + N + n) * rho
            if k == 0:
                if r < (N + n) * rho - TOL:
                    members.setdefault((0, 0), []).append(idx)
                continue
            if not (shell_lo - TOL <= r < shell_hi - TOL):
                continue
            # deep part of arcs on circle k: color i reaches down to
            # radius (k+N+i-1) * rho
            for j in atlas.arcs_containing(k, phi):
                color = j % 2 + 1
                if r >= (k + N + color - 1) * rho - TOL:
                    members.setdefault((k, j), []).append(idx)
            # shallow part: arcs on circle k feed the layer below through
            # the transfer map, for radii up to (k+N+color) * rho
            k_prev = k - n
            if k_prev in kset:
                for j in atlas.arcs_containing(k, phi):
                    color = j % 2 + 1
                    if r < (k + N + color) * rho - TOL:
                        members.setdefault((k_prev, atlas.transfer(k_prev, j)),
                                           []).append(idx)

    labels = sorted(members)
    sets = [tuple(sorted(set(members[key]))) for key in labels]
    out = Cover(disk, sets, require_covering=True, canonicalize=False)
    if not verify:
        return out, [], labels
    return out, certify([
        count_at_most("sphere_lift.multiplicity", multiplicity(out), n + 1),
        at_most("sphere_lift.mesh", mesh(out),
                2 * (N + 2 * n) * rho + atlas.mesh_bound),
        at_least("sphere_lift.lebesgue", lebesgue_number(out), L),
    ]), labels
