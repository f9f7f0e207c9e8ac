"""The certify workloads.

Each workload has a set-up step, `prepare(seed, workdir, size)`, that draws
every input from the seed with coarselab's splitmix generator and the
`fixtures` module, writes the JSON input files the CLI reads, and returns a
list of items. An item is one certified construction: `certify()` calls
coarselab (through `cli.run` or the public API) and is what the benchmark
times; `check(outputs, mutate)` verifies the outputs with the benchmark's
own recount and returns (problems, digest).

Items rebuild every coarselab object from raw data inside `certify()`, so no
row cache or entourage-power cache survives from one pass to the next.
"""

from __future__ import annotations

import json
import os

import numpy as np

from coarselab import (cli, covers, fixtures, hyperbolic, spaces, support, transforms,
                       witnesses)
from coarselab.prng import SplitMix64

from checks import cover_problems, digest, guarantee_problems

GRID_SIDES = {"full": (27, 39, 54), "tiny": (8, 11, 15)}
RUNGS = ("small", "mid", "large")
# corona-band: bands per pass, the circle sizes the seed draws from
# (lo + step * k, k in 0..8; every one was checked to certify) and the
# product points (circle x (depth + 1)) each band keeps near, so the seed
# changes the shape of a band and not the amount of work
CORONA_BANDS = {"full": (6, 224, 4, 16_000), "tiny": (2, 48, 4, 1_000)}
# Items per pass in small-many. Sorted by time, the full mix is 42 support
# trials (2-5 ms on the defining machine), 56 merges (5-10 ms), 25 colorize
# and product items (10-25 ms), 6 colorize runs on 2-d grids (about 60 ms),
# 6 of them followed by expand (about 100 ms) and 5 items of 0.15-0.7 s.
# The counts put the median in the middle of the merges and the 90th
# percentile (140 items, 14 above it) in the middle of the 2-d colorize
# runs, so that neither falls on the edge between two groups of unlike
# items.
SMALL_MIX = {
    "full": {"grid": 24, "partition": 8, "merge": 56, "product": 5, "support": 42},
    "tiny": {"grid": 2, "partition": 1, "merge": 1, "product": 1, "support": 2},
}
# small-many's two tree items: (vertices, L) of a random recursive tree and
# of a deep one; L is fixed because a smaller L means more classes and a
# slower class separation
SMALL_TREES = {"full": ((400, 1.5), (300, 2.5)), "tiny": ((40, 1.5), (30, 2.5))}


class Item:
    def __init__(self, item_id: str, certify, check, rung=None, points=0):
        self.id = item_id
        self.certify = certify
        self.check = check
        self.rung = rung
        self.points = points


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# CLI chains
# ---------------------------------------------------------------------------


class Step:
    """One `cli.run` call. `check(doc, result, prev)` returns problems; doc
    is the cover the step wrote (or None), prev the last cover written by an
    earlier step of the chain."""

    def __init__(self, name: str, argv: list, check, artifact=None):
        self.name = name
        self.argv = [str(a) for a in argv]
        self.check = check
        self.artifact = artifact


def cli_chain(item_id: str, steps: list, rung=None, points=0) -> Item:
    def certify():
        outputs = []
        for step in steps:
            code, report = cli.run(step.argv)
            outputs.append((code, report))
            if code != 0:
                break
        return outputs

    def check(outputs, mutate):
        problems, parts, prev = [], [], None
        if len(outputs) < len(steps):
            problems.append(f"chain stopped after {len(outputs)} of {len(steps)} steps")
        for step, (code, report) in zip(steps, outputs):
            if code != 0:
                problems.append(f"{step.name}: exit code {code}: {report.get('error')}")
                continue
            guarantees = report.get("guarantees", [])
            problems += [f"{step.name}: {p}" for p in guarantee_problems(guarantees)]
            doc = None
            if step.artifact:
                doc = _read(step.artifact)
                if mutate is not None:
                    doc = mutate(doc)
            result = report.get("result", {})
            problems += [f"{step.name}: {p}" for p in step.check(doc, result, prev)]
            parts.append((step.name, code, result, guarantees, doc))
            prev = doc if doc is not None else prev
        return problems, digest(*parts)

    return Item(item_id, certify, check, rung, points)


def _stats_check(result, prev, n_points):
    out = cover_problems(prev, n_points, 10**9,
                         reported={"multiplicity": result.get("multiplicity"),
                                   "sets": result.get("sets")})
    if result.get("empty_sets", 0):
        out.append(f"{result['empty_sets']} empty sets")
    return out


def prepare_grid_ladder(seed: int, workdir: str, size: str) -> list:
    """cube -> colorize -> expand -> stats on 2-d grids at three rungs."""
    rng = SplitMix64(seed)
    L = _write(os.path.join(workdir, "L.json"), {"kind": "radius", "r": 1.000001})
    items = []
    for rung, side in zip(RUNGS, GRID_SIDES[size]):
        # the edge and offset ranges of fixtures.randomized_grid_cover for
        # n = 2: edges in [19, 27] keep L^3-chains inside single cubes
        a = rng.randint(19, 27)
        off = rng.randint(0, 3)
        npts = (side + 1) ** 2
        base = os.path.join(workdir, rung)
        space = _write(base + "-space.json", {"kind": "grid", "dim": 2, "min": [off, off],
                                              "max": [off + side] * 2, "step": 1.0})
        cube, col, exp = base + "-cube.json", base + "-col.json", base + "-exp.json"

        def cover_check(mult_bound, keys, n=npts):
            def check(doc, result, prev):
                return cover_problems(doc, n, mult_bound, n_families=3,
                                      reported={k: result.get(k) for k in keys})
            return check

        def stats_check(doc, result, prev, n=npts):
            out = _stats_check(result, prev, n)
            if result.get("appetite") is not True:
                out.append("expanded cover lacks appetite for L")
            return out

        steps = [
            Step("witness cube", ["--out", cube, "witness", "cube", "--n", 2, "--a", a,
                                  "--min", off, "--max", off + side, "--step", 1],
                 cover_check(3, ("sets", "families")), cube),
            Step("transform colorize", ["--out", col, "transform", "colorize", "--space", space,
                                        "--cover", cube, "--entourage", L, "--n", 2],
                 cover_check(3, ("families",)), col),
            Step("transform expand", ["--out", exp, "transform", "expand", "--space", space,
                                      "--cover", col, "--entourage", L],
                 cover_check(3, ("sets",)), exp),
            Step("cover stats", ["cover", "stats", "--space", space, "--cover", exp,
                                 "--entourage", L], stats_check),
        ]
        items.append(cli_chain(f"grid-{rung}-n{npts}-a{a}-o{off}", steps, rung, npts))
    return items


def _tree_chain(item_id, path, edges, L):
    n = len(edges) + 1
    space = _write(path, {"kind": "tree", "edges": edges})
    cover = path.replace(".json", "-cover.json")

    def cover_check(doc, result, prev):
        return cover_problems(doc, n, 2, n_families=2,
                              reported={"sets": result.get("sets")})

    steps = [
        Step("witness tree", ["--out", cover, "witness", "tree", "--space", space, "--L", L],
             cover_check, cover),
        Step("cover stats", ["cover", "stats", "--space", space, "--cover", cover],
             lambda doc, result, prev: _stats_check(result, prev, n)),
    ]
    return cli_chain(item_id, steps)


def _model_doc(model) -> dict:
    return {"space": {"kind": "cloud", "points": model.ambient.meta["coords"].tolist()},
            "interior": model.interior, "corona": model.corona}


def prepare_corona_band(seed: int, workdir: str, size: str) -> list:
    """The corona-full work: band covers of circle x levels, and the
    roundtrip bounds on an interval and a disk model."""
    rng = SplitMix64(seed)
    bands, lo, step, work = CORONA_BANDS[size]
    items = []
    for k in range(bands):
        points = lo + step * rng.randint(0, 8)
        depth = round(work / points) - 1
        product_points = points * (depth + 1)
        sched = _write(os.path.join(workdir, f"schedule-{k}.json"),
                       {"kind": "circle_arcs", "points": points})
        band = os.path.join(workdir, f"band-{k}.json")

        def band_check(doc, result, prev, n=product_points):
            return cover_problems(doc, n, 3, reported={"sets": result.get("sets")})

        items.append(cli_chain(f"band{k}-p{points}-d{depth}", [
            Step("corona dimcover", ["--out", band, "corona", "dimcover", "--schedule", sched,
                                     "--depth", depth], band_check, band)]))
    # the roundtrip models of pipeline corona-full; their cost grows fast
    # with their size, so they stay fixed
    interval = _write(os.path.join(workdir, "interval.json"),
                      _model_doc(fixtures.unit_interval_model(1.0 / 200)))
    disk = _write(os.path.join(workdir, "disk.json"), _model_doc(fixtures.disk_model()))

    def equiv_check(doc, result, prev):
        return [] if result.get("checked", 0) > 0 else ["no band bound was checked"]

    return items + [
        cli_chain("equiv-interval-200", [
            Step("corona equiv", ["corona", "equiv", "--model", interval], equiv_check)]),
        cli_chain("equiv-disk-20x36", [
            Step("corona equiv", ["corona", "equiv", "--model", disk], equiv_check)]),
    ]


# ---------------------------------------------------------------------------
# small-many: public API items
# ---------------------------------------------------------------------------


def _cover_doc(cover) -> dict:
    doc = {"sets": [list(s) for s in cover.sets]}
    if cover.families is not None:
        doc["families"] = [list(f) for f in cover.families]
    return doc


def _api_item(item_id, certify, check_cover) -> Item:
    """certify() returns (cover, guarantees, extra); check_cover(doc, cover,
    extra) returns problems about the (possibly mutated) cover document."""
    def check(outputs, mutate):
        cover, guarantees, extra = outputs
        problems = guarantee_problems(guarantees)
        doc = None
        if cover is not None:
            doc = _cover_doc(cover)
            if mutate is not None:
                doc = mutate(doc)
        problems += check_cover(doc, cover, extra)
        return problems, digest(guarantees, doc, extra)
    return Item(item_id, certify, check)


def _grid_colorize_item(k, rng):
    n = 1 + k % 2
    with_expand = k % 4 >= 2
    cover, L = fixtures.randomized_grid_cover(rng, n)
    coords = cover.space.meta["coords"]
    spec = (n, coords.min(axis=0).tolist(), coords.max(axis=0).tolist(),
            cover.space.meta["step"])
    sets = [list(s) for s in cover.sets]
    radius = spec[3] + 1e-6

    def certify():
        space = spaces.Space.grid(*spec)
        ent = spaces.Entourage.radius(space, radius).materialize()
        out, cert = transforms.colorize(covers.Cover(space, sets), ent, n)
        if with_expand:
            out, cert2 = transforms.expand(out, ent)
            cert = cert + cert2
        return out, cert, None

    def check_cover(doc, out, extra):
        return cover_problems(doc, out.space.n, n + 1, n_families=n + 1,
                              reported={"sets": len(out.sets)})

    name = "colorize-expand" if with_expand else "colorize"
    return _api_item(f"{name}-grid{n}-{k}", certify, check_cover)


def _partition_colorize_item(k, rng):
    n = 1 + k % 2
    cover, L = fixtures.randomized_partition_cover(rng, points=300)
    coords = cover.space.meta["coords"]
    sets = [list(s) for s in cover.sets]
    # chains of n+1 hops must stay inside a cell
    radius = max(L.r / (n + 1), 1e-4)

    def certify():
        space = spaces.Space.cloud(coords)
        ent = spaces.Entourage.radius(space, radius).materialize()
        out, cert = transforms.colorize(covers.Cover(space, sets), ent, n)
        return out, cert, None

    def check_cover(doc, out, extra):
        return cover_problems(doc, out.space.n, n + 1, n_families=n + 1,
                              reported={"sets": len(out.sets)})

    return _api_item(f"colorize-partition{n}-{k}", certify, check_cover)


def _merge_item(k, rng):
    ca, cb, L = fixtures.two_piece_union_fixture(rng)
    hi = ca.space.n - 1
    a = ([list(s) for s in ca.sets], [list(f) for f in ca.families])
    b = ([list(s) for s in cb.sets], [list(f) for f in cb.families])
    union = sorted({p for s in a[0] + b[0] for p in s})
    n_fam = len(a[1])

    def certify():
        sp = spaces.Space.line(0, hi, 1.0)
        diag = spaces.Entourage.diagonal(sp)
        cover_a = transforms.ColoredCover(sp, a[0], a[1], diag, require_covering=False,
                                          canonicalize=False)
        cover_b = transforms.ColoredCover(sp, b[0], b[1], diag, require_covering=False,
                                          canonicalize=False)
        ent = spaces.Entourage.radius(sp, 1.0, closed=True).materialize()
        out, cert = transforms.merge_union(cover_a, cover_b, ent)
        return out, cert, None

    def check_cover(doc, out, extra):
        return cover_problems(doc, hi + 1, n_fam, universe=union, n_families=n_fam,
                              reported={"sets": len(out.sets)})

    return _api_item(f"merge-union-{k}", certify, check_cover)


def _interval_sets(n: int, spacing: int = 8, reach: int = 7) -> list:
    sets, i = [], 0
    while i * spacing < n + reach:
        lo, hi = max(0, i * spacing - reach + 1), min(n - 1, i * spacing + reach)
        if lo <= hi:
            sets.append(list(range(lo, hi + 1)))
        i += 1
    return sets


def _product_item(item_id, make_factors, n, m):
    """make_factors() -> (space_x, sets_x, space_y, sets_y), built inside
    certify so the timed call constructs every coarselab object."""
    def certify():
        x, sets_x, y, sets_y = make_factors()
        prod = spaces.Space.product(x, y)
        ex = spaces.Entourage.radius(x, 1.0, closed=True).materialize()
        ey = spaces.Entourage.radius(y, 1.0, closed=True).materialize()
        ent = transforms.make_product_entourage(prod, ex, ey)
        out, cert = transforms.product_refine(covers.Cover(x, sets_x), covers.Cover(y, sets_y),
                                              ent, n, m)
        return out, cert, None

    def check_cover(doc, out, extra):
        return cover_problems(doc, out.space.n, n + m + 1, n_families=n + m + 1,
                              reported={"sets": len(out.sets)})

    return _api_item(item_id, certify, check_cover)


def _line_product_item(k, rng):
    nx, ny = rng.randint(14, 24), rng.randint(14, 24)
    sx, sy = _interval_sets(nx), _interval_sets(ny)
    return _product_item(
        f"product-line{nx}x{ny}-{k}",
        lambda: (spaces.Space.line(0, nx - 1, 1.0), sx, spaces.Space.line(0, ny - 1, 1.0), sy),
        1, 1)


def _line_grid_product_item():
    y = spaces.Space.grid(2, [0, 0], [11, 11], 1.0)
    sy = [list(s) for s in witnesses.cube_cover(y, 2, 50.0)[0].sets]
    return _product_item(
        "product-line10xgrid144",
        lambda: (spaces.Space.line(0, 9, 1.0), [list(range(10))],
                 spaces.Space.grid(2, [0, 0], [11, 11], 1.0), sy),
        1, 2)


def _support_item(k, rng):
    blocks = rng.randint(2, 6)
    dims = [rng.randint(1, 4) for _ in range(blocks)]
    total = sum(dims)
    mats = []
    for _ in range(2):
        m = np.zeros((total, total), dtype=complex)
        for i in range(total):
            for j in range(total):
                if rng.uniform() < 0.4:
                    m[i, j] = rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5)
        mats.append(m)
    u = np.array([rng.uniform() - 0.5 if rng.uniform() < 0.6 else 0.0
                  for _ in range(total)], dtype=complex)

    def certify():
        dec = support.Decomposition(spaces.Space.discrete(blocks),
                                    [[i] for i in range(blocks)], dims)
        report = support.check_calculus(support.BlockOperator(dec, mats[0]),
                                        support.BlockOperator(dec, mats[1]), u)
        return None, report["checks"], report["all_pass"]

    def check_cover(doc, cover, all_pass):
        return [] if all_pass else ["check_calculus reports all_pass false"]

    return _api_item(f"support-{blocks}b{total}d-{k}", certify, check_cover)


def _hyperbolic_item(seed):
    """A lift whose shells lie beyond the core disk (kappa -1, lambda 0.2,
    D 1, L 0.5, disk radius 14, radial step 1/3, 72 angles)."""
    kappa, lam, mesh_bound, L = -1.0, 0.2, 1.0, 0.5

    def certify():
        rho, N = hyperbolic.hyperbolic_params(kappa, lam, mesh_bound, L, 2)
        atlas = hyperbolic.SphereAtlas(kappa, rho, lam, mesh_bound)
        disk = hyperbolic.sample_disk(kappa, 14.0, 1.0 / 3.0, 72)
        cov, cert, labels = hyperbolic.sphere_cover_lift(atlas, rho, N, L, disk)
        worst = hyperbolic.check_contraction(kappa, rho, 1, disk, SplitMix64(seed), 500)
        cert = cert + [{"id": "hyperbolic.contraction", "claimed": "<= 0",
                        "measured": worst, "pass": worst <= 1e-9}]
        return cov, cert, {"rho": rho, "N": N}

    def check_cover(doc, cov, extra):
        out = cover_problems(doc, cov.space.n, 3, reported={"sets": len(cov.sets)})
        if len(cov.sets) < 2:
            out.append("lift built only the core disk")
        return out

    return _api_item("hyperbolic-lift-r14", certify, check_cover)


def _lower_bound_item():
    sample = witnesses.pn_sample(2, 16.0, 0.5)
    coords = sample.meta["coords"]
    sets = [list(s) for s in witnesses.cube_cover(sample, 2, 8.0)[0].sets]

    def certify():
        cover = covers.Cover(spaces.Space.cloud(coords), sets)
        cert = witnesses.simplex_lower_bound_check(cover, 2)
        return cover, [], {"point": cert["point"], "sets": cert["sets"]}

    def check_cover(doc, cover, cert):
        # set indices refer to the cover's canonical set order
        containing = [si for si, s in enumerate(doc["sets"]) if cert["point"] in s]
        problems = []
        if len(containing) < 3:
            problems.append(f"point {cert['point']} lies in {len(containing)} < 3 sets")
        if not set(cert["sets"]) <= set(containing):
            problems.append("certificate names sets that miss its point")
        return problems

    return _api_item("lower-bound-pn2", certify, check_cover)


def prepare_small_many(seed: int, workdir: str, size: str) -> list:
    """A seeded mix of small certified constructions."""
    rng = SplitMix64(seed)
    mix = SMALL_MIX[size]
    items = [_grid_colorize_item(k, rng) for k in range(mix["grid"])]
    items += [_partition_colorize_item(k, rng) for k in range(mix["partition"])]
    items += [_merge_item(k, rng) for k in range(mix["merge"])]
    items += [_line_product_item(k, rng) for k in range(mix["product"])]
    items.append(_line_grid_product_item())
    items += [_support_item(k, rng) for k in range(mix["support"])]
    (n_tree, L_tree), (n_deep, L_deep) = SMALL_TREES[size]
    edges = [[rng.randint(0, v - 1), v] for v in range(1, n_tree)]
    items.append(_tree_chain(f"tree-n{n_tree}-L{L_tree}", os.path.join(workdir, "tree.json"),
                             edges, L_tree))
    # each parent among the previous four vertices: depth about 2n/5
    # instead of about e ln n
    edges = [[rng.randint(max(0, v - 4), v - 1), v] for v in range(1, n_deep)]
    items.append(_tree_chain(f"tree-deep-n{n_deep}-L{L_deep}",
                             os.path.join(workdir, "tree-deep.json"), edges, L_deep))
    items.append(_hyperbolic_item(seed))
    items.append(_lower_bound_item())
    return items


WORKLOADS = {
    "grid-ladder": prepare_grid_ladder,
    "corona-band": prepare_corona_band,
    "small-many": prepare_small_many,
}
