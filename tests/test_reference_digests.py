"""Byte-identity guard: one pass of each certbench workload at seed 1 must
certify every item and reproduce the digests recorded in
certbench/reference_digests.json (each digest hashes an item's reports and
output covers). The corona reports that certbench does not run, the
corona-full pipeline, band covers over a one-point corona, and circle bands
of 7 points and of a non-default overlap, are pinned here."""

import hashlib
import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "certbench")
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(BENCH_DIR, "reference_digests.json"), "r", encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_1_pass_matches_the_reference_digests(workload, tmp_path):
    digests = {}
    for item in WORKLOADS[workload](1, str(tmp_path), "full"):
        problems, digests[item.id] = item.check(item.certify(), None)
        assert problems == [], (item.id, problems)
    assert digests == REFERENCE[workload]["1"]


# sha256 of a report's result and guarantees (sorted keys, compact
# separators), followed by the bytes of the cover it wrote, if any; the
# pipeline and point reports were recorded with the corona module's earlier,
# point-by-point code, the circle bands with the dense arcs x points scan
CORONA_REPORTS = {
    "corona-full-depth-60": (None, ["pipeline", "corona-full", "--seed", "1", "--depth", "60"],
                             "68ec15c4a49e06e214242ad0413d62095b8c3df6c9f97726cd4dbd8b16e16a46"),
    "corona-full": (None, ["pipeline", "corona-full", "--seed", "1"],
                    "d5e89978d330f6ee593e5e970f3426f3de8dc46120c7b39be3afef1fa76e8f5f"),
    "dimcover-point": ({"kind": "point"}, ["--depth", "60"],
                       "0b34fe1bf77ed3b84720e86cb3719b2bea97437c9ab23cf99dc8440cd94a5ccd"),
    "dimcover-point-delta": ({"kind": "point", "delta": {"c": 2.0, "power": 1.0}},
                             ["--depth", "90"],
                             "864a33055079f9e9bb563bbcc14add66beaf3b1ec6d66873340d41bbb78263fc"),
    "dimcover-circle-7": ({"kind": "circle_arcs", "points": 7}, ["--depth", "60"],
                          "ef212c074a4652fe3b18d78a02be0a0219f7d0b1fa60842e131da2ad7c6b6e1e"),
    "dimcover-circle-120-overlap": ({"kind": "circle_arcs", "points": 120, "overlap": 0.75},
                                    ["--depth", "120"],
                                    "c46d624e9344cbad7299690f8adacea9af48b9e0a29f10b47f148139b49888d8"),
}


@pytest.mark.parametrize("name", sorted(CORONA_REPORTS))
def test_corona_reports_match_the_pinned_digests(name, tmp_path):
    from coarselab.cli import EXIT_OK, run
    from coarselab.jsonio import write_json

    schedule, argv, want = CORONA_REPORTS[name]
    out = None
    if schedule is not None:
        write_json(str(tmp_path / "schedule.json"), schedule)
        out = str(tmp_path / "band.json")
        argv = ["--out", out, "corona", "dimcover", "--schedule",
                str(tmp_path / "schedule.json")] + argv
    code, report = run(argv)
    assert code == EXIT_OK
    payload = {"result": report["result"], "guarantees": report["guarantees"]}
    h = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    if out is not None:
        with open(out, "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == want


def _edges(n, seed, reach):
    """A seeded random recursive tree: vertex v hangs from a vertex among the
    previous reach ones (all of them when reach is None)."""
    from coarselab.prng import SplitMix64

    rng = SplitMix64(seed)
    return [[rng.randint(0 if reach is None else max(0, v - reach), v - 1), v]
            for v in range(1, n)]


# sha256 over `witness tree` then `cover stats`: each report's result and
# guarantees (sorted keys, compact separators), the tree cover's bytes after
# the first; recorded with the per-row BFS distances that the tree metric
# kernels replaced
TREE_REPORTS = {
    "random-n2000-L1.0": (2000, None, "1.0",
                          "e8889518304e358217e674b2607dc55af7d2e960c82b2dc65c71c87cd8df90dc"),
    "deep-n300-L2.5": (300, 4, "2.5",
                       "d03e57a12bb609a1fc30c99ba16450cd3784644e9967d4d8ee4f5b69a980b542"),
}


@pytest.mark.parametrize("name", sorted(TREE_REPORTS))
def test_tree_reports_match_the_pinned_digests(name, tmp_path):
    from coarselab.cli import EXIT_OK, run
    from coarselab.jsonio import write_json

    n, reach, L, want = TREE_REPORTS[name]
    space, cover = str(tmp_path / "tree.json"), str(tmp_path / "cover.json")
    write_json(space, {"kind": "tree", "edges": _edges(n, 8, reach)})
    h = hashlib.sha256()
    for argv in (["--out", cover, "witness", "tree", "--space", space, "--L", L],
                 ["cover", "stats", "--space", space, "--cover", cover]):
        code, report = run(argv)
        assert code == EXIT_OK
        payload = {"result": report["result"], "guarantees": report["guarantees"]}
        h.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
        if argv[0] == "--out":
            with open(cover, "rb") as fh:
                h.update(fh.read())
    assert h.hexdigest() == want


def _sperner_grid(n, resolution, labeled):
    """A skewed n-simplex; labeled grids carry an explicit labeling that
    picks, at vertex v, entry v mod |support| of the sorted support."""
    corners = [[0.0] * n] + [[(1.5 + 0.25 * i) if j == i else 0.1 * (i + j)
                              for j in range(n)] for i in range(n)]
    doc = {"corners": corners, "resolution": resolution}
    if labeled:
        from coarselab.witnesses import SimplexGrid

        labels = []
        for v, b in enumerate(SimplexGrid(corners, resolution).vertices):
            support = [i for i, c in enumerate(b) if c > 0]
            labels.append(support[v % len(support)])
        doc["labeling"] = labels
    return doc


def _band_cover(points, width=4.0, overlap=1.5):
    """Overlapping intervals [lo - overlap, lo + width] over a sampled ray."""
    sets, lo = [], 0.0
    while lo <= max(points):
        sets.append([i for i, x in enumerate(points)
                     if lo - overlap - 1e-9 <= x <= lo + width + 1e-9])
        lo += width
    return {"sets": sets}


_RAY = [0.5 * k for k in range(1, 49)]

# sha256 of each report's result and guarantees (sorted keys, compact
# separators), followed by the bytes of the cover it wrote, if any; recorded
# with the per-row polar mesh, the per-vertex simplex grid walk and snap, and
# the per-point least-squares simplex mask that the array kernels replaced
WITNESS_REPORTS = {
    "pipeline-asdim-lower": ({}, ["pipeline", "asdim-lower", "--seed", "1"],
                             "706836ffcb5d8d806741093087bd46780ae854df6a878516e208004f126940da"),
    "pipeline-hyperbolic-full": ({}, ["pipeline", "hyperbolic-full", "--seed", "1"],
                                 "3f2733af0f619def1558b1da41c074843fdc643eb45a27623f4"
                                 "604461f373e21"),
    "hyperbolic-readme": ({}, ["--out", "{out}", "witness", "hyperbolic", "--kappa", "-1",
                               "--lam", "0.2", "--mesh-bound", "1", "--L", "5",
                               "--disk-radius", "30", "--radial-step", "1",
                               "--angles", "48"],
                          "f5b9dddbb97149c8e0a471b03fb33d48aad9e55bab1923d9eed137517d6fe77a"),
    "lowerbound-n1": ({"space": {"kind": "cloud", "points": [[x] for x in _RAY]},
                       "cover": _band_cover(_RAY)},
                      ["witness", "lowerbound", "--space", "{space}", "--cover", "{cover}",
                       "--n", "1"],
                      "7d0c0a76511f75535c5474e50ec28421417a9d139c77984469996a08c16f29aa"),
}
SPERNER_DIGESTS = {
    "sperner-n1-m9": "e1bcba5ec382f8e8abe2f749fd1b81b828f98d4ebc9bbc82514d270715b9d8da",
    "sperner-n1-m9-labeled": "4a3b6a9a6f04a23994152115abfe5ab6cb4b843b9cd44e6d55ba2e7a50e59ac3",
    "sperner-n2-m7": "3c9fe90c8ee7fe8eadf8f3af768d2d148cb669627379720aad4541ffd1d6e885",
    "sperner-n2-m7-labeled": "416ad36e0c40ca5e7e649dad86afba2f3832f9778110e35ed5a41869c9518657",
    "sperner-n3-m4": "579f9a2c519a0320ebbdb399e551b1bd7152744c38633ceeefaf4c238c09c53d",
    "sperner-n3-m4-labeled": "0c5e6825fa53ca51971d27de32fddbb3a583b267c8b07605eb9ce2f45b8859d1",
}
for _n, _m in ((1, 9), (2, 7), (3, 4)):
    for _labeled in (False, True):
        _name = f"sperner-n{_n}-m{_m}" + ("-labeled" if _labeled else "")
        WITNESS_REPORTS[_name] = (
            {"grid": _sperner_grid(_n, _m, _labeled)},
            ["witness", "sperner", "--grid", "{grid}"], SPERNER_DIGESTS[_name])

# `witness ray` on a 1-d grid [0, hi] of the given step, n = 0-3; recorded
# with the materialized (3n+6)-th power of the interval relation that the
# interval reaches replaced, and the two largest with the set-by-set band
# builder and set-pair witness that the band tables replaced
RAY_DIGESTS = {
    (0, 20.0, 0.5, 1.5, False): "5275892ceeeaee94631e718ab0d98958734a300613a8ba34085fdb82334637cb",
    (1, 30.0, 1.0, 2.0, True): "fe8ecd0826c99baabe98ad4e336ed62acc126bb4b68e8c93bde83a3d783660db",
    (1, 20.0, 0.25, 0.6, False): "2004840bfddc30b7b31c300a465ff57935a3d1a3a7542caa98580f0832b1151a",
    (2, 12.0, 0.5, 1.0, True): "2d5c5826af59a64cc1d2d354c14669403c28133eea94b651d391acaf5e4bf1b1",
    (2, 15.0, 1.0, 2.5, False): "ad009dbb2558797a1c206d2aa0398097a76e843c1354100ffcd41950baf8e8b3",
    (3, 6.0, 0.5, 0.75, False): "b9c39f552b537c8b7bafc7bed5b3530a8c93160ce5b64fd54fbecaf13ad58452",
    (3, 8.0, 1.0, 1.5, True): "94fdce077133b2b02e7906524479b758e80cff63fe0980c9849f014da4adf6de",
    (2, 60.0, 1.0, 2.0, False): "9bb0f83e06a10484dabe0a0006cb4e72a95a34f92738cbc0da9e0b3777d9aaa2",
    (3, 20.0, 1.0, 2.0, False): "47fefb69f1447d6fe752c3537d6c68d050f63720db292463f499996454aa1840",
}
for (_n, _hi, _step, _r, _closed), _digest in RAY_DIGESTS.items():
    _entourage = {"kind": "radius", "r": _r}
    if _closed:
        _entourage["closed"] = True
    WITNESS_REPORTS[f"ray-n{_n}-hi{_hi}-step{_step}-r{_r}" + ("-closed" if _closed else "")] = (
        {"space": {"kind": "grid", "dim": 1, "min": [0.0], "max": [_hi], "step": _step},
         "entourage": _entourage},
        ["--out", "{out}", "witness", "ray", "--space", "{space}", "--entourage",
         "{entourage}", "--n", str(_n)], _digest)


@pytest.mark.parametrize("name", sorted(WITNESS_REPORTS))
def test_witness_reports_match_the_pinned_digests(name, tmp_path):
    assert _witness_report_digest(name, tmp_path) == WITNESS_REPORTS[name][2]


def _witness_report_digest(name, tmp_path):
    from coarselab.cli import EXIT_OK, run
    from coarselab.jsonio import write_json

    docs, argv, _ = WITNESS_REPORTS[name]
    paths = {"out": str(tmp_path / "out.json")}
    for key, doc in docs.items():
        paths[key] = str(tmp_path / f"{key}.json")
        write_json(paths[key], doc)
    code, report = run([arg.format(**paths) for arg in argv])
    assert code == EXIT_OK
    payload = {"result": report["result"], "guarantees": report["guarantees"]}
    h = hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    if "{out}" in argv:
        with open(paths["out"], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _geometry_docs():
    """Seeded matrix, cloud and hyperbolic_polar space documents, each with
    a cover by overlapping bands of the first coordinate (scaled to [0, 10))
    with a few random points thrown in."""
    from coarselab.prng import SplitMix64

    rng = SplitMix64(12)
    xy = [[10 * rng.uniform(), 10 * rng.uniform()] for _ in range(9)]
    cloud = [[10 * rng.uniform(), 10 * rng.uniform()] for _ in range(40)]
    polar = [[4 * rng.uniform(), 7 * rng.uniform()] for _ in range(30)]
    docs = {
        "matrix": {"kind": "matrix",
                   "dist": [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in xy] for a in xy]},
        "cloud": {"kind": "cloud", "points": cloud},
        "hyperbolic_polar": {"kind": "hyperbolic_polar", "kappa": -1.7, "points": polar},
    }
    covers = {}
    for kind, keys in (("matrix", [p[0] for p in xy]), ("cloud", [p[0] for p in cloud]),
                       ("hyperbolic_polar", [2.5 * p[0] for p in polar])):
        n = len(keys)
        covers[kind] = {"sets": [sorted({i for i, x in enumerate(keys) if lo - 1 <= x < lo + 3}
                                        | {rng.randint(0, n - 1)}) for lo in range(0, 10, 2)]}
    return docs, covers


def _payload_digest(report) -> str:
    payload = {"result": report["result"], "guarantees": report["guarantees"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


# sha256 of the result and guarantees of `space info` and `cover stats` on
# each geometry's document from _geometry_docs; recorded with the per-kind
# distance rows and blocks and the row cache that the metric backends replaced
GEOMETRY_REPORTS = {
    ("space info", "matrix"):
        "9cb69ec7684bebad698097b7c240a820b2e9bd78ca876818fcc843c8497dd22c",
    ("space info", "cloud"):
        "0591422ef0e7bed0ee4c17a21736d49cc8b3287fc6fb28f496cc7a04d752d35b",
    ("space info", "hyperbolic_polar"):
        "88aa5ae67f56a17199c631715710ab359fc042fec0b65d491a75f0b21a04f027",
    ("cover stats", "matrix"):
        "6277dec302dccd860434ebd93aaac449f7d914af0c4b058df127cfb1a90dff93",
    ("cover stats", "cloud"):
        "d2332cebde27647d742a81664ff4c0a6abefc18f3e86da0e5f1f30ebd72e6866",
    ("cover stats", "hyperbolic_polar"):
        "a86a1d259d89032338d4b73fd0110d77665b2363f716b46c9e7234e2b06f5cc6",
}


@pytest.mark.parametrize("command,kind", sorted(GEOMETRY_REPORTS))
def test_geometry_reports_match_the_pinned_digests(command, kind, tmp_path):
    from coarselab.cli import EXIT_OK, run
    from coarselab.jsonio import write_json

    docs, covers = _geometry_docs()
    space, cover = str(tmp_path / "space.json"), str(tmp_path / "cover.json")
    write_json(space, docs[kind])
    write_json(cover, covers[kind])
    argv = command.split() + ["--space", space]
    if command == "cover stats":
        argv += ["--cover", cover]
    code, report = run(argv)
    assert code == EXIT_OK
    assert _payload_digest(report) == GEOMETRY_REPORTS[command, kind]


def test_product_stats_match_the_pinned_digest():
    """covers.stats over the product of a tree and a cloud, with the
    appetite of a radius relation; recorded as GEOMETRY_REPORTS were."""
    from coarselab.covers import Cover, stats
    from coarselab.prng import SplitMix64
    from coarselab.spaces import Entourage, Space

    rng = SplitMix64(13)
    tree = Space.tree([(rng.randint(0, v - 1), v) for v in range(1, 8)])
    cloud = Space.cloud([[3 * rng.uniform(), 3 * rng.uniform()] for _ in range(10)])
    prod = Space.product(tree, cloud)
    sets = [sorted({i for i in range(prod.n) if (i // 10 + i % 10) % 4 == k}
                   | {rng.randint(0, prod.n - 1) for _ in range(12)}) for k in range(4)]
    report = stats(Cover(prod, sets), Entourage.radius(prod, 1.5))
    digest = hashlib.sha256(json.dumps(report, sort_keys=True,
                                       separators=(",", ":")).encode()).hexdigest()
    assert digest == "857abccc0a7a9a4cc8ecfc5a48de3209ae86eb0be334d720797065a3fbbfea1e"
