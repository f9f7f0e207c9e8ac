"""Byte-identity guard: one pass of each certbench workload at seed 1 must
certify every item and reproduce the digests recorded in
certbench/reference_digests.json (each digest hashes an item's reports and
output covers). The corona reports that certbench does not run, the
corona-full pipeline and band covers over a one-point corona, are pinned
here."""

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
# separators), followed by the bytes of the cover it wrote, if any; recorded
# with the corona module's earlier, point-by-point code
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
