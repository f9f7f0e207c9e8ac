"""Byte-identity guard: one pass of each certbench workload at seed 1 must
certify every item and reproduce the digests recorded in
certbench/reference_digests.json (each digest hashes an item's reports and
output covers)."""

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
