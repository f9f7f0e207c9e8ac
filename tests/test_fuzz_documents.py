"""Malformed documents through the whole command line: every run renders
one JSON report line and exits with a documented code.

Each case starts from a valid document of one format and damages it: a
value anywhere in it is replaced by one of the wrong JSON type (strings for
numbers, bools and fractions for indices, nulls, lists, objects), a key is
dropped, the whole document is replaced, or the file is replaced by raw
bytes that need not be JSON. Numbers stay small, so no case asks for a
sample or a relation large enough to be allocated.
"""

import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from coarselab.cli import EXIT_CONTRACT, EXIT_INVALID, EXIT_OK, EXIT_USAGE, render, run

LINE = {"kind": "grid", "dim": 1, "min": [0], "max": [3], "step": 1.0}
COVER = {"sets": [[0, 1], [1, 2, 3]], "families": [[0], [1]]}
ENTOURAGE = {"kind": "pairs", "pairs": [[0, 1], [2, 3]]}
SPACES = [
    LINE,
    {"kind": "matrix", "dist": [[0, 1], [1, 0]]},
    {"kind": "tree", "edges": [[0, 1], [1, 2]]},
    {"kind": "hyperbolic_polar", "kappa": -1, "points": [[0, 0], [1, 0.5]]},
    {"kind": "cloud", "points": [[0, 0], [1, 1]]},
]
MODEL = {"space": LINE, "interior": [0, 1, 2], "corona": [3]}
SCHEDULE = {"kind": "circle_arcs", "points": 6, "overlap": 0.95,
            "delta": {"c": 4.0, "power": 1.5}}
DECOMPOSITION = {"blocks": [[0], [1]], "dims": [1, 2]}
COMPLEX = {"coordinates": [[0, 0], [1, 0]], "maximal": [[0, 1]]}
GRID = {"corners": [[0, 0], [1, 0], [0, 1]], "resolution": 2, "labeling": [0, 0, 0, 1, 1, 2]}
OPERATOR = {"dims": [1, 2], "re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}

# (command with one document to damage, {flag: its valid document}); the
# damaged flag is the first one
COMMANDS = {
    "space": [(["space", "info"], {"--space": doc}) for doc in SPACES],
    "cover": [(["cover", "stats"], {"--cover": COVER, "--space": LINE}),
              (["transform", "expand"], {"--cover": COVER, "--space": LINE,
                                         "--entourage": ENTOURAGE})],
    "entourage": [(["cover", "stats"], {"--entourage": ENTOURAGE, "--space": LINE,
                                        "--cover": COVER}),
                  (["transform", "colorize", "--n", "1"],
                   {"--entourage": {"kind": "radius", "r": 0.5}, "--space": LINE,
                    "--cover": {"sets": [[0, 1, 2, 3]]}})],
    "model": [(["corona", "equiv"], {"--model": MODEL}),
              (["corona", "check"], {"--model": MODEL,
                                     "--entourage": {"kind": "radius", "r": 1.5}})],
    "complex": [(["witness", "star", "--stability", "1"], {"--complex": COMPLEX})],
    "simplex-grid": [(["witness", "sperner"], {"--grid": GRID})],
    "schedule": [(["corona", "dimcover", "--depth", "4"], {"--schedule": SCHEDULE}),
                 (["corona", "dimcover", "--depth", "4"], {"--schedule": {"kind": "point"}})],
    "decomposition": [(["support", "verify"], {"--decomposition": DECOMPOSITION,
                                               "--op": OPERATOR})],
    "operator": [(["support", "verify"], {"--op": OPERATOR,
                                          "--decomposition": DECOMPOSITION}),
                 (["support", "verify"], {"--op2": OPERATOR, "--decomposition": DECOMPOSITION,
                                          "--op": OPERATOR})],
}

# quarters, so that no step or radius is fine enough to ask for a large
# sample; the integers past int64 and past the float range are never sizes
# that pass a cap
small_numbers = st.one_of(st.integers(-3, 8), st.integers(-12, 32).map(lambda k: k / 4),
                          st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                           2 ** 63, 10 ** 400]))
scalars = st.one_of(st.none(), st.booleans(), small_numbers, st.text(max_size=3))
junk = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)


def _paths(doc, prefix=()):
    """Every location in doc: the document itself and each key and index."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _damaged(doc, data):
    """doc with one value replaced by junk or one key dropped."""
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(junk)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(junk)
    return doc


@pytest.mark.parametrize("kind", sorted(COMMANDS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_document_gives_one_report(kind, data):
    argv, docs = data.draw(st.sampled_from(COMMANDS[kind]))
    target = next(iter(docs))
    raw = data.draw(st.binary(max_size=12)) if data.draw(st.integers(0, 5)) == 0 else None
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for flag, doc in docs.items():
            path = os.path.join(tmp, flag.strip("-") + ".json")
            if flag != target:
                text = json.dumps(doc).encode()
            elif raw is not None:
                text = raw
            else:
                text = json.dumps(_damaged(doc, data)).encode()
            with open(path, "wb") as fh:
                fh.write(text)
            argv += [flag, path]
        code, report = run(argv)
        line = render(report, "json")
    assert line.endswith("\n") and line.count("\n") == 1
    assert json.loads(line)["command"] == argv
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_CONTRACT, EXIT_USAGE)
