import json
import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from coarselab import cli, jsonio
from coarselab.cli import EXIT_CONTRACT, EXIT_INVALID, EXIT_OK, EXIT_USAGE, render, run
from coarselab.errors import InvalidInputError
from coarselab.jsonio import write_json
import oracles


def grid_space_doc(dim=2, lo=0.0, hi=20.0, step=0.5):
    return {"kind": "grid", "dim": dim, "min": [lo] * dim, "max": [hi] * dim,
            "step": step}


@pytest.fixture
def tmp_json(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        write_json(str(path), doc)
        return str(path)
    return write


class TestCoverStats:
    def test_singleton_partition(self, tmp_json):
        space = tmp_json("s.json", {"kind": "grid", "dim": 1, "min": [0],
                                    "max": [9], "step": 1.0})
        cover = tmp_json("c.json", {"sets": [[i] for i in range(10)]})
        code, report = run(["cover", "stats", "--space", space, "--cover", cover])
        assert code == EXIT_OK
        assert report["result"]["multiplicity"] == 1

    def test_appetite_field(self, tmp_json):
        space = tmp_json("s.json", {"kind": "grid", "dim": 1, "min": [0],
                                    "max": [9], "step": 1.0})
        cover = tmp_json("c.json", {"sets": [[i] for i in range(10)]})
        ent = tmp_json("e.json", {"kind": "radius", "r": 1.5})
        code, report = run(["cover", "stats", "--space", space, "--cover", cover,
                            "--entourage", ent])
        assert code == EXIT_OK
        assert report["result"]["appetite"] is False

    def test_missing_file_is_invalid_input(self, tmp_json):
        space = tmp_json("s.json", grid_space_doc())
        code, report = run(["cover", "stats", "--space", space,
                            "--cover", "/nonexistent/c.json"])
        assert code == EXIT_INVALID

    def test_unknown_flag_is_usage_error(self):
        code, report = run(["cover", "stats", "--bogus", "x"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_matrix_mesh_and_lebesgue_at_extreme_scales(self, tmp_json, s):
        # squaring these distances before the reduction overflowed to inf at
        # 1e200 and underflowed to 0 at 1e-200
        space = tmp_json("s.json", {"kind": "matrix",
                                    "dist": [[0, s, 2 * s], [s, 0, s], [2 * s, s, 0]]})
        cover = tmp_json("c.json", {"sets": [[0, 1], [1, 2]]})
        code, report = run(["cover", "stats", "--space", space, "--cover", cover])
        assert code == EXIT_OK
        assert report["result"]["mesh"] == s and report["result"]["lebesgue"] == s


class TestWitnessCommands:
    def test_cube_then_stats_end_to_end(self, tmp_json, tmp_path):
        out = str(tmp_path / "cover.json")
        code, report = run(["--out", out, "witness", "cube", "--n", "2",
                            "--a", "6", "--max", "20", "--step", "0.5"])
        assert code == EXIT_OK
        leb = [g for g in report["guarantees"] if g["id"] == "cube_cover.lebesgue"]
        assert leb and leb[0]["measured"] >= 1.0 - 1e-9
        space = tmp_json("s.json", grid_space_doc())
        code2, report2 = run(["cover", "stats", "--space", space, "--cover", out])
        assert code2 == EXIT_OK
        assert report2["result"]["multiplicity"] == 3
        assert report2["result"]["lebesgue"] >= 1.0 - 1e-9

    def test_tree_witness(self, tmp_json):
        space = tmp_json("t.json", {"kind": "tree",
                                    "edges": [[i, i + 1] for i in range(19)]})
        code, report = run(["witness", "tree", "--space", space, "--L", "2"])
        assert code == EXIT_OK

    def test_sperner(self, tmp_json):
        grid = tmp_json("g.json", {
            "corners": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "resolution": 4})
        code, report = run(["witness", "sperner", "--grid", grid])
        assert code == EXIT_OK
        assert report["result"]["odd"] is True

    def test_sperner_with_a_labeling(self, tmp_json):
        from coarselab.witnesses import SimplexGrid, nearest_corner_labeling
        corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        labels = nearest_corner_labeling(SimplexGrid(corners, 3))
        grid = tmp_json("g.json", {"corners": corners, "resolution": 3,
                                   "labeling": [labels[v] for v in range(len(labels))]})
        code, report = run(["witness", "sperner", "--grid", grid])
        assert code == EXIT_OK and report["result"]["odd"] is True

    def test_lowerbound(self, tmp_json):
        import numpy as np
        from coarselab.witnesses import pn_sample
        space_obj = pn_sample(1, 24.0, 0.5)
        coords = space_obj.meta["coords"][:, 0]
        sets, lo = [], 0.0
        while lo <= coords.max():
            mask = (coords >= lo - 1.5 - 1e-9) & (coords <= lo + 4.0 + 1e-9)
            sets.append([int(i) for i in np.nonzero(mask)[0]])
            lo += 4.0
        space = tmp_json("p.json", {"kind": "cloud",
                                    "points": space_obj.meta["coords"].tolist()})
        cover = tmp_json("c.json", {"sets": sets})
        code, report = run(["witness", "lowerbound", "--space", space,
                            "--cover", cover, "--n", "1"])
        assert code == EXIT_OK
        assert len(report["result"]["certificate"]["sets"]) == 2

    def test_star(self, tmp_json):
        s3 = math.sqrt(3) / 2
        comp = tmp_json("k.json", {
            "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]],
            "maximal": [[0, 1, 2], [0, 1, 3]]})
        code, report = run(["witness", "star", "--complex", comp,
                            "--stability", "2"])
        assert code == EXIT_OK

    def test_bad_stability_exits_2(self, tmp_json):
        s3 = math.sqrt(3) / 2
        comp = tmp_json("k.json", {
            "coordinates": [[0.0, 0.0], [1.0, 0.0], [0.5, s3], [0.5, -s3]],
            "maximal": [[0, 1, 2], [0, 1, 3]]})
        code, report = run(["witness", "star", "--complex", comp,
                            "--stability", "1"])
        assert code == EXIT_CONTRACT
        assert report["error"]["kind"] == "contract-violation"


class TestTransformCommands:
    def test_colorize_pipeline_matches_direct(self, tmp_json, tmp_path):
        space = tmp_json("s.json", {"kind": "grid", "dim": 1, "min": [0],
                                    "max": [40], "step": 1.0})
        cover = tmp_json("c.json",
                         {"sets": [list(range(0, 25)), list(range(15, 41))]})
        ent = tmp_json("e.json", {"kind": "radius", "r": 1.0, "closed": True})
        out = str(tmp_path / "colored.json")
        code, report = run(["--out", out, "transform", "colorize", "--space", space,
                            "--cover", cover, "--entourage", ent, "--n", "1"])
        assert code == EXIT_OK
        doc = json.loads(open(out).read())
        assert len(doc["families"]) == 2

    @pytest.mark.parametrize("op, covers, message", [
        ("expand", [{"sets": [[0, 1], [2, 3]]}], "expand needs a cover with families"),
        ("expand", [{"sets": [[0, 1], [1, 2, 3]], "families": [[0, 1]]}],
         "family sets must be disjoint"),
        ("union", [{"sets": [[0, 1]], "families": [[0]]}, {"sets": [[2, 3]]}],
         "union needs covers with families"),
        ("union", [{"sets": [[0, 1]], "families": [[0]]},
                   {"sets": [[1, 2], [2, 3]], "families": [[0, 1]]}],
         "family sets must be disjoint"),
    ])
    def test_expand_and_union_reject_covers_without_disjoint_families(self, tmp_json, op,
                                                                      covers, message):
        argv = ["transform", op, "--space", tmp_json("s.json", LINE4),
                "--cover", tmp_json("c.json", covers[0])]
        if op == "union":
            argv += ["--cover2", tmp_json("d.json", covers[1])]
        ent = tmp_json("e.json", {"kind": "radius", "r": 1.0, "closed": True})
        code, report = run(argv + ["--entourage", ent])
        assert code == EXIT_INVALID and message in report["error"]["message"]


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_json):
        space = tmp_json("s.json", grid_space_doc())
        cover_doc = {"sets": [list(range(0, 900)), list(range(800, 1681))]}
        cover = tmp_json("c.json", cover_doc)
        argv = ["cover", "stats", "--space", space, "--cover", cover]
        out1 = render(run(argv)[1], "json")
        out2 = render(run(argv)[1], "json")
        assert out1 == out2

    def test_shared_parser_survives_usage_errors(self, tmp_json):
        assert cli._parser() is cli._parser()
        space = tmp_json("s.json", {"kind": "grid", "dim": 1, "min": [0],
                                    "max": [9], "step": 1.0})
        cover = tmp_json("c.json", {"sets": [[i] for i in range(10)]})
        argv = ["cover", "stats", "--space", space, "--cover", cover]
        first = run(argv)
        for bad in (["cover", "stats", "--bogus", "x"], ["cover", "stats", "--space", space],
                    ["witness", "cube", "--n", "two"], []):
            assert run(bad)[0] == EXIT_USAGE
            assert run(argv) == first
        assert first[0] == EXIT_OK and first[1]["result"]["multiplicity"] == 1

    def test_pipeline_seeded_determinism(self):
        argv = ["pipeline", "support-suite", "--seed", "7", "--trials", "5"]
        a = render(run(argv)[1], "json")
        b = render(run(argv)[1], "json")
        assert a == b

    def test_exit_code_matches_guarantees(self):
        code, report = run(["pipeline", "support-suite", "--seed", "0",
                            "--trials", "3"])
        assert code == EXIT_OK
        assert all(g["pass"] for g in report["guarantees"])


class TestPipelines:
    def test_asdim_upper(self):
        code, report = run(["pipeline", "asdim-upper", "--seed", "0"])
        assert code == EXIT_OK
        assert report["result"]["appetite"] is True

    def test_asdim_lower(self):
        code, report = run(["pipeline", "asdim-lower", "--seed", "0"])
        assert code == EXIT_OK
        assert len(report["result"]["certificate"]["sets"]) == 3
        assert report["result"]["odd_count"] is True

    def test_corona_full_small_depth(self):
        code, report = run(["pipeline", "corona-full", "--seed", "0",
                            "--depth", "60"])
        assert code == EXIT_OK

    def test_summary_format(self):
        code, report = run(["pipeline", "asdim-lower", "--seed", "0"])
        text = render(report, "summary")
        assert "lower_bound.certificate" in text


LINE4 = {"kind": "grid", "dim": 1, "min": [0], "max": [3], "step": 1.0}


class TestMalformedDocuments:
    """Every malformed document gives one JSON report, kind invalid-input,
    exit code 1."""

    def one_report(self, argv, capsys):
        code = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert code == EXIT_INVALID and report["error"]["kind"] == "invalid-input"
        return report

    def test_fractional_set_entry(self, tmp_json, capsys):
        cover = tmp_json("c.json", {"sets": [[0.7, 1], [1, 2, 3]]})
        report = self.one_report(["cover", "stats", "--space", tmp_json("s.json", LINE4),
                                  "--cover", cover], capsys)
        assert "0.7" in report["error"]["message"]

    def test_string_set_entry(self, tmp_json, capsys):
        cover = tmp_json("c.json", {"sets": [["a"], [0, 1, 2, 3]]})
        self.one_report(["cover", "stats", "--space", tmp_json("s.json", LINE4),
                         "--cover", cover], capsys)

    def test_sets_not_a_list(self, tmp_json, capsys):
        cover = tmp_json("c.json", {"sets": 5})
        self.one_report(["cover", "stats", "--space", tmp_json("s.json", LINE4),
                         "--cover", cover], capsys)

    @pytest.mark.parametrize("doc", [None, 5, True, "sets"])
    def test_cover_not_an_object(self, tmp_json, capsys, doc):
        cover = tmp_json("c.json", doc)
        report = self.one_report(["cover", "stats", "--space", tmp_json("s.json", LINE4),
                                  "--cover", cover], capsys)
        assert "cover document must be a JSON object" in report["error"]["message"]

    def test_hyperbolic_space_without_points(self, tmp_json, capsys):
        space = tmp_json("s.json", {"kind": "hyperbolic_polar", "kappa": -1, "points": []})
        report = self.one_report(["space", "info", "--space", space], capsys)
        assert "at least one point" in report["error"]["message"]

    @pytest.mark.parametrize("text,field", [
        ('{"kind": "cloud", "points": [[NaN, 0], [1, 1]]}', "points"),
        ('{"kind": "matrix", "dist": [[0, Infinity], [Infinity, 0]]}', "dist"),
        ('{"kind": "matrix", "dist": [[0, -Infinity], [-Infinity, 0]]}', "dist"),
    ], ids=["cloud-nan", "matrix-infinity", "matrix-minus-infinity"])
    def test_non_finite_number_arrays(self, tmp_path, capsys, text, field):
        # Python's JSON reader takes NaN and Infinity; a space built on them
        # reported a NaN or infinite diameter
        path = tmp_path / "s.json"
        path.write_text(text, encoding="utf-8")
        report = self.one_report(["space", "info", "--space", str(path)], capsys)
        assert report["error"]["message"] == f"{field} must be an array of finite numbers"

    def test_matrix_space_without_distances(self, tmp_json, capsys):
        self.one_report(["space", "info", "--space", tmp_json("s.json", {"kind": "matrix"})],
                        capsys)

    def test_truncated_json_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"sets": [[0, 1], [2', encoding="utf-8")
        self.one_report(["space", "info", "--space", str(path)], capsys)

    @pytest.mark.parametrize("doc", [{"kind": "radius"}, {"kind": "radius", "r": "1"},
                                     {"kind": "pairs", "pairs": [[0]]}, [1, 2]])
    def test_malformed_entourage(self, tmp_json, capsys, doc):
        cover = tmp_json("c.json", {"sets": [[0, 1], [1, 2, 3]]})
        self.one_report(["cover", "stats", "--space", tmp_json("s.json", LINE4),
                         "--cover", cover, "--entourage", tmp_json("e.json", doc)], capsys)

    def test_integer_entries_pass_and_others_fail(self):
        from coarselab.jsonio import load_cover, load_space
        space = load_space(LINE4)
        cover = load_cover({"sets": [[0, 1.0], [1, 2, 3]]}, space)
        assert cover.sets == ((0, 1), (1, 2, 3))
        for bad in ([[True, 1], [1, 2, 3]], [[0, 1], [1, 2, 3.5]], [[0, None], [1, 2, 3]]):
            with pytest.raises(InvalidInputError):
                load_cover({"sets": bad}, space)
        with pytest.raises(InvalidInputError):
            load_cover({"sets": [[0, 1], [2, 3]], "families": [[0], ["1"]]}, space)

    @pytest.mark.parametrize("argv", [
        ["corona", "equiv", "--model", ("m.json", {})],
        ["corona", "equiv", "--model", ("m.json", {"space": LINE4, "interior": "ab",
                                                   "corona": [3]})],
        ["corona", "dimcover", "--schedule", ("s.json", [1, 2]), "--depth", "10"],
        ["corona", "dimcover", "--schedule", ("s.json", {"kind": "circle_arcs", "points": "x"}),
         "--depth", "10"],
        ["corona", "dimcover", "--schedule", ("s.json", {"kind": "circle_arcs", "overlap": "a"}),
         "--depth", "10"],
        ["corona", "dimcover", "--schedule", ("s.json", {"kind": "point", "delta": [4.0]}),
         "--depth", "10"],
        ["corona", "dimcover", "--schedule", ("s.json", {"kind": "point"}), "--depth", "-3"],
        ["support", "verify", "--decomposition", ("d.json", {}), "--op", ("o.json", {"re": [[1]]})],
        ["support", "verify", "--decomposition", ("d.json", {"blocks": [[0]], "dims": [1]}),
         "--op", ("o.json", {})],
        ["support", "verify", "--decomposition", ("d.json", {"blocks": [[0]], "dims": [1]}),
         "--op", ("o.json", {"re": [[1]], "im": [1, 2]})],
        ["support", "verify", "--decomposition", ("d.json", {"blocks": [[0]], "dims": [1]}),
         "--op", ("o.json", {"re": [[1]]}), "--vector", ("v.json", ["a"])],
        ["witness", "star", "--complex", ("c.json", {}), "--stability", "1"],
        ["witness", "star", "--complex", ("c.json", {"coordinates": [[0, 0], [1, 0]],
                                                     "maximal": [[-1, 0]]}), "--stability", "1"],
    ], ids=["model-empty", "model-interior-string", "schedule-list", "schedule-points-string",
            "schedule-overlap-string", "schedule-delta-list", "negative-depth",
            "decomposition-empty", "operator-empty", "operator-im-shape", "vector-string",
            "complex-empty", "complex-negative-vertex"])
    def test_corona_support_and_complex_documents(self, tmp_json, capsys, argv):
        self.one_report([tmp_json(*a) if isinstance(a, tuple) else a for a in argv], capsys)

    def test_tree_root_out_of_range(self, tmp_json, capsys):
        space = tmp_json("t.json", {"kind": "tree", "edges": [[0, 1], [1, 2]]})
        report = self.one_report(["witness", "tree", "--space", space, "--L", "1",
                                  "--root", "7"], capsys)
        assert "root 7" in report["error"]["message"]

    def test_negative_tree_vertex(self, tmp_json, capsys):
        # -1 once aliased the last vertex through negative indexing
        space = tmp_json("t.json", {"kind": "tree", "edges": [[-1, 1], [0, 2]]})
        report = self.one_report(["witness", "tree", "--space", space, "--L", "1"], capsys)
        assert "non-negative" in report["error"]["message"]

    SIMPLEX = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("doc", [
        {}, [], {"corners": SIMPLEX}, {"corners": SIMPLEX, "resolution": 2.5},
        {"corners": SIMPLEX, "resolution": "4"}, {"corners": [1.0, 2.0], "resolution": 2},
        {"corners": SIMPLEX, "resolution": 1, "labeling": [0, "1", 2]},
        {"corners": SIMPLEX, "resolution": 1, "labeling": "012"}],
        ids=["empty", "list", "no-resolution", "fractional-resolution", "string-resolution",
             "flat-corners", "string-label", "string-labeling"])
    def test_malformed_simplex_grid(self, tmp_json, capsys, doc):
        self.one_report(["witness", "sperner", "--grid", tmp_json("g.json", doc)], capsys)

    def test_grid_over_the_point_cap(self, tmp_json, capsys):
        space = tmp_json("s.json", grid_space_doc(dim=3, lo=0.0, hi=9999.0, step=1.0))
        code = cli.main(["space", "info", "--space", space])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and code == EXIT_INVALID
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "resource-limit"
        assert str(10 ** 12) in error["message"]


    def resource_limit(self, argv, capsys):
        """One JSON report, kind resource-limit, exit code 1, with a
        tracemalloc peak under 1 MB."""
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and code == EXIT_INVALID
        error = json.loads(lines[0])["error"]
        assert error["kind"] == "resource-limit"
        assert peak < 2 ** 20
        return error["message"]

    @pytest.mark.parametrize("points", [0, -5])
    def test_circle_schedule_without_points(self, tmp_json, capsys, points):
        schedule = tmp_json("s.json", {"kind": "circle_arcs", "points": points})
        report = self.one_report(["corona", "dimcover", "--schedule", schedule,
                                  "--depth", "10"], capsys)
        assert f"schedule points must be at least 1, got {points}" in report["error"]["message"]

    def test_circle_schedule_over_the_point_cap(self, tmp_json, capsys):
        schedule = tmp_json("s.json", {"kind": "circle_arcs", "points": 10 ** 9})
        message = self.resource_limit(["corona", "dimcover", "--schedule", schedule,
                                       "--depth", "10"], capsys)
        assert str(10 ** 9) in message and str(10 ** 7) in message

    def test_circle_schedule_overlap_beyond_the_arc_cap(self, tmp_json, capsys):
        # the arc count never falls below 1/k: stepping it by 2 never ended
        schedule = tmp_json("s.json", {"kind": "circle_arcs", "points": 40, "overlap": 1e300})
        message = self.resource_limit(["corona", "dimcover", "--schedule", schedule,
                                       "--depth", "10"], capsys)
        assert "more than 10000000 arcs" in message

    def test_simplex_grid_over_the_point_cap(self, tmp_json, capsys):
        # C(10^6 + 2, 2) = 500001500001 vertices; the old walk looped over
        # 10^12 lattice tuples
        grid = tmp_json("g.json", {"corners": self.SIMPLEX, "resolution": 10 ** 6})
        message = self.resource_limit(["witness", "sperner", "--grid", grid], capsys)
        assert "500001500001 vertices" in message and str(10 ** 7) in message

    def test_product_space_over_the_point_cap(self, tmp_json, capsys):
        # 3163 x 3163 = 10004569 product points; each factor is small
        line = tmp_json("l.json", {"kind": "grid", "dim": 1, "min": [0], "max": [3162],
                                   "step": 1.0})
        cover = tmp_json("c.json", {"sets": [list(range(3163))]})
        none = tmp_json("e.json", {"kind": "pairs", "pairs": []})
        message = self.resource_limit(["transform", "product", "--space", line, "--space2", line,
                                       "--cover", cover, "--cover2", cover, "--ex", none,
                                       "--ey", none, "--n", "0", "--m", "0"], capsys)
        assert "10004569 points" in message and str(10 ** 7) in message

    def test_product_relation_over_the_pair_cap(self, tmp_json, capsys):
        # 10^4 x 3001 product pairs over 100 x 1001 points
        spaces, covers = [], []
        for name, top in (("a", 99), ("b", 1000)):
            spaces.append(tmp_json(f"{name}.json", {"kind": "grid", "dim": 1, "min": [0],
                                                    "max": [top], "step": 1.0}))
            covers.append(tmp_json(f"c{name}.json", {"sets": [list(range(top + 1))]}))
        message = self.resource_limit([
            "transform", "product", "--space", spaces[0], "--space2", spaces[1],
            "--cover", covers[0], "--cover2", covers[1],
            "--ex", tmp_json("ex.json", {"kind": "radius", "r": 200}),
            "--ey", tmp_json("ey.json", {"kind": "radius", "r": 1.5}),
            "--n", "0", "--m", "0"], capsys)
        assert "10000 x 3001 = 30010000 pairs" in message and str(10 ** 7) in message


EDGE_INTS = [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 2 ** 64, -2 ** 70]
ODD_ENTRIES = st.one_of(
    st.sampled_from(EDGE_INTS), st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0.0, -0.0, 3.0, 2.0 ** 62, 2.0 ** 63, -2.0 ** 63, 0.5, 1e300,
                     math.inf, math.nan]),
    st.booleans(), st.text(max_size=2), st.none(), st.just([1]))


@st.composite
def index_documents(draw):
    """Index lists of small ints, mostly, with now and then an entry at an
    int64 edge, an integral or fractional float, a bool, a string, None or
    a list, and now and then a row or document that is not a list."""
    entry = st.integers(-3, 40) | ODD_ENTRIES if draw(st.booleans()) else st.integers(-3, 40)
    row = st.lists(entry, max_size=6)
    rows = st.lists(row | st.tuples(entry, entry) | st.sampled_from([5, "ab", None])
                    if draw(st.integers(0, 4)) == 0 else row, max_size=6)
    return draw(rows | st.sampled_from([5, None, "sets", {"a": 1}])
                if draw(st.integers(0, 9)) == 0 else rows)


def loaded(load, value):
    """The loader's result with the type of every entry, or its message."""
    try:
        out = load(value, "cover sets")
    except InvalidInputError as err:
        return "error", str(err)
    flat = [x for row in out for x in row] if out and isinstance(out[0], list) else out
    return "ok", out, [type(x) for x in flat]


class TestIndexLoaderOracle:
    """The bulk index loaders against the entry-by-entry loops: the same
    lists of ints, or the same error message."""

    @given(doc=index_documents())
    @settings(max_examples=400, deadline=None)
    def test_index_lists_match_the_entry_loop(self, doc):
        assert loaded(jsonio._index_lists, doc) == loaded(oracles.index_lists_loop, doc)

    @given(doc=index_documents())
    @settings(max_examples=200, deadline=None)
    def test_indices_match_the_entry_loop(self, doc):
        flat = doc[0] if isinstance(doc, list) and doc else doc
        assert loaded(jsonio._indices, flat) == loaded(oracles.indices_loop, flat)

    @pytest.mark.parametrize("entry", EDGE_INTS + [2.0 ** 63, -2.0 ** 63, True, None, "1", 1.5])
    def test_int64_edges_and_odd_entries(self, entry):
        for doc in ([[0, 1], [2, entry]], [[entry]]):
            assert loaded(jsonio._index_lists, doc) == loaded(oracles.index_lists_loop, doc)
            assert loaded(jsonio._indices, doc[-1]) == loaded(oracles.indices_loop, doc[-1])


class TestInputDigests:
    """A file that parses is listed in the report's inputs, whether or not
    its loader then accepts it; a file that does not parse is not."""

    @pytest.mark.parametrize("argv, rejected", [
        (["space", "info", "--space", ("s", {"kind": "matrix"})], "s"),
        (["cover", "stats", "--space", ("s", LINE4), "--cover", ("c", {"sets": 5})], "c"),
        (["transform", "colorize", "--space", ("s", {"kind": "matrix"}),
          "--cover", ("c", {"sets": [[0]]}), "--entourage", ("e", {"kind": "radius", "r": 1}),
          "--n", "1"], "s"),
        (["transform", "expand", "--space", ("s", LINE4), "--cover", ("c", {"sets": 5}),
          "--entourage", ("e", {"kind": "radius", "r": 1})], "c"),
        (["transform", "union", "--space", ("s", LINE4), "--cover", ("c", {"sets": [[0]]}),
          "--cover2", ("d", {"sets": [[1]]}), "--entourage", ("e", {"kind": "radius"})], "e"),
        (["witness", "tree", "--space", ("s", {"kind": "tree", "edges": [[-1, 1], [0, 2]]}),
          "--L", "1"], "s"),
        (["witness", "ray", "--space", ("s", LINE4), "--entourage", ("e", {"kind": "radius"}),
          "--n", "1"], "e"),
        (["witness", "lowerbound", "--space", ("s", LINE4), "--cover", ("c", {"sets": 5}),
          "--n", "1"], "c"),
    ], ids=["space-info", "cover-stats", "colorize", "expand", "union", "tree", "ray",
            "lowerbound"])
    def test_rejected_file_is_listed(self, tmp_json, tmp_path, argv, rejected):
        paths = {a[0]: tmp_json(a[0] + ".json", a[1]) for a in argv if isinstance(a, tuple)}
        argv = [paths[a[0]] if isinstance(a, tuple) else a for a in argv]
        files = [a for a in argv if a in paths.values()]
        code, report = run(argv)
        assert code == EXIT_INVALID
        # the files read, in argv order, up to and including the rejected one
        assert sorted(report["inputs"]) == sorted(files[:files.index(paths[rejected]) + 1])
        (tmp_path / (rejected + ".json")).write_text("{", encoding="utf-8")
        code, report = run(argv)
        assert code == EXIT_INVALID and paths[rejected] not in report["inputs"]


class TestHyperbolicWitness:
    ARGV = ["witness", "hyperbolic", "--kappa", "-1", "--lam", "0.2", "--mesh-bound", "1",
            "--L", "5", "--disk-radius", "8"]

    def test_parameters_are_those_of_the_atlas_colors(self):
        from coarselab.hyperbolic import ARC_COLORS, SphereAtlas, hyperbolic_params
        code, report = run(self.ARGV)
        assert code == EXIT_OK
        rho, N = hyperbolic_params(-1, 0.2, 1, 5, ARC_COLORS)
        assert (report["result"]["rho"], report["result"]["N"]) == (rho, N)
        assert SphereAtlas(-1, rho, 0.2, 1).n_colors == ARC_COLORS

    def test_color_count_is_not_an_option(self):
        code, report = run(self.ARGV + ["--n", "3"])
        assert code == EXIT_USAGE and report["error"]["kind"] == "usage"


class TestRayWitness:
    def test_ray_needs_no_bound(self, tmp_json):
        space = tmp_json("l.json", {"kind": "grid", "dim": 1, "min": [0], "max": [20],
                                    "step": 1.0})
        ent = tmp_json("e.json", {"kind": "pairs", "pairs": [[0, 2], [5, 8]]})
        code, report = run(["witness", "ray", "--space", space, "--entourage", ent,
                            "--n", "1"])
        assert code == EXIT_OK and report["result"]["families"] == 2
        code, _ = run(["witness", "ray", "--space", space, "--entourage", ent, "--n", "1",
                       "--bound", "30"])
        assert code == EXIT_USAGE
