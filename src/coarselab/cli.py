"""Command-line front end: fixture loading, operation dispatch, certificate
emission, and cross-module verification pipelines.

Every invocation prints a single JSON report (sorted keys, compact
separators) that is byte-stable for identical inputs and seed; wall time is
only attached under --timing since it would break byte stability. Exit
status: 0 when every verified guarantee passes, 1 on invalid input or a
resource cap, 2 on a contract violation, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Optional

import numpy as np

from . import fixtures
from .certificates import at_most, claim, count_at_most
from .corona import check_band_points, check_cc_entourage, corona_dim_cover, roundtrip_bounds
from .covers import Cover, stats
from .errors import (ContractViolationError, InternalCheckError,
                     InvalidInputError, ResourceLimitError)
from .hyperbolic import (ARC_COLORS, SphereAtlas, check_contraction,
                         check_radial_lipschitz, hyperbolic_params, lipschitz_gap_bound,
                         sample_disk, sphere_cover_lift)
from .jsonio import (dump_cover, load_complex, load_cover, load_decomposition,
                     load_entourage, load_model, load_operator, load_schedule, load_space,
                     load_simplex_grid, load_vector, read_json, write_json)
from .prng import SplitMix64
from .spaces import Entourage, Space
from .support import BlockOperator, Decomposition, check_calculus
from .transforms import (colorize, expand, make_product_entourage, merge_union,
                         product_refine)
from .witnesses import (cube_cover, pn_sample, ray_cell_cover, simplex_lower_bound_check,
                        sperner_find, star_cover, tree_cover)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CONTRACT = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def _space_arg(parser, name="--space"):
    parser.add_argument(name, required=True, help="space JSON file")


def build_parser() -> Parser:
    p = Parser(prog="coarselab", description=__doc__)
    p.add_argument("--format", choices=["json", "summary"], default="json")
    p.add_argument("--out", help="write the produced artifact to this file")
    p.add_argument("--timing", action="store_true",
                   help="attach wall time (breaks byte stability)")
    sub = p.add_subparsers(dest="group", required=True)

    sp = sub.add_parser("space").add_subparsers(dest="op", required=True)
    q = sp.add_parser("info")
    _space_arg(q)

    cv = sub.add_parser("cover").add_subparsers(dest="op", required=True)
    q = cv.add_parser("stats")
    _space_arg(q)
    q.add_argument("--cover", required=True)
    q.add_argument("--entourage")

    tr = sub.add_parser("transform").add_subparsers(dest="op", required=True)
    q = tr.add_parser("colorize")
    _space_arg(q)
    q.add_argument("--cover", required=True)
    q.add_argument("--entourage", required=True)
    q.add_argument("--n", type=int, required=True)
    q = tr.add_parser("expand")
    _space_arg(q)
    q.add_argument("--cover", required=True)
    q.add_argument("--entourage", required=True)
    q = tr.add_parser("union")
    _space_arg(q)
    q.add_argument("--cover", required=True)
    q.add_argument("--cover2", required=True)
    q.add_argument("--entourage", required=True)
    q = tr.add_parser("product")
    _space_arg(q)
    q.add_argument("--space2", required=True)
    q.add_argument("--cover", required=True)
    q.add_argument("--cover2", required=True)
    q.add_argument("--ex", required=True, help="factor entourage on the first space")
    q.add_argument("--ey", required=True, help="factor entourage on the second space")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)

    wt = sub.add_parser("witness").add_subparsers(dest="op", required=True)
    q = wt.add_parser("cube")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--min", type=float, default=0.0)
    q.add_argument("--max", type=float, required=True)
    q.add_argument("--step", type=float, required=True)
    q = wt.add_parser("tree")
    _space_arg(q)
    q.add_argument("--L", type=float, required=True)
    q.add_argument("--root", type=int, default=0)
    q = wt.add_parser("ray")
    _space_arg(q)
    q.add_argument("--entourage", required=True)
    q.add_argument("--n", type=int, required=True)
    q = wt.add_parser("hyperbolic")
    q.add_argument("--kappa", type=float, required=True)
    q.add_argument("--lam", type=float, required=True)
    q.add_argument("--mesh-bound", type=float, required=True)
    q.add_argument("--L", type=float, required=True)
    q.add_argument("--disk-radius", type=float, required=True)
    q.add_argument("--radial-step", type=float, default=1.0)
    q.add_argument("--angles", type=int, default=48)
    q = wt.add_parser("star")
    q.add_argument("--complex", dest="complex_", required=True)
    q.add_argument("--stability", type=int, required=True)
    q.add_argument("--resolution", type=int, default=12)
    q = wt.add_parser("sperner")
    q.add_argument("--grid", required=True)
    q = wt.add_parser("lowerbound")
    _space_arg(q)
    q.add_argument("--cover", required=True)
    q.add_argument("--n", type=int, required=True)

    su = sub.add_parser("support").add_subparsers(dest="op", required=True)
    q = su.add_parser("verify")
    q.add_argument("--decomposition", required=True)
    q.add_argument("--op", dest="op_t", required=True)
    q.add_argument("--op2", dest="op_s")
    q.add_argument("--vector")

    co = sub.add_parser("corona").add_subparsers(dest="op", required=True)
    q = co.add_parser("equiv")
    q.add_argument("--model", required=True)
    q = co.add_parser("check")
    q.add_argument("--model", required=True)
    q.add_argument("--entourage", required=True)
    q.add_argument("--schedule-constant", type=float)
    q.add_argument("--schedule-power", type=float, default=1.0)
    q = co.add_parser("dimcover")
    q.add_argument("--schedule", required=True)
    q.add_argument("--depth", type=int, required=True)

    pl = sub.add_parser("pipeline")
    pl.add_argument("name", choices=["asdim-upper", "asdim-lower", "hyperbolic-full",
                                     "corona-full", "support-suite"])
    pl.add_argument("--seed", type=int, required=True)
    pl.add_argument("--depth", type=int, default=120)
    pl.add_argument("--trials", type=int, default=100)
    return p


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _load(path: str, inputs: dict):
    """The JSON document at path, its digest recorded in inputs once it
    parses."""
    doc = read_json(path)
    inputs[path] = _digest(path)
    return doc


def _lower_bound_guarantee(cert: dict, n: int) -> dict:
    found = len(cert["all_containing_sets"])
    return claim("lower_bound.certificate", n + 1, found, found >= n + 1)


def _handle(args, inputs: dict):
    """Returns (result, guarantees, artifact)."""
    if args.group == "space":
        space = load_space(_load(args.space, inputs))
        info = {"kind": space.kind, "points": space.n}
        if space.is_metric_backed() and space.n <= 2000:
            info["diameter"] = space.diameter()
        return info, [], None

    if args.group == "cover":
        space = load_space(_load(args.space, inputs))
        cover = load_cover(_load(args.cover, inputs), space)
        ent = None
        if args.entourage:
            ent = load_entourage(_load(args.entourage, inputs), space)
        return stats(cover, ent), [], None

    if args.group == "transform":
        space = load_space(_load(args.space, inputs))
        cover = load_cover(_load(args.cover, inputs), space,
                           require_covering=args.op not in ("union",))
        if args.op == "colorize":
            ent = load_entourage(_load(args.entourage, inputs), space)
            out, cert = colorize(cover, ent, args.n)
            return {"families": len(out.families)}, cert, dump_cover(out)
        if args.op == "expand":
            ent = load_entourage(_load(args.entourage, inputs), space)
            out, cert = expand(cover, ent)
            return {"sets": out.incidence().shape[0]}, cert, dump_cover(out)
        if args.op == "union":
            other = load_cover(_load(args.cover2, inputs), space, require_covering=False)
            ent = load_entourage(_load(args.entourage, inputs), space)
            out, cert = merge_union(cover, other, ent)
            return {"sets": out.incidence().shape[0]}, cert, dump_cover(out)
        if args.op == "product":
            space2 = load_space(_load(args.space2, inputs))
            cover2 = load_cover(_load(args.cover2, inputs), space2)
            ex = load_entourage(_load(args.ex, inputs), space).materialize()
            ey = load_entourage(_load(args.ey, inputs), space2).materialize()
            prod = Space.product(space, space2)
            e = make_product_entourage(prod, ex, ey)
            out, cert = product_refine(cover, cover2, e, args.n, args.m)
            return {"families": len(out.families)}, cert, dump_cover(out)

    if args.group == "witness":
        return _handle_witness(args, inputs)

    if args.group == "support":
        dec = load_decomposition(_load(args.decomposition, inputs))
        t_op = load_operator(_load(args.op_t, inputs), dec)
        s_op = t_op
        if args.op_s:
            s_op = load_operator(_load(args.op_s, inputs), dec)
        if args.vector:
            u = load_vector(_load(args.vector, inputs))
        else:
            u = np.zeros(dec.total, dtype=complex)
            if dec.total:
                u[0] = 1.0
        report = check_calculus(s_op, t_op, u)
        cert = report.pop("checks")
        return report, cert, None

    if args.group == "corona":
        return _handle_corona(args, inputs)

    raise UsageError(f"unknown group {args.group}")


def _handle_witness(args, inputs: dict):
    if args.op == "cube":
        space = Space.grid(args.n, [args.min] * args.n, [args.max] * args.n,
                           args.step)
        out, cert = cube_cover(space, args.n, args.a)
        result = {"sets": out.incidence().shape[0], "families": len(out.families)}
        return result, cert, dump_cover(out)
    if args.op == "tree":
        space = load_space(_load(args.space, inputs))
        out, cert = tree_cover(space, args.L, args.root)
        return {"sets": out.incidence().shape[0]}, cert, dump_cover(out)
    if args.op == "ray":
        space = load_space(_load(args.space, inputs))
        ent = load_entourage(_load(args.entourage, inputs), space)
        out, cert = ray_cell_cover(args.n, ent)
        result = {"sets": out.incidence().shape[0], "families": len(out.families)}
        return result, cert, dump_cover(out)
    if args.op == "hyperbolic":
        rho, N = hyperbolic_params(args.kappa, args.lam, args.mesh_bound,
                                   args.L, ARC_COLORS)
        atlas = SphereAtlas(args.kappa, rho, args.lam, args.mesh_bound)
        disk = sample_disk(args.kappa, args.disk_radius, args.radial_step,
                           args.angles)
        out, cert, labels = sphere_cover_lift(atlas, rho, N, args.L, disk)
        result = {"rho": rho, "N": N, "sets": out.incidence().shape[0],
                  "layers": sorted({k for k, _ in labels})}
        return result, cert, dump_cover(out)
    if args.op == "star":
        comp = load_complex(_load(args.complex_, inputs))
        out, cert = star_cover(comp, args.stability, args.resolution)
        return {"sets": out.incidence().shape[0]}, cert, dump_cover(out)
    if args.op == "sperner":
        grid = load_simplex_grid(_load(args.grid, inputs))
        found = sperner_find(grid)
        return {"cell": list(found["cell"]), "count": found["count"],
                "odd": found["count"] % 2 == 1}, [], None
    if args.op == "lowerbound":
        space = load_space(_load(args.space, inputs))
        cover = load_cover(_load(args.cover, inputs), space)
        cert = simplex_lower_bound_check(cover, args.n)
        result = {"certificate": {"point": cert["point"], "sets": cert["sets"]},
                  "fully_labeled_count": cert["fully_labeled_count"],
                  "level": cert["r"]}
        return result, [_lower_bound_guarantee(cert, args.n)], None
    raise UsageError(f"unknown witness op {args.op}")


def _handle_corona(args, inputs: dict):
    if args.op == "equiv":
        model = load_model(_load(args.model, inputs))
        out = roundtrip_bounds(model)
        f_table = model.f_table(min(5, model.depth))
        guarantees = [
            claim("corona.fg_bound", "d(f(g(x)),x) <= 2/(i-1)",
                  len(out["fg_failures"]), not out["fg_failures"]),
            claim("corona.gf_bands", "n_k+1 <= level <= k",
                  len(out["gf_failures"]), not out["gf_failures"]),
        ]
        result = {"fg_worst_ratio": out["fg_worst_ratio"],
                  "checked": out["gf_checked"],
                  "f_at_level_5": f_table, "g_table_size": len(model.interior)}
        return result, guarantees, None
    if args.op == "check":
        model = load_model(_load(args.model, inputs))
        ent = load_entourage(_load(args.entourage, inputs), model.ambient)
        out = check_cc_entourage(model, ent, args.schedule_constant,
                                 args.schedule_power)
        return out, [], None
    if args.op == "dimcover":
        sched, c, power = load_schedule(_load(args.schedule, inputs))
        depth = args.depth
        check_band_points(sched, depth)
        deltas = fixtures.power_decay_deltas(depth, c, power)
        window = fixtures.shift_window(depth)
        out, cert, info = corona_dim_cover(sched, deltas, window, depth)
        result = {"sets": out.incidence().shape[0], "layers": info["layers"],
                  "d_floor": info["d_sequence"][-1], "d_head": info["d_sequence"][0]}
        return result, cert, dump_cover(out)
    raise UsageError(f"unknown corona op {args.op}")


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _pipeline(args):
    rng = SplitMix64(args.seed)
    name = args.name
    if name == "asdim-upper":
        grid = Space.grid(2, [0, 0], [18, 18], 0.5)
        cov, cert1 = cube_cover(grid, 2, 10.0)
        L = Entourage.radius(grid, 0.6).materialize()
        colored, cert2 = colorize(Cover(grid, cov.incidence()), L, 2)
        expanded, cert3 = expand(colored, L)
        result = stats(expanded, L)
        return result, cert1 + cert2 + cert3, None
    if name == "asdim-lower":
        space = pn_sample(2, 16.0, 0.5)
        cov, _ = cube_cover(space, 2, 8.0)
        cert = simplex_lower_bound_check(Cover(space, cov.incidence()), 2)
        return ({"certificate": {"point": cert["point"], "sets": cert["sets"]},
                 "odd_count": cert["fully_labeled_count"] % 2 == 1},
                [_lower_bound_guarantee(cert, 2)], None)
    if name == "hyperbolic-full":
        kappa, lam, mesh_bound, L = -1.0, 0.2, 1.0, 5.0
        rho, N = hyperbolic_params(kappa, lam, mesh_bound, L, ARC_COLORS)
        atlas = SphereAtlas(kappa, rho, lam, mesh_bound)
        disk = sample_disk(kappa, 30.0, 1.0, 48)
        cov, cert, _ = sphere_cover_lift(atlas, rho, N, L, disk)
        worst = check_contraction(kappa, rho, 1, disk, rng, 2000)
        delta = 0.5
        gap = lipschitz_gap_bound(kappa, delta) + 0.3
        ratio = check_radial_lipschitz(kappa, rho, 1, gap, delta, 720)
        cert = cert + [at_most("hyperbolic.contraction", worst, 0),
                       at_most("hyperbolic.radial_lipschitz", ratio, delta)]
        return {"rho": rho, "N": N, "stats": stats(cov)}, cert, None
    if name == "corona-full":
        model = fixtures.unit_interval_model(1.0 / 200)
        out1 = roundtrip_bounds(model)
        disk = fixtures.disk_model()
        out2 = roundtrip_bounds(disk)
        space = fixtures.circle_space(720)
        sched = fixtures.circle_arc_schedule(space)
        depth = args.depth
        check_band_points(sched, depth)
        cov, cert, info = corona_dim_cover(
            sched, fixtures.power_decay_deltas(depth),
            fixtures.shift_window(depth), depth)
        guarantees = cert + [
            count_at_most("corona.fg_bound_interval", len(out1["fg_failures"]), 0),
            count_at_most("corona.fg_bound_disk", len(out2["fg_failures"]), 0)]
        return {"depth": depth, "d_floor": info["d_sequence"][-1]}, guarantees, None
    if name == "support-suite":
        fails = 0
        sensitive = 0
        for _ in range(args.trials):
            sizes = [1] * rng.randint(2, 6)
            dims = [rng.randint(1, 4) for _ in sizes]
            space = Space.discrete(len(sizes))
            blocks = [[i] for i in range(len(sizes))]
            dec = Decomposition(space, blocks, dims)
            mats = []
            for _ in range(2):
                m = np.zeros((dec.total, dec.total), dtype=complex)
                for i in range(dec.total):
                    for j in range(dec.total):
                        if rng.uniform() < 0.4:
                            m[i, j] = rng.uniform() - 0.5 + 1j * (rng.uniform() - 0.5)
                mats.append(BlockOperator(dec, m))
            u = np.array([rng.uniform() - 0.5 if rng.uniform() < 0.6 else 0.0
                          for _ in range(dec.total)], dtype=complex)
            report = check_calculus(mats[0], mats[1], u)
            if not report["all_pass"]:
                fails += 1
            sensitive += len(report["tolerance_sensitive"])
        return ({"trials": args.trials, "tolerance_sensitive": sensitive},
                [count_at_most("support.calculus_inclusions", fails, 0)], None)
    raise UsageError(f"unknown pipeline {name}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


@functools.cache
def _parser() -> Parser:
    """The parser of run, built once per process: parsing never modifies
    it, and it has no mutable defaults."""
    return build_parser()


def run(argv) -> tuple[int, dict]:
    """Dispatch and build the report; returns (exit_code, report)."""
    report: dict = {"command": list(argv)}
    started = time.monotonic()
    try:
        args = _parser().parse_args(argv)
    except UsageError as err:
        report["error"] = {"kind": "usage", "message": str(err)}
        return EXIT_USAGE, report
    inputs: dict = {}
    code = EXIT_OK
    try:
        if args.group == "pipeline":
            result, guarantees, artifact = _pipeline(args)
        else:
            result, guarantees, artifact = _handle(args, inputs)
        report["result"] = result
        report["guarantees"] = guarantees
        if guarantees and not all(g["pass"] for g in guarantees):
            code = EXIT_CONTRACT
        if artifact is not None and args.out:
            write_json(args.out, artifact)
            report["artifact"] = args.out
    except UsageError as err:
        report["error"] = {"kind": "usage", "message": str(err)}
        code = EXIT_USAGE
    except ContractViolationError as err:
        report["error"] = {"kind": "contract-violation", "message": str(err),
                           "witness": _jsonable(err.witness)}
        code = EXIT_CONTRACT
    except (InvalidInputError, ResourceLimitError) as err:
        kind = "resource-limit" if isinstance(err, ResourceLimitError) else "invalid-input"
        report["error"] = {"kind": kind, "message": str(err)}
        code = EXIT_INVALID
    except InternalCheckError as err:
        report["error"] = {"kind": "internal", "message": str(err)}
        code = EXIT_CONTRACT
    except FileNotFoundError as err:
        report["error"] = {"kind": "invalid-input", "message": str(err)}
        code = EXIT_INVALID
    report["inputs"] = inputs
    if getattr(args, "timing", False):
        report["wall_time_ms"] = round((time.monotonic() - started) * 1000, 3)
    return code, report


def _jsonable(obj):
    try:
        json.dumps(obj)
        return obj
    except TypeError:
        return repr(obj)


def render(report: dict, fmt: str) -> str:
    if fmt == "summary":
        lines = []
        if "error" in report:
            lines.append(f"error[{report['error']['kind']}]: {report['error']['message']}")
        for g in report.get("guarantees", []):
            status = "pass" if g["pass"] else "FAIL"
            extra = "".join(
                f" {key}={g[key]}" for key in ("claimed", "measured", "witness")
                if g.get(key) is not None)
            lines.append(f"{status} {g['id']}:{extra}" if extra
                         else f"{status} {g['id']}")
        if "result" in report:
            lines.append(json.dumps(report["result"], sort_keys=True, default=str))
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      default=str) + "\n"


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fmt = "json"
    if "--format" in argv:
        try:
            fmt = argv[argv.index("--format") + 1]
        except IndexError:
            pass
    code, report = run(argv)
    sys.stdout.write(render(report, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
