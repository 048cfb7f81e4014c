"""Command-line interface.

One executable with a subcommand per module.  JSON output is schema-stable
(top-level "schema": "1", keys sorted, exact rationals as [num, den] pairs
and cyclotomic numbers as coefficient vectors, never floats); CSV holds the
embedded complex values for spreadsheet use.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import __version__, _lazy_getattr
from .levels import SUPPORTED_RANGE, _require_level

# Each handler imports the modules it runs inside its own body, so a process
# loads only what its subcommand needs (`dims` and `--version` never load
# numpy), and a handler reads each function at call time.  One name stays
# readable, as so3tqft.cli.so3_closure, because perfbench's tracer test reads it.
__getattr__ = _lazy_getattr(__name__, {"finite_image": ("so3_closure",)})

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# every subcommand: the largest prime at which a cold `modular-data --json`
# ends in under 10 s (see README)
MAX_LEVEL = 113
# image identifies the group from certificates; the largest prime at which
# both generator sets finish a cold `image --json` in under 3 s (see README)
MAX_IMAGE_R = 83
# the enumeration checks of verify-all, a breadth-first search over all of
# PSL2(F_r): 1092 elements at r = 13
MAX_ENUMERATION_R = 13
MAX_DIMS_GENUS = 12


class CapacityError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main, which reports
    them as "error: ..." (then the usage line) with exit code 2, instead
    of exiting."""

    def error(self, message):
        raise argparse.ArgumentTypeError(f"{message}\n{self.format_usage().rstrip()}")


def _complex_pair(z):
    return [z.real, z.imag]


def _json_chunks(obj):
    """The text of json.dumps(obj, sort_keys=True, separators=(",", ":")) in
    pieces, so no whole-report string or chunk list is held: dicts and lists
    are walked here, and a matrix entry's coefficients (anything with
    json_text, see cycmatrix) are written from their array."""
    if isinstance(obj, dict):
        sep = "{"
        for k, v in sorted(obj.items()):
            yield sep + json.dumps(k if isinstance(k, str) else json.dumps(k)) + ":"
            yield from _json_chunks(v)
            sep = ","
        yield "}" if sep == "," else "{}"
    elif isinstance(obj, (list, tuple)):
        sep = "["
        for v in obj:
            yield sep
            yield from _json_chunks(v)
            sep = ","
        yield "]" if sep == "," else "[]"
    elif hasattr(obj, "json_text"):
        yield obj.json_text()
    else:
        yield json.dumps(obj)


def _emit(report, args):
    if args.csv:
        chunks = [_to_csv(report)]
    else:
        report = {k: v for k, v in report.items() if k != "csv_rows"}
        chunks = _json_chunks(report) if args.json else [_to_text(report)]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.write("\n")


def _flat_items(obj, prefix=""):
    """(dotted key, value) for each leaf of a nested dict, keys sorted at
    every level; anything but a dict is a leaf."""
    for k in sorted(obj):
        if isinstance(obj[k], dict):
            yield from _flat_items(obj[k], f"{prefix}{k}.")
        else:
            yield f"{prefix}{k}", obj[k]


def _to_text(report):
    buf = []
    for row in report.get("checks", ()):
        status = "PASS" if row.get("ok") else "FAIL"
        detail = f"  ({row['error']})" if row.get("error") else ""
        buf.append(f"{status}  {row['name']}{detail}")
    if buf:
        buf.append("")
    rest = {k: v for k, v in report.items() if k not in ("checks", "csv_rows")}
    for key, v in _flat_items(rest):
        long = isinstance(v, list) and len(v) > 12
        buf.append(f"{key} = [{len(v)} entries]" if long else f"{key} = {v}")
    return "\n".join(buf)


def _to_csv(report):
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    rows = report.get("csv_rows")
    if rows is None:
        flat = _flat_items(json.loads("".join(_json_chunks(report))))
        rows = [["key", "value"], *([key, json.dumps(v)] for key, v in flat)]
    writer.writerows(rows)
    return out.getvalue().rstrip("\n")


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (exit_code, report dict))


def _cmd_modular_data(args):
    from .modular_data import build_modular_data, central_charge_order, dehn_twist_spectrum

    r = args.r
    md = build_modular_data(r)
    spectrum = dehn_twist_spectrum(r)
    report = {
        "schema": "1",
        "inputs": {"subcommand": "modular-data", "r": r},
        "labels": list(md.labels),
        "qdim": {str(l): md.qdim[l].to_json() for l in md.labels},
        "qdim_embed": {str(l): _complex_pair(md.qdim[l].embed()) for l in md.labels},
        "twist": {str(l): md.twist[l].to_json() for l in md.labels},
        "s_tilde": md.s_tilde.to_json(),
        "global_dim": md.global_dim.to_json(),
        "global_dim_embed": _complex_pair(md.global_dim.embed()),
        "p_plus": md.p_plus.to_json(),
        "p_minus": md.p_minus.to_json(),
        "central_charge_order": central_charge_order(md),
        "spectrum_conjugated": spectrum.conjugated,
        "csv_rows": [["label", "qdim_re", "qdim_im", "twist_re", "twist_im"]]
        + [
            [
                l,
                md.qdim[l].embed().real,
                md.qdim[l].embed().imag,
                md.twist[l].embed().real,
                md.twist[l].embed().imag,
            ]
            for l in md.labels
        ],
    }
    return EXIT_OK, report


def _cmd_weil(args):
    from .weil import build_weil, verify_odd_block_identification

    r = args.r
    build_weil(r)  # construction includes the intertwiner relation checks
    report = {
        "schema": "1",
        "inputs": {"subcommand": "weil", "r": r, "verify": bool(args.verify)},
        "intertwiner_relations": True,
    }
    if args.verify:
        thm = verify_odd_block_identification(r)
        report.update(
            {
                "s_block_identity": thm["s_block_identity"],
                "t_block_identity": thm["t_block_identity"],
                "s_constant": thm["s_constant_json"],
                "t_constant": thm["t_constant_json"],
            }
        )
    return EXIT_OK, report


def _cmd_dims(args):
    from .fusion_dims import SurfaceSpec, dim_space, goslow_margin, verlinde_dim

    r = args.r
    boundary = tuple(int(x) for x in args.boundary.split(",")) if args.boundary else ()
    if args.genus > MAX_DIMS_GENUS:
        raise CapacityError(f"genus capped at {MAX_DIMS_GENUS}")
    if args.verlinde_check and (boundary or args.genus < 1):
        raise ValueError("--verlinde-check needs a closed surface of genus >= 1")
    spec = SurfaceSpec(r, args.genus, boundary)
    report = {
        "schema": "1",
        "inputs": {
            "subcommand": "dims",
            "r": r,
            "genus": args.genus,
            "boundary": list(boundary),
        },
        "dim": dim_space(spec),
    }
    if args.verlinde_check:
        vfloat, vnear = verlinde_dim(r, args.genus)
        report["verlinde_float"] = vfloat
        report["verlinde_nearest"] = vnear
        report["verlinde_agrees"] = vnear == report["dim"]
        if not report["verlinde_agrees"]:
            return EXIT_VERIFY_FAIL, report
    margin_checks = {}
    if r >= 7 and not boundary and args.genus >= 2:
        margin_checks[f"g{args.genus}"] = goslow_margin(r, args.genus)
    report["margin_checks"] = margin_checks
    return EXIT_OK, report


def _cmd_image(args):
    r = args.r
    if r > MAX_IMAGE_R:
        raise CapacityError(f"image capped at r <= {MAX_IMAGE_R}")
    from .finite_image import identify_group
    from .weil import verify_odd_block_identification

    inputs = {"subcommand": "image", "r": r, "generators": args.generators}
    if args.generators == "weil":
        try:  # the odd Weil pair is a nonzero scalar multiple of the genus-1 pair
            verify_odd_block_identification(r)
        except ArithmeticError:
            return EXIT_VERIFY_FAIL, {"schema": "1", "inputs": inputs, "weil_image_equality": False}
    found = identify_group(r)
    keys = "order matches generator_orders relations mod_r_graph linear_lift r_mod_4".split()
    report = {"schema": "1", "inputs": inputs, **{k: found[k] for k in keys}}
    return (EXIT_OK if found["matches"] == "PSL2" else EXIT_VERIFY_FAIL), report


def _ltwo_all_pairs(r):
    """Every tensor product of two nontrivial irreducibles of SL2(F_r) has a
    constituent of degree > (r-1)/2: one expression over the certified
    multiplicity array M[a, b, c] of the table."""
    from .sl2_char import sl2_table

    tbl = sl2_table(r)
    nontrivial = [a for a in range(tbl.num_classes()) if a != tbl.trivial_index()]
    big = [c for c, deg in enumerate(tbl.degrees) if deg > (r - 1) // 2]
    mults = tbl.tensor_mults[nontrivial][:, nontrivial][:, :, big]
    return bool((mults > 0).any(axis=2).all())


def _cmd_chartab(args):
    from .sl2_char import (
        borel_check,
        chi_beta_report,
        regular_congruence_check,
        sl2_table,
    )

    r = args.r
    if r > SUPPORTED_RANGE[1]:
        raise CapacityError(f"character tables capped at r <= {SUPPORTED_RANGE[1]}")
    tbl = sl2_table(r)
    k = tbl.num_classes()
    entries = tbl.values.to_json()["entries"]
    report = {
        "schema": "1",
        "inputs": {
            "subcommand": "chartab",
            "r": r,
            "check_ltwo": bool(args.check_ltwo),
            "check_borel": bool(args.check_borel),
        },
        "order": tbl.group.order(),
        "num_classes": k,
        "class_sizes": tbl.class_sizes,
        "class_orders": tbl.group.class_orders,
        "degrees": tbl.degrees,
        "dixon_prime": tbl.dixon_prime,
        "exponent": tbl.group.exponent,
        "char_table": [entries[a * k : (a + 1) * k] for a in range(k)],
        "chi_beta_minus_one": chi_beta_report(r)["all_values_minus_one"],
    }
    if args.csv:
        report["csv_rows"] = [["degree"] + [f"class{i}" for i in range(k)]] + [
            [tbl.degrees[a]]
            + [f"{v.embed().real:.12g}{v.embed().imag:+.12g}j" for v in row]
            for a, row in enumerate(tbl.char_table)
        ]
    failures = []
    if args.check_ltwo:
        ok = _ltwo_all_pairs(r)
        report["ltwo_all_pairs"] = ok
        if not ok:
            failures.append("ltwo")
    if args.check_borel:
        bc = borel_check(r)
        report["borel"] = {
            "order": bc["borel_order"],
            "index": bc["index"],
            "degrees": bc["borel_degrees"],
            "observed_degree_set": bc["observed_degree_set"],
            "stated_degree_set": bc["stated_degree_set"],
            "degrees_match_stated_set": bc["degrees_match_stated_set"],
            "all_screened_out": bc["all_screened_out"],
        }
        report["regular"] = regular_congruence_check(r)
    return (EXIT_VERIFY_FAIL if failures else EXIT_OK), report


def _cmd_tau(args):
    from .mfld3 import (
        MAX_SURVEY_LEN,
        ChainSurgery,
        heegaard_tau,
        norm_survey,
        signature,
        tau,
    )
    from .modular_data import build_modular_data, central_charge_order

    r = args.r
    md = build_modular_data(r)
    framings = (
        tuple(int(x) for x in args.chain.split(",")) if args.chain not in (None, "")
        else ()
    )
    chain = ChainSurgery(framings)
    value = tau(md, chain)
    report = {
        "schema": "1",
        "inputs": {
            "subcommand": "tau",
            "r": r,
            "chain": list(framings),
            "heegaard": args.heegaard,
            "survey": args.survey,
        },
        "value_exact": value.value.to_json(),
        "value_complex": _complex_pair(value.complex_value),
        "norm": value.norm,
        "sigma": signature(chain.linking_matrix()),
        "kappa_order": central_charge_order(md),
    }
    if args.heegaard is not None:
        report["heegaard_norm"] = heegaard_tau(md, args.heegaard)
    if args.survey is not None:
        if args.survey > MAX_SURVEY_LEN:
            raise CapacityError(f"survey capped at word length {MAX_SURVEY_LEN}")
        try:  # the survey needs identify_group's certificate
            report["survey"] = norm_survey(md, args.survey)
        except ArithmeticError as e:
            report["survey"] = {"error": str(e)}
            return EXIT_VERIFY_FAIL, report
    return EXIT_OK, report


def _field_axiom_spot_check(r, seed, cases=100):
    import random

    from .cyclo import CycNumber, get_field

    rng = random.Random(seed)
    f = get_field(4 * r)
    deg = f.degree
    for _ in range(cases):
        x, y, z = (
            CycNumber(f, [rng.randint(-9, 9) for _ in range(deg)], rng.randint(1, 9))
            for _ in range(3)
        )
        if (x + y) * z != x * z + y * z:
            return False
        if (x * y) * z != x * (y * z):
            return False
        if (x * y).conj() != x.conj() * y.conj():
            return False
        if not x.is_zero() and x * x.inv() != f.one:
            return False
    return True


def _cmd_verify_all(args):
    # fusion_dims first, so it is compiled before numpy is loaded
    from .fusion_dims import (
        SurfaceSpec, dim_space, goslow_margin, twist_multiplicities, verlinde_dim
    )
    from .mfld3 import lens_routes_agree
    from .modular_data import build_modular_data, genus1_letters, projective_relations, rho_genus1
    from .weil import verify_odd_block_identification

    r = args.r
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as err:  # a raised invariant is a failure, not a crash
            checks.append((name, False, repr(err)))
            return
        checks.append((name, ok, ""))

    check("field-axioms-spot", lambda: _field_axiom_spot_check(r, args.seed))
    check("s-matrix-unitary", lambda: build_modular_data(r).s_unitary.is_unitary())

    check(
        "projective-relations",
        lambda: all(projective_relations(r, genus1_letters(*rho_genus1(r))).values()),
    )
    check("odd-block-identities", lambda: verify_odd_block_identification(r)["s_block_identity"])

    def gluing_vs_verlinde():
        for g in range(1, 7):
            if dim_space(SurfaceSpec(r, g)) != verlinde_dim(r, g)[1]:
                return False
        return True

    check("gluing-vs-verlinde", gluing_vs_verlinde)
    check(
        "twist-multiplicities",
        lambda: sum(twist_multiplicities(r)) == dim_space(SurfaceSpec(r, 2)),
    )
    if r >= 7:
        check("goslow-margin", lambda: goslow_margin(r, 3) > 0)

    def lens_oracle():
        md = build_modular_data(r)
        return all(lens_routes_agree(md, p) for p in range(-12, 13))

    check("lens-two-route", lens_oracle)

    if r <= MAX_ENUMERATION_R:
        from .finite_image import so3_closure, weil_closure

        def image_check():
            gc = so3_closure(r)
            full = r * (r * r - 1)
            return gc.complete and gc.order in (full, full // 2)

        check("image-enumeration", image_check)
        check("weil-image-equality", lambda: weil_closure(r) is so3_closure(r))

    if r <= SUPPORTED_RANGE[1]:
        from .sl2_char import sl2_table

        check("chartab-orthogonality", lambda: sl2_table(r) is not None)
        check("ltwo-exhaustive", lambda: _ltwo_all_pairs(r))

    failed = [name for name, ok, _ in checks if not ok]
    report = {
        "schema": "1",
        "inputs": {"subcommand": "verify-all", "r": r, "seed": args.seed},
        "checks": [
            {"name": name, "ok": ok, **({"error": err} if err else {})}
            for name, ok, err in checks
        ],
        "failed": failed,
        "all_ok": not failed,
    }
    return (EXIT_OK if not failed else EXIT_VERIFY_FAIL), report


# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(
        prog="so3tqft",
        description="Exact computations with level-r modular data, the odd "
        "Weil representation, fusion dimensions and 3-manifold invariants.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--r", type=int, required=True, help="odd prime level, r >= 5")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--csv", action="store_true", help="CSV output")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("modular-data", help="labels, quantum dimensions, twists, S/T data")
    add_common(p)
    p.set_defaults(fn=_cmd_modular_data)

    p = sub.add_parser("weil", help="Weil intertwiners and the odd-block identities")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="check the odd-block identities")
    p.set_defaults(fn=_cmd_weil)

    p = sub.add_parser("dims", help="surface dimensions and the power-sum cross-check")
    add_common(p)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", default="", help="comma-separated even labels")
    p.add_argument("--verlinde-check", action="store_true")
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("image", help="projective image identification by certificates")
    add_common(p)
    p.add_argument("--generators", choices=("so3", "weil"), default="so3")
    p.set_defaults(fn=_cmd_image)

    p = sub.add_parser("chartab", help="character table of SL2(F_r)")
    add_common(p)
    p.add_argument("--check-ltwo", action="store_true")
    p.add_argument("--check-borel", action="store_true")
    p.set_defaults(fn=_cmd_chartab)

    p = sub.add_parser("tau", help="3-manifold invariant of a chain surgery")
    add_common(p)
    p.add_argument("--chain", default="", help="comma-separated framings, empty for S^3; "
                   "a chain that starts negative needs '=': --chain=-1,2")
    p.add_argument("--heegaard", help="word over {s,t,S,T}")
    p.add_argument("--survey", type=int, help="collect |(0,0)| norms for words up to this length")
    p.set_defaults(fn=_cmd_tau)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require_level(args.r)
        if args.r > MAX_LEVEL:
            raise CapacityError(f"level capped at r <= {MAX_LEVEL}")
        code, report = args.fn(args)
    except CapacityError as err:
        print(
            json.dumps(
                {"schema": "1", "error": "capacity", "detail": str(err)},
                sort_keys=True,
                separators=(",", ":"),
            ),
            file=sys.stderr,
        )
        return EXIT_CAPACITY
    except (ValueError, argparse.ArgumentTypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(report, args)
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
