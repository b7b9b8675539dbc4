"""Command-line interface: verify, scan, search, family, oracle.

Exit codes: 0 when the requested verdict is positive, 1 when negative, 2 on
usage or parse errors, 3 when a budget is exceeded.  All numeric output is
decimal; there is no floating point in any code path.  Reports come in a
human text form and a machine JSON form (--format json) in which big
integers are decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import criteria, oracle, permgroup, scanner, search
from .bigraph import BiGraph, GraphFormatError, parse_graph_text, format_graph_text

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_graph(path: str) -> BiGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text()
    return parse_graph_text(text)


def _positive(text: str) -> int:
    """The argparse type of search --workers (the pool is capped at the CPU
    count and the number of branches), --max-blocks and --max-subsets: an
    integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget_from(args) -> oracle.Budget:
    """Budget from --max-blocks and --max-subsets, the default for a flag not
    given."""
    return oracle.Budget(**{field: value for field in ("max_blocks", "max_subsets")
                            if (value := getattr(args, field)) is not None})


def _designs(rep: criteria.CriteriaReport):
    """(design name, group name, report) for D under K and, on square grids,
    for Dhat under G."""
    pairs = [("D", "K", rep.d), ("Dhat", "G", rep.dhat)]
    return [pair for pair in pairs if pair[2] is not None]


def _report_dict(rep: criteria.CriteriaReport) -> dict:
    def big(x):
        return None if x is None else str(x)

    out = {
        "m": rep.m,
        "n": rep.n,
        "k": rep.k,
        "outside_standard_range": rep.outside_standard_range,
    }
    for name, _, design in _designs(rep):
        out[name.lower()] = {
            "is_2design": design.is_2design,
            "is_3design": design.is_3design,
            "lambda_2": big(design.lambda_2),
            "lambda_3": big(design.lambda_3),
            "blocks": big(design.blocks),
            "stabilizer_order": big(design.stabilizer_order),
        }
    if rep.dhat is not None:
        out["dhat"]["tau_equivalent"] = rep.tau_equivalent
        out["case_2"] = rep.case_2.label
        out["case_3"] = rep.case_3.label
    return out


def _print_report_text(rep: criteria.CriteriaReport, aut: permgroup.AutReport):
    def yn(v):
        return "yes" if v else "no"

    print(f"m = {rep.m}")
    print(f"n = {rep.n}")
    print(f"k = {rep.k}")
    if rep.outside_standard_range:
        print("warning = k outside the standing range 3 <= k <= mn/2")
    for name, group, design in _designs(rep):
        print(f"stabilizer_order_{group} = {design.stabilizer_order}")
        print(f"blocks_{name} = {design.blocks}")
        if group == "G":
            print(f"tau_equivalent = {yn(rep.tau_equivalent)}")
        for t in (2, 3):
            print(f"{name}_{t}design = {yn(getattr(design, f'is_{t}design'))}")
            if (lam := getattr(design, f"lambda_{t}")) is not None:
                print(f"lambda_{name}_{t} = {lam}")
    if rep.dhat is not None:
        print(f"case_t2 = {rep.case_2.label}")
        print(f"case_t3 = {rep.case_3.label}")
    gens = aut.g_gens if aut.g_gens is not None else aut.k_gens
    for p in gens:
        print(f"generator = {permgroup.gridperm_text(p)}")


def _verdict(rep: criteria.CriteriaReport, t: int, group: str) -> bool:
    """Whether the design of `group` ("K", "G" or "both", either one) is a
    t-design; Dhat is none off square grids."""
    return any(getattr(design, f"is_{t}design")
               for _, grp, design in _designs(rep) if group in (grp, "both"))


def _cmd_verify(args) -> int:
    if not args.with_oracle:
        for flag, value in (("--max-blocks", args.max_blocks),
                            ("--max-subsets", args.max_subsets)):
            if value is not None:
                print(f"error: {flag} applies only with --with-oracle", file=sys.stderr)
                return EXIT_USAGE
    g = _read_graph(args.file)
    if args.group == "G" and g.m != g.n:
        print("error: group G requires a square grid", file=sys.stderr)
        return EXIT_USAGE
    aut = permgroup.automorphisms(g)
    rep = criteria.evaluate(g, aut)
    payload = _report_dict(rep)

    if args.with_oracle:
        groups = ["K", "G"] if args.group == "both" else [args.group]
        if g.m != g.n:
            groups = ["K"]  # G alone was refused above
        verdicts = oracle.orbit_verdicts(g, args.t, groups, _budget_from(args))
        payload["oracle"] = {
            grp: {
                "blocks": b,
                "t": args.t,
                "histogram": {str(c): num for c, num in hist.items()},
                "is_design": verdict,
            }
            for grp, (b, verdict, hist) in verdicts.items()
        }

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_report_text(rep, aut)
        for grp, data in payload.get("oracle", {}).items():
            print(f"oracle_{grp}_blocks = {data['blocks']}")
            for cov, num in data["histogram"].items():
                print(f"oracle_{grp}_coverage_{cov} = {num}")
            print(f"oracle_{grp}_is_{args.t}design = "
                  + ("yes" if data["is_design"] else "no"))
    return EXIT_POSITIVE if _verdict(rep, args.t, args.group) else EXIT_NEGATIVE


def _cmd_scan(args) -> int:
    modes = [m for m in scanner.MODES if getattr(args, m)]
    if len(modes) != 1:
        print("error: choose exactly one of --square3/--square2/--general3",
              file=sys.stderr)
        return EXIT_USAGE
    mode = modes[0]
    if mode == "general3" and args.max_n is None:
        print("error: --general3 needs --max-n", file=sys.stderr)
        return EXIT_USAGE
    if mode != "general3" and args.max_n is not None:
        print(f"error: --max-n applies only to --general3, not --{mode}",
              file=sys.stderr)
        return EXIT_USAGE
    # a bad bound raises here, before anything is written
    grids = scanner.feasible_grids(mode, args.max_m, args.max_n)
    # one write per grid: the output is never held whole, and no string is
    # built per tuple
    write = sys.stdout.write
    found = False
    if args.format == "json":
        # byte for byte json.dumps({"mode": mode, "tuples": [[m, n, k], ...]})
        write(f'{{"mode": {json.dumps(mode)}, "tuples": [')
        for m, n, ks in grids:
            head = f"[{m}, {n}, "
            write((", " if found else "") + head
                  + ("], " + head).join(map(str, ks)) + "]")
            found = True
        write("]}\n")
    else:
        end = f" target={mode}\n"
        for m, n, ks in grids:
            head = f"feasible m={m} n={n} k="
            write(head + (end + head).join(map(str, ks)) + end)
            found = True
    return EXIT_POSITIVE if found else EXIT_NEGATIVE


def _cmd_family(args) -> int:
    if args.kind == "path":
        n = args.n if args.n is not None else args.m
        g = search.family_path(args.k, args.m, n)
    elif args.kind == "cycle":
        g = search.family_cycle(args.k, args.m)
    else:
        g = search.family_figure(args.which)
    sys.stdout.write(format_graph_text(g))
    return EXIT_POSITIVE


def _cmd_oracle(args) -> int:
    g = _read_graph(args.file)
    budget = _budget_from(args)
    if args.ratio and args.t not in (2, 3):
        print("error: --ratio needs --t 2 or 3", file=sys.stderr)
        return EXIT_USAGE
    b, verdict, hist = oracle.orbit_verdicts(g, args.t, [args.group], budget)[args.group]
    payload = {
        "group": args.group,
        "t": args.t,
        "blocks": b,
        "histogram": {str(c): num for c, num in hist.items()},
        "is_design": verdict,
    }
    if args.flags:
        payload["flag_transitive"] = oracle.flag_transitive_direct(
            g, args.group, b, budget)
    if args.ratio:
        ok, records = oracle.orbit_ratio_check(g, args.group, args.t)
        payload["orbit_ratio_design"] = ok
        payload["orbits"] = [
            {"name": r.name, "size": r.orbit_size, "count": r.count_in_block}
            for r in records
        ]
    if args.export_blocks:
        # the one place the blocks are listed, so the one place they are sorted
        design = oracle.materialize(g, args.group, budget)
        Path(args.export_blocks).write_text(oracle.export_block_list(design))
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"group = {args.group}")
        print(f"t = {args.t}")
        print(f"blocks = {b}")
        for cov, num in hist.items():
            print(f"coverage {cov} subsets {num}")
        print(f"{args.t}design = " + ("yes" if verdict else "no"))
        if "flag_transitive" in payload:
            print("flag_transitive = "
                  + ("yes" if payload["flag_transitive"] else "no"))
        if "orbit_ratio_design" in payload:
            for rec in payload["orbits"]:
                print(f"orbit {rec['name']} size {rec['size']} count {rec['count']}")
            print("orbit_ratio_design = "
                  + ("yes" if payload["orbit_ratio_design"] else "no"))
    return EXIT_POSITIVE if verdict else EXIT_NEGATIVE


def _cmd_search(args) -> int:
    spec = search.SearchSpec(
        m=args.m, n=args.n if args.n is not None else args.m, k=args.k,
        target=args.target, dedup=args.dedup,
        max_nodes=args.max_nodes, max_seconds=args.max_seconds,
        start_branch=args.start_branch,
    )
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    design, t, _ = search.TARGETS[spec.target]
    reports = []
    try:
        for idx, (g, aut) in enumerate(search.exhaustive_search(spec, workers=args.workers)):
            rep = criteria.evaluate(g, aut)
            reports.append(rep)
            if out_dir:
                (out_dir / f"result_{idx:04d}.grid").write_text(format_graph_text(g))
            if args.format == "text":
                # printed as found, so a budget stop keeps the finished branches
                lam = getattr(getattr(rep, design.lower()), f"lambda_{t}")
                edges = " ".join(f"({i},{j})" for i, j in g.edges())
                print(f"result {idx}: k={rep.k} lambda={lam} edges {edges}")
    except search.SearchBudgetError as exc:
        if out_dir:
            _write_index(out_dir, reports, f"stopped: {exc}")
        raise
    if args.format == "json":
        print(json.dumps(
            {"spec": {"m": spec.m, "n": spec.n, "k": spec.k,
                      "target": spec.target, "dedup": spec.dedup},
             "results": [_report_dict(rep) for rep in reports]},
            indent=2, sort_keys=True))
    else:
        print(f"found = {len(reports)}")
    if out_dir:
        _write_index(out_dir, reports)
    return EXIT_POSITIVE if reports else EXIT_NEGATIVE


def _write_index(out_dir: Path, reports, stopped: str | None = None) -> None:
    """index.txt: one line per result file, then, for a run stopped by its
    budget, a line saying so with the branch to resume at."""
    lines = [f"result_{idx:04d}.grid " + json.dumps(_report_dict(rep), sort_keys=True)
             for idx, rep in enumerate(reports)]
    if stopped:
        lines.append(stopped)
    (out_dir / "index.txt").write_text("\n".join(lines) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: each of its
    arguments asks for the terminal size, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="griddesigns",
        description="Exact verification, scanning and search for "
                    "block-transitive grid designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="evaluate the design criteria on a graph file")
    p.add_argument("file", help="graph file in grid/edge format, or - for stdin")
    p.add_argument("--t", type=int, choices=(2, 3), default=2)
    p.add_argument("--group", choices=("K", "G", "both"), default="K")
    p.add_argument("--with-oracle", action="store_true",
                   help="also materialize the design and count coverages")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-blocks", type=_positive, default=None)
    p.add_argument("--max-subsets", type=_positive, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("scan", help="divisibility feasibility scans")
    p.add_argument("--square3", action="store_true")
    p.add_argument("--square2", action="store_true")
    p.add_argument("--general3", action="store_true")
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("search", help="exhaustive search for target graphs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target", choices=search.TARGETS, required=True)
    p.add_argument("--dedup", choices=("side-preserving", "allow-tau"),
                   default=None,
                   help="default: allow-tau on square grids, else side-preserving")
    p.add_argument("--max-nodes", type=int, default=10_000_000)
    p.add_argument("--max-seconds", type=int, default=None)
    p.add_argument("--start-branch", type=int, default=0,
                   help="first degree branch to search (resumes a search "
                        "stopped by its budget)")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--workers", type=_positive, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("family", help="emit a known family graph")
    fam_sub = p.add_subparsers(dest="kind", required=True)
    fp = fam_sub.add_parser("path")
    fp.add_argument("--k", type=int, required=True)
    fp.add_argument("--m", type=int, required=True)
    fp.add_argument("--n", type=int, default=None)
    fc = fam_sub.add_parser("cycle")
    fc.add_argument("--k", type=int, required=True)
    fc.add_argument("--m", type=int, required=True)
    ff = fam_sub.add_parser("figure")
    ff.add_argument("--which", choices=search.FIGURES, required=True)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("oracle", help="materialize a design and count coverages")
    p.add_argument("file", help="graph file in grid/edge format, or - for stdin")
    p.add_argument("--group", choices=("K", "G"), default="K")
    p.add_argument("--t", type=int, choices=(2, 3, 4), default=2)
    p.add_argument("--flags", action="store_true",
                   help="also check flag transitivity")
    p.add_argument("--ratio", action="store_true",
                   help="also run the orbit-ratio test")
    p.add_argument("--export-blocks", default=None,
                   help="write the block list to this path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-blocks", type=_positive, default=None)
    p.add_argument("--max-subsets", type=_positive, default=None)
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (oracle.BudgetExceededError, search.SearchBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
