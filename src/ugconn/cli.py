"""Command-line driver: build graphs from spec strings, export, search, verify.

Exit codes: 0 success, 1 a gating check failed, 2 bad usage or an invalid
spec, 3 capacity exceeded (graph too large for the requested operation).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from . import __version__
from .cayley import (
    CayleyGraph,
    build_cayley,
    girth,
    to_dot,
    to_edgelist,
    to_graph6,
    with_redirected_cross_edge,
)
from .flows import vertex_connectivity_detail
from .genset import (
    GeneratingGraph,
    GeneratingGraphError,
    build_generating_graph,
    describe,
)
from .perms import CapacityError

# ``cuts`` and ``lemmas`` are imported by the commands that use them, so
# gen, info and connectivity never compile the scans or the checks;
# ``argparse`` and ``json`` likewise load with the parser and the commands
# that read or write JSON.


class SpecError(ValueError):
    """A topology spec token did not parse."""


def _int(text: str, token: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"expected an integer in '{token}'") from None


def parse_spec(tokens) -> GeneratingGraph:
    """Resolve a topology spec to a validated generating graph.

    Grammar: mb:<n> | bubble:<n> | star:<n> | ug:<n>:c=<len> |
    edges:<k-l,...> n=<n>.  The edge-list form is the escape hatch for
    arbitrary shapes and is the only one taking the extra n= token.
    """
    if isinstance(tokens, str):
        tokens = [tokens]
    main, *rest = tokens
    n_extra = None
    for tok in rest:
        if not tok.startswith("n="):
            raise SpecError(f"unrecognized spec token '{tok}'")
        if n_extra is not None:
            raise SpecError(f"repeated n= token '{tok}'")
        n_extra = _int(tok[2:], tok)
    if main.startswith("edges:"):
        if n_extra is None:
            raise SpecError("edge-list specs need an n=<arity> token")
        pairs = []
        for part in main[len("edges:") :].split(","):
            a, sep, b = part.partition("-")
            if not sep:
                raise SpecError(f"bad edge token '{part}' (want k-l)")
            pairs.append((_int(a, part), _int(b, part)))
        return build_generating_graph(n_extra, pairs)
    if n_extra is not None:
        raise SpecError("n= applies only to edges: specs")
    head, sep, tail = main.partition(":")
    if not sep:
        raise SpecError(f"unrecognized spec '{main}'")
    if head == "mb":
        n = _int(tail, main)
        if n < 3:
            raise SpecError("mb needs n >= 3")
        pairs = [(k, k + 1) for k in range(1, n)] + [(1, n)]
        # mb:3 is the triangle; permitted here so its connectivity stays
        # reachable even though the unicyclic family starts at girth 4
        return build_generating_graph(n, pairs, allow_triangle=(n == 3))
    if head == "bubble":
        n = _int(tail, main)
        return build_generating_graph(n, [(k, k + 1) for k in range(1, n)])
    if head == "star":
        n = _int(tail, main)
        return build_generating_graph(n, [(1, k) for k in range(2, n + 1)])
    if head == "ug":
        nstr, sep, copt = tail.partition(":")
        if not sep or not copt.startswith("c="):
            raise SpecError("ug specs look like ug:<n>:c=<cycle length>")
        n = _int(nstr, main)
        c = _int(copt[2:], copt)
        if not 3 <= c <= n:
            raise SpecError(f"cycle length {c} must lie in 3..n")
        pairs = [(k, k + 1) for k in range(1, c)] + [(1, c)]
        pairs += [(k, k + 1) for k in range(c, n)]
        return build_generating_graph(n, pairs)
    raise SpecError(f"unknown spec kind '{head}'")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise SpecError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _build(args) -> CayleyGraph:
    return build_cayley(parse_spec(args.spec))


def _workers(args) -> int:
    """resolve_workers, with a --workers below 1 reported as a spec error."""
    from .cuts import resolve_workers

    if args.workers is not None and args.workers < 1:
        raise SpecError("--workers must be >= 1")
    return resolve_workers(args.workers)


def cmd_gen(args) -> int:
    G = _build(args)
    if args.format == "dot":
        _emit(to_dot(G), args.out)
    elif args.format == "graph6":
        _emit(to_graph6(G) + "\n", args.out)
    else:
        _emit(to_edgelist(G), args.out)
    return 0


def cmd_info(args) -> int:
    G = _build(args)
    lines = [
        describe(G.gen),
        f"order={G.order}",
        f"degree={G.degree}",
    ]
    if G.peel is not None:
        anchors = ",".join(str(a) for a in G.peel.anchors)
        lines.append(f"peel={G.peel.position} anchors={anchors}")
    g = girth(G)
    lines.append(f"girth={g if g is not None else 'none'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_connectivity(args) -> int:
    G = _build(args)
    res = vertex_connectivity_detail(G)
    line = f"kappa={res.value}"
    if res.complete:
        line += " complete-graph-convention"
    if res.cut is not None:
        line += " cut=" + ",".join(G.perm_str(v) for v in res.cut)
    _emit(line + "\n", args.out)
    return 0


def cmd_cut_search(args) -> int:
    from .cuts import (
        RANDOM_TRIALS,
        min_cyclic_cut_exhaustive,
        min_good_neighbor_cut_exhaustive,
        randomized_cut_falsifier,
        render_witness,
    )

    if args.seed < 0:
        raise SpecError("--seed must be >= 0")
    G = _build(args)
    workers = _workers(args)
    kind = args.kind
    if kind == "cyclic":
        good = None
    elif kind.startswith("good-neighbor:"):
        good = _int(kind.split(":", 1)[1], kind)
        if good < 0:
            raise SpecError("good-neighbor order must be >= 0")
    else:
        raise SpecError(f"cut kind '{kind}' (want cyclic or good-neighbor:<g>)")
    if not 0 <= args.max_size <= G.order:
        raise SpecError(f"--max-size must lie in 0..{G.order}")
    if args.mode == "exhaustive":
        if good is None:
            witness = min_cyclic_cut_exhaustive(G, args.max_size)
        else:
            witness = min_good_neighbor_cut_exhaustive(G, good, args.max_size)
    else:
        if good is not None:
            raise SpecError("random mode searches cyclic cuts only")
        witness = randomized_cut_falsifier(
            G, args.max_size, RANDOM_TRIALS, seed=args.seed, workers=workers
        )
    if witness is None:
        _emit("none\n", args.out)
    else:
        _emit(render_witness(G, witness), args.out)
    return 0


def cmd_verify(args) -> int:
    import json

    from .lemmas import select_checks, verify_all

    G = _build(args)
    if args.corrupt:
        G = with_redirected_cross_edge(G)
    checks = None
    if args.checks and args.checks != ["all"]:
        checks = []
        for tok in args.checks:
            checks.extend(c for c in tok.split(",") if c)
    workers = _workers(args)
    try:
        select_checks(checks, args.seed, args.budget)
    except ValueError as exc:  # bad check selection, seed or budget
        raise SpecError(str(exc)) from None
    t0 = time.perf_counter()
    report = verify_all(
        G, workers=workers, seed=args.seed, budget=args.budget, checks=checks
    )
    if args.format == "text":
        _emit(report.text_table(), args.out)
    else:
        body = json.dumps(report.to_jsonable(with_timing=False), indent=2, sort_keys=True)
        _emit(body + "\n", args.out)
    elapsed = time.perf_counter() - t0
    failing = report.failures()
    print(
        f"verify: {'FAIL' if failing else 'PASS'} in {elapsed:.1f}s"
        + (f" (failing: {', '.join(failing)})" if failing else ""),
        file=sys.stderr,
    )
    return 1 if failing else 0


#: the fields ``report`` prints from each saved check, with their types
_REPORT_FIELDS = {"id": str, "verdict": str, "scope": str, "gating": bool}


def cmd_report(args) -> int:
    import json

    from .lemmas import FAIL, PROVED, SAMPLED, SKIPPED, gating_failures, render_report

    try:
        data = json.loads(Path(args.file).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read report file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"report file is not valid JSON: {exc}") from exc
    graph = data.get("graph") if isinstance(data, dict) else None
    if not isinstance(graph, dict) or not isinstance(graph.get("descriptor"), str):
        raise SpecError("report file lacks a graph with a descriptor")
    checks = data.get("checks")
    if not isinstance(checks, list) or not all(
        isinstance(c, dict)
        and all(isinstance(c.get(k), t) for k, t in _REPORT_FIELDS.items())
        for c in checks
    ):
        raise SpecError(
            "report checks must be a list of objects with string id, verdict "
            "and scope and bool gating"
        )
    verdicts = (PROVED, SAMPLED, FAIL, SKIPPED)
    for c in checks:
        if c["verdict"] not in verdicts:
            raise SpecError(
                f"report verdict {c['verdict']!r} is none of {', '.join(verdicts)}"
            )
    _emit(render_report(data), args.out)
    return 1 if gating_failures(checks) else 0


def build_parser():
    """The ``ugconn`` argument parser, an ``argparse.ArgumentParser``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ugconn",
        description="Cayley graph connectivity workbench for unicyclic "
        "transposition generators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--spec",
            nargs="+",
            required=True,
            help="topology spec, e.g. mb:4 | ug:5:c=4 | edges:1-2,2-3 n=3",
        )
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("gen", help="export the Cayley graph")
    common(p)
    p.add_argument(
        "--format", default="dot", choices=["dot", "graph6", "edgelist"]
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("info", help="summarize the graph")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("connectivity", help="exact vertex connectivity")
    common(p)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("cut-search", help="search for a small cut")
    common(p)
    p.add_argument("--kind", default="cyclic", help="cyclic or good-neighbor:<g>")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "random"])
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --mode random (default: the CPU count)",
    )
    p.add_argument("--seed", type=int, default=0, help="trial seed for --mode random")
    p.set_defaults(func=cmd_cut_search)

    p = sub.add_parser("verify", help="run the structural check suite")
    common(p)
    p.add_argument(
        "--checks",
        nargs="+",
        default=["all"],
        help="check ids (space or comma separated), or 'all'; an unknown id "
        "lists the known ones",
    )
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the falsifier and the p1 sampler "
        "(default: the CPU count)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget",
        type=float,
        default=600.0,
        help="seconds of fixed per-check prices, not wall time; a check priced "
        "above what is left is SKIPPED",
    )
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="redirect one cross edge first (negative control; must fail)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="render a saved JSON report as text")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (SpecError, GeneratingGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
