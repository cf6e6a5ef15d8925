"""Executable structural checks with honest exhaustive/sampled verdicts.

Each check answers one concrete question about a built Cayley graph and
reports PROVED-EXHAUSTIVE, SUPPORTED-SAMPLED, FAIL, or SKIPPED.  A failing
check always carries a counterexample in permutation strings so it can be
re-checked by hand.  Checks whose claim is stated only for the cycle
generator still run on other unicyclic graphs, but in exploratory mode:
their verdict is recorded and does not gate the run.

Reports are deterministic: same graph, seed, and budget give the same
body regardless of worker count, because all parallel work merges by
lexicographic rules and budget skipping uses fixed cost estimates rather
than measured time.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from functools import cached_property
from typing import NamedTuple

from . import __version__ as TOOL_VERSION
from .cayley import CayleyGraph, _anchors, out_neighbors
from .cuts import (
    RANDOM_TRIALS,
    CutWitness,
    _make_witness,
    build_cycle_neighborhood_cut,
    component_analysis,
    disconnection_census,
    enumerate_4cycles,
    large_component_profile,
    min_cyclic_cut_exhaustive,
    min_neighborhood_over_4subsets,
    randomized_cut_falsifier,
    resolve_workers,
    sampled_residual_check,
    verify_connected_under_removal,
    vertex_boundary,
)
from .flows import (
    FLOW_ORDER_LIMIT,
    edge_separation_connectivity,
    vertex_connectivity_detail,
)
from .genset import CYCLE, PATH, STAR, UNICYCLIC_TF, GeneratingGraphError, describe
from .perms import CapacityError, Perm

SCHEMA = 1

PROVED = "PROVED-EXHAUSTIVE"
SAMPLED = "SUPPORTED-SAMPLED"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

#: sampled probes size themselves by graph order so runs stay deterministic
def _sampled_trials(order: int) -> int:
    return 100_000 if order <= 720 else 20_000


class CheckRecord(NamedTuple):
    check_id: str
    verdict: str
    gating: bool  # exploratory checks never gate the run outcome
    scope: str
    detail: dict
    millis: float = 0.0

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL


class CheckContext:
    """The graph and run settings every check reads, with the shared work memoised."""

    def __init__(self, G: CayleyGraph, workers: int, seed: int):
        self.G = G
        self.workers = workers
        self.seed = seed

    @cached_property
    def census(self):
        """Disconnection census up to size 7, computed once for the three n=4 checks."""
        return disconnection_census(self.G, 7)

    @cached_property
    def four_cycle_cut(self):
        """N(C4) as (cycle, missing edges, fault, analysis), built once per run.

        C4 is ``canonical_four_cycle``.  It comes from the permutations, so a
        corrupted copy can lack an edge; then fault and analysis are None.
        Otherwise fault is N(C4) minus C4 and analysis is its one
        ``component_analysis``.
        """
        G = self.G
        cyc = canonical_four_cycle(G)
        missing = [
            (u, v)
            for u, v in zip(cyc, cyc[1:] + cyc[:1])
            if not G.adjacent(u, v)
        ]
        fault = analysis = None
        if not missing:
            fault = build_cycle_neighborhood_cut(G, cyc)
            analysis = component_analysis(G, fault)
        return cyc, missing, fault, analysis

    def perm_strs(self, vertices) -> list[str]:
        return [self.G.perm_str(v) for v in vertices]


def _skip(reason: str) -> tuple:
    return SKIPPED, False, reason, {}


def _done(ok: bool, sampled: bool, gating: bool, scope: str, detail: dict) -> tuple:
    """The outcome (verdict, gating, scope, detail); ``verify_all`` adds id, time."""
    return (SAMPLED if sampled else PROVED) if ok else FAIL, gating, scope, detail


def _unicyclic(G: CayleyGraph) -> bool:
    return G.gen.cls in (CYCLE, UNICYCLIC_TF)


def _via_vertex_0(G: CayleyGraph, through: int) -> str:
    """Scope suffix of a scan that covered its family by the members through 0."""
    if not G.transitive:
        return ""
    return f", via the {through} that contain vertex 0 (vertex-transitive)"


def _sets_through_0(G: CayleyGraph, top: int) -> int:
    return sum(math.comb(G.order - 1, k - 1) for k in range(1, top + 1))


# ---------------------------------------------------------------------------
# the scans the checks read


class CrossEdgeSet(NamedTuple):
    i: int
    j: int
    edges: tuple[tuple[int, int], ...]  # (u in block i, v in block j)

    def count(self) -> int:
        return len(self.edges)


def cross_edges(G: CayleyGraph, i: int, j: int) -> CrossEdgeSet:
    """All edges joining block i to block j."""
    if i == j:
        raise ValueError("cross edges need two distinct blocks")
    if G.block_of is None:
        raise GeneratingGraphError("graph was built without a block decomposition")
    if not (1 <= i <= G.n and 1 <= j <= G.n):
        raise ValueError(f"block index out of range 1..{G.n}")
    block_of = G.block_of
    found = []
    for u in range(G.order):
        if block_of[u] != i:
            continue
        for v in G.neighbors[u]:
            if block_of[v] == j:
                found.append((u, v))
    return CrossEdgeSet(i=i, j=j, edges=tuple(sorted(found)))


def edge_label(G: CayleyGraph, u: int, v: int) -> tuple[int, int]:
    """Generator (k,l) carrying the edge uv, as 1-based positions."""
    pu, pv = G.perms[u], G.perms[v]
    diff = [i for i in range(G.n) if pu[i] != pv[i]]
    if len(diff) != 2 or pu[diff[0]] != pv[diff[1]] or pu[diff[1]] != pv[diff[0]]:
        raise ValueError(f"vertices {u} and {v} do not differ by one transposition")
    return (diff[0] + 1, diff[1] + 1)


def canonical_four_cycle(G: CayleyGraph) -> tuple[int, int, int, int]:
    """A fixed 4-cycle through the identity, for deterministic witnesses.

    Uses the lexicographically first pair of generators with disjoint
    supports; two such swaps commute, which closes the cycle.
    """
    gens = sorted(G.gen.edges)
    for x in range(len(gens)):
        for y in range(x + 1, len(gens)):
            (k1, l1), (k2, l2) = gens[x], gens[y]
            if {k1, l1} & {k2, l2}:
                continue
            p0 = G.perms[0]
            p1 = _swapped(p0, k1, l1)
            p2 = _swapped(p1, k2, l2)
            p3 = _swapped(p0, k2, l2)
            v1, v2, v3 = G.vertex(p1), G.vertex(p2), G.vertex(p3)
            b, d = min(v1, v3), max(v1, v3)
            return (0, b, v2, d)
    raise GeneratingGraphError("no two generators have disjoint supports")


def _swapped(p: Perm, k: int, l: int) -> Perm:
    lst = list(p)
    lst[k - 1], lst[l - 1] = lst[l - 1], lst[k - 1]
    return tuple(lst)


def _cn_row(neighbors, u: int) -> Counter:
    """cn(u, v) for every v != u with a common neighbor, all of which lie in N(N(u))."""
    row = Counter(v for w in neighbors[u] for v in neighbors[w])
    del row[u]
    return row


def find_edge_cn_violation(g) -> tuple[int, int, int] | None:
    """First (p, q, s) with pq an edge and s sharing neighbors with both.

    Returns None when for every edge pq and outside vertex s at least one
    of cn(s,p), cn(s,q) is zero.  p runs over ``_anchors``.
    """
    neighbors = g.neighbors
    for p in _anchors(g):
        near_p = _cn_row(neighbors, p).keys()
        for q in neighbors[p]:
            if q <= p:
                continue
            both = near_p & _cn_row(neighbors, q).keys()
            if both:
                return (p, q, min(both))
    return None


def find_cn_triple_violation(g) -> tuple[int, int, int] | None:
    """First triple (u, v, w) with cn(u,v)=2, cn(v,w)=2 and cn(u,w) >= 1.

    v is the middle vertex of both cn=2 pairs, u < w, and v is an anchor.
    """
    neighbors = g.neighbors
    for v in _anchors(g):
        ps = sorted(u for u, c in _cn_row(neighbors, v).items() if c == 2)
        for i, u in enumerate(ps):
            near_u = _cn_row(neighbors, u)
            for w in ps[i + 1 :]:
                if w in near_u:
                    return (u, v, w)
    return None


def max_common_neighbors(g) -> tuple[int, tuple[int, int]]:
    """Max cn over vertex pairs and the first pair attaining it, via ``_anchors``.

    Pairs run in order (u, v), u an anchor and v > u; a pair without a
    common neighbor has cn 0, and (u, u + 1) is the first of u's pairs.
    """
    best = -1
    arg = (0, 1)
    for u in _anchors(g):
        if u + 1 == g.order:
            continue
        row = {v: c for v, c in _cn_row(g.neighbors, u).items() if v > u}
        c = max(row.values(), default=0)
        if c > best:
            best = c
            arg = (u, min((v for v in row if row[v] == c), default=u + 1))
    return best, arg


def common_neighbor_count(g, u: int, v: int) -> int:
    """|N(u) ∩ N(v)| for distinct vertices."""
    if u == v:
        raise ValueError("common neighbors of a vertex with itself are undefined")
    return len(set(g.neighbors[u]).intersection(g.neighbors[v]))


# ---------------------------------------------------------------------------
# the checks


def check_cn_bound(ctx: CheckContext) -> tuple:
    """No two vertices share more than 2 common neighbors."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    best, pair = max_common_neighbors(G)
    pairs = G.order * (G.order - 1) // 2
    return _done(
        ok=best <= 2,
        sampled=False,
        gating=True,
        scope=f"exhaustive over all {pairs} vertex pairs"
        f"{_via_vertex_0(G, G.order - 1)}",
        detail={"max_cn": best, "attained_by": ctx.perm_strs(pair)},
    )


def check_connectivity_value(ctx: CheckContext) -> tuple:
    """kappa matches the known value for the graph's family."""
    G = ctx.G
    expected = {CYCLE: G.n, UNICYCLIC_TF: G.n, PATH: G.n - 1, STAR: G.n - 1}.get(
        G.gen.cls
    )
    if expected is None:
        return _skip("no stated connectivity value for this class")
    res = vertex_connectivity_detail(G)
    detail = {
        "kappa": res.value,
        "expected": expected,
        "complete_graph_convention": res.complete,
        "flows": res.flows,
    }
    if res.cut is not None:
        detail["minimum_cut"] = ctx.perm_strs(res.cut)
    if res.complete:
        scope = f"complete graph on {G.order} vertices: kappa = |V|-1 by convention"
    else:
        sources = (
            "source fixed by vertex-transitivity, sinks at distance 2 from it, "
            "one per orbit of the conjugations by Aut(T) and inversion"
            if G.transitive
            else "sources up to kappa (not vertex-transitive)"
        )
        scope = f"Menger via vertex-disjoint paths, {sources}"
    return _done(
        ok=res.value == expected,
        sampled=False,
        gating=True,
        scope=scope,
        detail=detail,
    )


def check_cross_edge_count(ctx: CheckContext) -> tuple:
    """Every pair of distinct blocks is joined by the same stated edge count."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("needs the block decomposition of the unicyclic family")
    expected = (2 if G.gen.cls == CYCLE else 1) * math.factorial(G.n - 2)
    bad = None
    pairs = 0
    for i in range(1, G.n + 1):
        for j in range(i + 1, G.n + 1):
            pairs += 1
            got = cross_edges(G, i, j).count()
            if got != expected and bad is None:
                bad = {"blocks": [i, j], "count": got}
    return _done(
        ok=bad is None,
        sampled=False,
        gating=True,
        scope=f"all {pairs} block pairs, peel position {G.peel.position}",
        detail={"expected_per_pair": expected, "violation": bad},
    )


def check_out_neighbor_disjoint(ctx: CheckContext) -> tuple:
    """Out-neighbor sets of distinct vertices in a block never intersect."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("needs the block decomposition of the unicyclic family")
    gating = G.gen.cls == CYCLE
    owner: dict[int, int] = {}
    bad = None
    scanned = 0
    for u in range(G.order):
        for w in out_neighbors(G, u):
            scanned += 1
            key = (G.block_of[u], w)
            prev = owner.get(key)
            if prev is not None:
                bad = {
                    "vertices": ctx.perm_strs((prev, u)),
                    "shared_out_neighbor": G.perm_str(w),
                }
                break
            owner[key] = u
        if bad:
            break
    scope = f"all {scanned} out-neighbor slots across {G.n} blocks"
    if not gating:
        scope += "; exploratory (stated for the cycle generator)"
    return _done(bad is None, False, gating, scope, {"violation": bad})


def check_out_neighbor_escape(ctx: CheckContext) -> tuple:
    """Every vertex of blocks 1-2 has an out-neighbor beyond block 2."""
    G = ctx.G
    if not _unicyclic(G) or G.n < 4:
        return _skip("stated for the unicyclic family with n >= 4")
    gating = G.gen.cls == CYCLE
    bad = None
    scanned = 0
    for u in range(G.order):
        if G.block_of[u] not in (1, 2):
            continue
        scanned += 1
        outs = out_neighbors(G, u)
        if not any(G.block_of[w] >= 3 for w in outs):
            bad = {
                "vertex": G.perm_str(u),
                "out_neighbors": ctx.perm_strs(outs),
                "their_blocks": [G.block_of[w] for w in outs],
            }
            break
    scope = f"all {scanned} vertices of blocks 1 and 2"
    if not gating:
        scope += "; exploratory (stated for the cycle generator)"
    return _done(bad is None, False, gating, scope, {"violation": bad})


def check_adjacent_pair_cn(ctx: CheckContext) -> tuple:
    """For each edge pq, no third vertex shares neighbors with both ends."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    gating = G.gen.cls == CYCLE
    hit = find_edge_cn_violation(G)
    detail = {}
    if hit is not None:
        p, q, s = hit
        detail["violation"] = {"edge": ctx.perm_strs((p, q)), "third": G.perm_str(s)}
    scope = f"all {G.size} edges against all other vertices{_via_vertex_0(G, G.degree)}"
    if not gating:
        scope += "; exploratory (stated for the cycle generator)"
    return _done(hit is None, False, gating, scope, detail)


def check_cn_triple(ctx: CheckContext) -> tuple:
    """No triple has cn=2 on two sides and a shared neighbor on the third.

    This is the usable form of the forbidden nine-vertex configuration:
    u,v,w with cn(u,v) = cn(v,w) = 2 would force cn(u,w) = 0.  It gates at
    n=4 only: from n=5 on, the 4-cycles of two commuting generator pairs
    that share a generator break it (on mb5, 13254 and 21354 each have
    cn=2 with 12345 and share the neighbor 12354).
    """
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    gating = G.gen.cls == CYCLE and G.n == 4
    hit = find_cn_triple_violation(G)
    detail = {}
    if hit is not None:
        detail["violation"] = ctx.perm_strs(hit)
    scope = "all triples built from the pairwise cn=2 relation"
    if G.transitive:
        scope += ", via those whose middle vertex is 0 (vertex-transitive)"
    if G.gen.cls != CYCLE:
        scope += "; exploratory (stated for the cycle generator)"
    elif not gating:
        scope += (
            "; exploratory at n >= 5, where two pairs of disjoint generators "
            "can share a generator, e.g. {23,45} and {12,45}"
        )
    return _done(hit is None, False, gating, scope, detail)


def check_small_cut_isolation(ctx: CheckContext) -> tuple:
    """Cuts of size <= 5 in the n=4 cycle graph isolate a single vertex."""
    G = ctx.G
    if G.gen.cls != CYCLE or G.n != 4:
        return _skip("stated for the n=4 cycle generator only")
    census = ctx.census[:5]
    ok = True
    rows = []
    for entry in census:
        rows.append(
            {
                "size": entry.size,
                "subsets": entry.subsets,
                "disconnecting": entry.disconnecting,
                "isolating": entry.isolating,
                "neighborhood_faults": entry.neighborhood_faults,
            }
        )
        if entry.size < 4 and entry.disconnecting != 0:
            ok = False
        if entry.disconnecting != entry.isolating:
            ok = False
        if entry.size == 4 and entry.neighborhood_faults != entry.disconnecting:
            ok = False
    total = sum(e.subsets for e in census)
    return _done(
        ok=ok,
        sampled=False,
        gating=True,
        scope=f"exhaustive over all {total} fault sets of size <= 5"
        f"{_via_vertex_0(G, _sets_through_0(G, 5))}",
        detail={"per_size": rows},
    )


def check_large_component_bound(ctx: CheckContext) -> tuple:
    """Residual outside the largest component: <=2 up to |F|=6, <=3 at 7."""
    G = ctx.G
    if G.gen.cls != CYCLE or G.n != 4:
        return _skip("stated for the n=4 cycle generator only")
    census = ctx.census
    ok = True
    rows = []
    for entry in census:
        limit = 2 if entry.size <= 6 else 3
        rows.append(
            {
                "size": entry.size,
                "disconnecting": entry.disconnecting,
                "max_residual": entry.max_residual,
                "limit": limit,
                "worst_fault": ctx.perm_strs(entry.worst_fault)
                if entry.worst_fault
                else None,
            }
        )
        if entry.max_residual > limit:
            ok = False
    total = sum(e.subsets for e in census)
    return _done(
        ok=ok,
        sampled=False,
        gating=True,
        scope=f"exhaustive over all {total} fault sets of size <= 7"
        f"{_via_vertex_0(G, _sets_through_0(G, 7))}",
        detail={"per_size": rows},
    )


def check_four_subset_neighborhood(ctx: CheckContext) -> tuple:
    """Minimum |N(S)| over 4-element S: 4n-8 at n=4,5 and 4n-9 at n=6."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    n = G.n
    if not 4 <= n <= 6:
        return _skip("four-subset scan defined for n in 4..6")
    gating = G.gen.cls == CYCLE
    value, witness, scanned = min_neighborhood_over_4subsets(G)
    expected = 4 * n - 8 if n <= 5 else 4 * n - 9
    ok = value == expected if gating else value >= 4 * n - 9
    scope = f"exhaustive over all {math.comb(G.order, 4)} four-subsets"
    scope += _via_vertex_0(G, scanned)
    if not gating:
        scope += "; exploratory (sharp value stated for the cycle generator)"
    return _done(
        ok,
        sampled=False,
        gating=gating,
        scope=scope,
        detail={
            "min": value,
            "expected": expected,
            "witness": ctx.perm_strs(witness),
            "scanned": scanned,
        },
    )


def check_residue_bound_p1(ctx: CheckContext) -> tuple:
    """Fault sets up to size n-1 never disconnect the graph."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    max_f = G.n - 1
    if G.order <= 120:
        sweep = verify_connected_under_removal(G, max_f)
        covered = sum(math.comb(G.order, k) for k in range(1, max_f + 1))
        detail = {"covered_fault_sets": covered, "scanned": sweep.removals}
        if sweep.counterexample is not None:
            detail["counterexample"] = ctx.perm_strs(sweep.counterexample)
        return _done(
            ok=sweep.ok,
            sampled=False,
            gating=True,
            scope=f"vertex-cut search over all {covered} fault sets of size "
            f"<= {max_f}{_via_vertex_0(G, _sets_through_0(G, max_f))}",
            detail=detail,
        )
    res = sampled_residual_check(
        G,
        max_size=max_f,
        trials=_sampled_trials(G.order),
        seed=ctx.seed,
        workers=ctx.workers,
    )
    detail = {
        "trials": res.trials,
        "templates": res.templates,
        "seed": res.seed,
        "violations": res.violations,
    }
    if res.counterexample is not None:
        detail["counterexample"] = ctx.perm_strs(res.counterexample)
    return _done(
        ok=res.ok,
        sampled=True,
        gating=True,
        scope=f"sampled fault sets of size <= {max_f}",
        detail=detail,
    )


def check_residue_bound_p2(ctx: CheckContext) -> tuple:
    """Fault sets up to size 2n-3 strand at most one vertex.

    A fault F that leaves two or more vertices outside the largest
    component either leaves a smaller component with an edge, and the
    largest has one too, so F separates two edges and |F| >= kappa_1; or it
    strands two vertices u, v alone, so F holds the union of N(u) and N(v),
    which has 2*degree - cn(u, v) >= 2*degree - max_cn vertices.  A minimum cut of
    either kind strands two vertices, so the bound holds exactly when
    min(kappa_1, 2*degree - max_cn) > 2n-3.
    """
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    max_f = 2 * G.n - 3
    sep = edge_separation_connectivity(G)
    max_cn, pair = max_common_neighbors(G)
    stranding = 2 * G.degree - max_cn
    detail = {
        "edge_separation": sep.value,
        "max_cn": max_cn,
        "degree": G.degree,
        "bound": max_f,
        "flows": sep.flows,
        "minimum_cut": ctx.perm_strs(sep.cut),
    }
    ok = min(sep.value, stranding) > max_f
    firsts = (
        "first edges at vertex 0, one per Aut(T) conjugation orbit; second edges "
        "through a vertex at distance 2 from 0"
        if G.transitive
        else "first edges from a matching, not vertex-transitive"
    )
    if not ok:
        if sep.value <= stranding:
            fault = sep.cut
            role = {"separated_edges": [ctx.perm_strs(e) for e in sep.edges]}
        else:
            fault = vertex_boundary(G, pair)
            role = {"stranded_vertices": ctx.perm_strs(pair)}
        detail["counterexample"] = {
            "fault": ctx.perm_strs(fault),
            "residual": large_component_profile(G, fault)[1],
            **role,
        }
    return _done(
        ok=ok,
        sampled=False,
        gating=True,
        scope=f"all fault sets of size <= {max_f}, via kappa_1 from {sep.flows} "
        f"edge-separation flows ({firsts}) and the largest common-neighbor count",
        detail=detail,
    )


def check_four_cycle_labels(ctx: CheckContext) -> tuple:
    """Every 4-cycle alternates two generators with disjoint supports."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("stated for the unicyclic family only")
    cycles = enumerate_4cycles(G)
    bad = None
    for cyc in cycles:
        a, b, c, d = cyc
        labels = [
            edge_label(G, a, b),
            edge_label(G, b, c),
            edge_label(G, c, d),
            edge_label(G, d, a),
        ]
        alternating = labels[0] == labels[2] and labels[1] == labels[3]
        disjoint = not (set(labels[0]) & set(labels[1]))
        if not (alternating and disjoint):
            bad = {"cycle": ctx.perm_strs(cyc), "labels": labels}
            break
    return _done(
        ok=bad is None,
        sampled=False,
        gating=True,
        scope=f"all {len(cycles)} four-cycles",
        detail={"four_cycles": len(cycles), "violation": bad},
    )


def check_block_boundary_degree(ctx: CheckContext) -> tuple:
    """Within-block edges of blocks 1..3: an endpoint has one block-4 neighbor."""
    G = ctx.G
    if G.gen.cls != CYCLE or G.n != 4:
        return _skip("stated for the n=4 cycle generator only")
    last = set(G.block_members(4))
    bad = None
    edge_counts: dict[str, int] = {}
    scanned = 0
    for u in range(G.order):
        bu = G.block_of[u]
        if bu == 4:
            continue
        cu = sum(1 for w in G.neighbors[u] if w in last)
        for v in G.neighbors[u]:
            # the claim covers edges inside one block, not cross edges
            if v <= u or G.block_of[v] != bu:
                continue
            scanned += 1
            key = str(bu)
            edge_counts[key] = edge_counts.get(key, 0) + 1
            cv = sum(1 for w in G.neighbors[v] if w in last)
            if cu != 1 and cv != 1 and bad is None:
                bad = {
                    "edge": ctx.perm_strs((u, v)),
                    "block4_degrees": [cu, cv],
                }
    return _done(
        ok=bad is None,
        sampled=False,
        gating=True,
        scope=f"all {scanned} within-block edges of blocks 1..3",
        detail={"edges_by_block": edge_counts, "violation": bad},
    )


def check_cyclic_cut_exact(ctx: CheckContext) -> tuple:
    """n=4: no cyclic cut of size 7, and one of size 8.

    The census (``ctx.census``) sweeps every set of size up to 7 and
    records the least cyclic cut of each size.  When it records one, that
    cut, verified, is the witness of a cyclic connectivity below 8, and no
    search runs.  When it records none, kappa_c >= 8: on a graph from
    ``build_cayley`` it sweeps the sets through vertex 0, and since left
    translations are automorphisms, every set translates to one through
    vertex 0 and every cyclic cut to a cyclic cut of the same size; on any
    other graph it sweeps every set.  N(C4) (``ctx.four_cycle_cut``), when
    it is a cyclic cut of 8 vertices, then gives kappa_c <= 8.  In both
    cases ``scanned`` counts the census's sets.

    Where neither settles the value (the cycle lacks an edge, or N(C4) is
    no cyclic cut of size 8), the search runs from size 1 up to size 8 and
    stops at the first cyclic cut, which is the least minimum one.
    """
    G = ctx.G
    if G.gen.cls != CYCLE or G.n != 4:
        return _skip("exhaustive cut search feasible at n=4 only")
    census = ctx.census
    small = next((e for e in census if e.cyclic_cut is not None), None)
    covered = sum(math.comb(G.order, k) for k in range(1, 8))
    through_0 = _sets_through_0(G, 7)
    scope = (
        f"exhaustive over all {covered} fault sets of size <= 7"
        f"{_via_vertex_0(G, through_0)}"
    )
    swept = through_0 if G.transitive else covered
    _, missing, fault, analysis = ctx.four_cycle_cut
    if small is not None:
        witness = _make_witness(G, small.cyclic_cut, "cyclic-cut", swept)
        scope += f", least cyclic cut at size {small.size}"
    elif not missing and len(fault) == 8 and analysis.cyclic_component_count() >= 2:
        witness = CutWitness("cyclic-cut", fault, analysis, swept)
        scope += ", then the 4-cycle neighborhood, a verified cyclic cut of size 8"
    else:
        witness = min_cyclic_cut_exhaustive(G, 8)
        scope += ", then size 8"
    ok = witness is not None and witness.size == 8
    detail = {
        "cyclic_connectivity": witness.size if witness is not None else None,
        "expected": 4 * G.n - 8,
    }
    if witness is not None and witness.size < 8:
        detail["unexpected_small_cut"] = ctx.perm_strs(witness.fault)
    if witness is not None:
        detail["witness"] = ctx.perm_strs(witness.fault)
        detail["witness_components"] = [
            c.vertices for c in witness.analysis.components
        ]
        detail["scanned"] = witness.scanned
    return _done(ok=ok, sampled=False, gating=True, scope=scope, detail=detail)


def check_cyclic_cut_upper(ctx: CheckContext) -> tuple:
    """The 4-cycle neighborhood is a verified cyclic cut of size 4n-8."""
    G = ctx.G
    if not _unicyclic(G):
        return _skip("construction defined for the unicyclic family")
    cyc, missing, fault, analysis = ctx.four_cycle_cut
    expected = 4 * G.n - 8
    scope = "constructed witness, exactly verified"
    if missing:
        detail = {
            "expected": expected,
            "cycle": ctx.perm_strs(cyc),
            "missing_edges": [ctx.perm_strs(e) for e in missing],
        }
        return _done(False, False, True, scope, detail)
    cyclic = analysis.cyclic_component_count() >= 2
    return _done(
        ok=len(fault) == expected and cyclic,
        sampled=False,
        gating=True,
        scope=scope,
        detail={
            "size": len(fault),
            "expected": expected,
            "is_cyclic_cut": cyclic,
            "cycle": ctx.perm_strs(cyc),
            "fault": ctx.perm_strs(fault),
            "largest_component": analysis.largest(),
            "residual": analysis.residual(),
        },
    )


def check_cyclic_cut_falsify(ctx: CheckContext) -> tuple:
    """Randomized hunt for a cyclic cut below 4n-8 at n=5; none must appear."""
    G = ctx.G
    if not _unicyclic(G) or G.n != 5:
        return _skip("falsification run targets n=5")
    target = 4 * G.n - 9
    trials = RANDOM_TRIALS
    witness = randomized_cut_falsifier(
        G, target, trials, seed=ctx.seed, workers=ctx.workers
    )
    detail = {"target": target, "trials": trials, "seed": ctx.seed}
    if witness is not None:
        trials = detail["trials"] = witness.scanned  # the run ended at the hit
        detail["counterexample"] = ctx.perm_strs(witness.fault)
    return _done(
        ok=witness is None,
        sampled=True,  # a pass is evidence, never proof
        gating=True,
        scope=f"{trials} seeded randomized trials at target {target}",
        detail=detail,
    )


# ---------------------------------------------------------------------------
# report assembly

CHECKS = (
    ("common-neighbor-bound", check_cn_bound),
    ("connectivity-value", check_connectivity_value),
    ("cross-edge-count", check_cross_edge_count),
    ("out-neighbor-disjoint", check_out_neighbor_disjoint),
    ("out-neighbor-escape", check_out_neighbor_escape),
    ("adjacent-pair-common-neighbor", check_adjacent_pair_cn),
    ("common-neighbor-triple", check_cn_triple),
    ("small-cut-isolation", check_small_cut_isolation),
    ("large-component-bound", check_large_component_bound),
    ("four-subset-neighborhood", check_four_subset_neighborhood),
    ("residue-bound-p1", check_residue_bound_p1),
    ("residue-bound-p2", check_residue_bound_p2),
    ("four-cycle-labels", check_four_cycle_labels),
    ("block-boundary-degree", check_block_boundary_degree),
    ("cyclic-cut-exact", check_cyclic_cut_exact),
    ("cyclic-cut-upper", check_cyclic_cut_upper),
    ("cyclic-cut-falsify", check_cyclic_cut_falsify),
)

CHECK_IDS = tuple(cid for cid, _ in CHECKS)


#: seconds of the checks that run dearer on a graph without the vertex-0
#: symmetry, by n (one worker, 2-CPU host, the ``--corrupt`` copies of mb:4,
#: ug:5:c=4, mb:5, mb:6 and ug:6:c=4); an n without a row keeps the
#: ``_SECONDS`` price.
#: The two flow checks run the Even-family flows: kappa took 0.002, 0.09, 4.8
#: and 387 s at n=4..7, kappa_1 0.005, 0.6 and 48 s at n=4..6.  kappa_1 at
#: n=7 is not measured; 4000 s is the n=6 cost times the 80-fold growth of
#: kappa from n=6 to 7.  Above FLOW_ORDER_LIMIT both checks stop at once on
#: capacity, so they keep the vertex-transitive figures.  The four-subset
#: scan covers every 4-set: <= 0.1 s up to n=5, 26 s on mb:6 and 33-35 s on
#: ug:6:c=4; it is out of scope at n=7.
_ASYMMETRIC_SECONDS = {
    "connectivity-value": {4: 0.5, 5: 0.5, 6: 5.0, 7: 400.0},
    "residue-bound-p2": {4: 0.1, 5: 1.0, 6: 50.0, 7: 4000.0},
    "four-subset-neighborhood": {6: 40.0},
}


#: fixed seconds per check for budget skipping, by n; a check without a row
#: costs 0.2 s.  Only checks measured dearer have a row (one worker, 2-CPU
#: host, mb:4..8, ug:5..8 and the ``--corrupt`` copies of mb:4..6; every
#: other check ran in <= 0.17 s on a vertex-transitive graph).
_SECONDS = {
    # the sampler: <= 0.31 s up to n=7, 2.3-2.4 s at n=8
    "residue-bound-p1": {4: 1.0, 5: 1.0, 6: 1.0, 7: 1.0, 8: 3.0},
    # <= 0.3 s at n=6, up to 3.0 s at n=7, 3.9 s on mb:8 and 14-16 s on
    # ug:8:c=4; test_cli pins the 25 s at n=8
    "residue-bound-p2": {4: 0.1, 5: 0.1, 6: 1.0, 7: 5.0, 8: 25.0},
    # <= 0.12 s up to n=7, 1.1-1.3 s at n=8
    "four-cycle-labels": {4: 1.0, 5: 1.0, 6: 1.0, 7: 1.0, 8: 2.0},
    # kept above 1.0: perfbench/test_perfbench.py skips this row at budget=1.0
    "cyclic-cut-exact": {4: 2.0, 5: 2.0, 6: 2.0, 7: 2.0, 8: 2.0},
    # 1.8-2.3 s at n=5
    "cyclic-cut-falsify": {4: 5.0, 5: 5.0, 6: 5.0, 7: 5.0, 8: 5.0},
}


def _estimate_seconds(check_id: str, G: CayleyGraph) -> float:
    """Fixed cost model for budget skipping; deliberately not wall time."""
    n = max(G.n, 4)
    asymmetric = _ASYMMETRIC_SECONDS.get(check_id, {})
    if not G.transitive and G.order <= FLOW_ORDER_LIMIT and n in asymmetric:
        return asymmetric[n]
    if check_id in _SECONDS:
        return _SECONDS[check_id][n]
    return 0.2


def gating_failures(checks: list[dict]) -> list[str]:
    """Ids of ``to_jsonable`` entries that FAIL and gate; a report passes with none."""
    return [c["id"] for c in checks if c["gating"] and c["verdict"] == FAIL]


class VerificationReport(NamedTuple):
    graph: dict
    seed: int
    budget: float
    checks: list[CheckRecord]

    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        return gating_failures(self.to_jsonable()["checks"])

    def to_jsonable(self, with_timing: bool = True) -> dict:
        checks = []
        for r in self.checks:
            entry = {
                "id": r.check_id,
                "verdict": r.verdict,
                "gating": r.gating,
                "scope": r.scope,
                "detail": r.detail,
            }
            if with_timing:
                entry["millis"] = round(r.millis, 3)
            checks.append(entry)
        return {
            "schema": SCHEMA,
            "version": TOOL_VERSION,
            "graph": self.graph,
            "seed": self.seed,
            "budget_seconds": self.budget,
            "passed": not gating_failures(checks),
            "checks": checks,
        }

    def body_bytes(self) -> bytes:
        """Canonical JSON without timings; byte-identical across worker counts."""
        return json.dumps(
            self.to_jsonable(with_timing=False),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()

    def text_table(self) -> str:
        return render_report(self.to_jsonable(with_timing=False))


def render_report(body: dict) -> str:
    """The text table of a report body as ``to_jsonable`` gives it."""
    checks = body["checks"]
    width = max((len(c["id"]) for c in checks), default=10)
    lines = [f"graph: {body['graph']['descriptor']}"]
    for c in checks:
        tag = "" if c["gating"] or c["verdict"] == SKIPPED else " [exploratory]"
        lines.append(f"{c['id']:<{width}}  {c['verdict']:<17}{tag}  {c['scope']}")
    verdict = "FAIL" if gating_failures(checks) else "PASS"
    ran = sum(1 for c in checks if c["verdict"] != SKIPPED)
    lines.append(f"{verdict}: {ran} checks run, {len(checks) - ran} skipped")
    return "\n".join(lines) + "\n"


def select_checks(checks=None, seed: int = 0, budget: float = 600.0) -> tuple:
    """The (id, check) pairs that ``verify_all`` runs for these arguments.

    checks None selects every check.  A negative seed, a budget that is
    not a finite number >= 0 (so not NaN or infinite, which JSON cannot
    hold), an unknown check id and an empty selection raise ValueError.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not 0 <= budget < math.inf:
        raise ValueError(f"budget must be a finite number >= 0, not {budget}")
    if checks is None:
        return CHECKS
    wanted = list(checks)
    unknown = [c for c in wanted if c not in CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid ids: {', '.join(CHECK_IDS)}")
    if not wanted:
        raise ValueError(f"no checks selected; valid ids: {', '.join(CHECK_IDS)}")
    return tuple((cid, fn) for cid, fn in CHECKS if cid in wanted)


def verify_all(
    G: CayleyGraph,
    workers: int | None = None,
    seed: int = 0,
    budget: float = 600.0,
    checks=None,
) -> VerificationReport:
    """Run the selected checks (default: all) under a cost-model budget.

    Every check id appears exactly once in the result; inapplicable or
    over-budget checks are reported as SKIPPED with the reason, and so is a
    check that raises CapacityError where it meets a resource limit (the
    scope is the error message; it spends no budget).  Bad
    arguments raise ValueError (``select_checks``).  workers sizes the
    pools of the falsifier and the p1 sampler, the only checks that fork;
    None means the CPU count (``resolve_workers``).
    """
    selected = select_checks(checks, seed, budget)
    ctx = CheckContext(G=G, workers=resolve_workers(workers), seed=seed)
    remaining = budget
    records = []
    for cid, fn in selected:
        est = _estimate_seconds(cid, G)
        millis = 0.0
        if est > remaining:
            outcome = _skip(f"estimated ~{est:.0f}s exceeds the remaining budget")
        else:
            t0 = time.perf_counter()
            try:
                outcome = fn(ctx)
            except CapacityError as exc:
                outcome = _skip(str(exc))
            millis = (time.perf_counter() - t0) * 1000.0
            if outcome[0] != SKIPPED:
                remaining -= est
        records.append(CheckRecord(cid, *outcome, millis=millis))
    graph = {
        "n": G.n,
        "class": G.gen.cls,
        "order": G.order,
        "degree": G.degree,
        "edges": ",".join(f"{a}-{b}" for a, b in G.gen.edges),
        "descriptor": describe(G.gen),
    }
    return VerificationReport(graph=graph, seed=seed, budget=budget, checks=records)
