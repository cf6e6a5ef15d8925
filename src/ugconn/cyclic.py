"""Cyclic vertex connectivity kappa_c, exactly, by a split into two cases.

A cyclic cut is a vertex set whose removal leaves two components that
carry cycles.  Take a least one, F.  Either some cyclic component of
G - F holds no 4-cycle of G (case b), or every cyclic component holds
one, and F separates two 4-cycles (case a).  Conversely, a set that
separates two 4-cycles leaves each of them whole in its own component,
so it is a cyclic cut; and a case-(b) component A of G - F has N(A) in
F, and N(A) is a cyclic cut too: A is a cyclic component of G - N(A),
and the other cyclic component of G - F lies in G - N[A].  So kappa_c is
the least of two numbers:

- (a) the least separation of two 4-cycles, by Menger flows
  (``_four_cycle_separation``);
- (b) the least N(A) over the connected, 4-cycle-free sets A that carry
  a cycle and leave one in G - N[A], by a branch-and-bound
  (``_four_cycle_free_side``) run only below the case-(a) value.

Loads on first use, as ``cuts`` does, so neither ``cut-search`` nor a
process that only builds graphs compiles it.
"""

from __future__ import annotations

from typing import NamedTuple

from .cayley import _anchors, conjugation_maps
from .cuts import (
    CutWitness,
    _components,
    _make_witness,
    _mask_members,
    enumerate_4cycles,
)
from .flows import EdgeSeparation, _even_plan, _min_separation


class CyclicConnectivity(NamedTuple):
    value: int  # the size of witness
    case: str  # "a": witness separates two 4-cycles; "b": a cyclic side holds none
    witness: CutWitness  # a least cyclic cut, verified by a component analysis
    flows: int  # the flows of case (a)
    nodes: int  # the search nodes of case (b)


def cyclic_connectivity(g) -> CyclicConnectivity:
    """kappa_c(g) by the split of the module docstring, with a verified witness.

    Case (b) runs at k = (the case-(a) value) - 1, so the answer is case
    (a) unless a strictly smaller case-(b) cut exists.  Raises
    CapacityError above the bitmask limit before any flow runs, and
    ValueError when a vertex lies on no 4-cycle (a star graph, say; the
    bounds of case (b) need one at every vertex) or no two 4-cycles can be
    separated.
    """
    g.masks  # CapacityError above the mask limit comes before any work
    cycles, through = _four_cycles(g)
    sep = _four_cycle_separation(g, cycles)
    if sep.value is None:
        raise ValueError("no two 4-cycles can be separated")
    side, nodes = _four_cycle_free_side(g, through, sep.value - 1)
    case, fault = ("a", sep.cut) if side is None else ("b", side)
    witness = _make_witness(g, fault, "cyclic-cut")
    return CyclicConnectivity(witness.size, case, witness, sep.flows, nodes)


def _four_cycles(g) -> tuple[list, list[list[int]]]:
    """(every 4-cycle, and by vertex the masks of the 4-cycles through it).

    Each vertex's list keeps the order of ``enumerate_4cycles``.  Raises
    ValueError if a vertex lies on no 4-cycle.
    """
    cycles = enumerate_4cycles(g)
    through: list[list[int]] = [[] for _ in range(g.order)]
    for q in cycles:
        mask = 1 << q[0] | 1 << q[1] | 1 << q[2] | 1 << q[3]
        for v in q:
            through[v].append(mask)
    bare = next((v for v, qs in enumerate(through) if not qs), None)
    if bare is not None:
        raise ValueError(f"vertex {bare} lies on no 4-cycle")
    return cycles, through


def _four_cycle_separation(g, cycles) -> EdgeSeparation:
    """Case (a): the least separation of two 4-cycles (``flows._min_separation``).

    On a graph from ``build_cayley`` the first units are the 4-cycles
    through vertex 0 that are least, as sorted vertex tuples, in their
    orbit under the conjugations, each planned against every 4-cycle.
    Some pair (U, W) attains the least separation.  A translation, an
    automorphism, puts a vertex of U at 0, and a conjugation, which fixes
    0 and maps 4-cycles onto 4-cycles (``conjugation_maps``), maps U onto
    its orbit's least member.  Both keep the separation, so the plan holds
    a pair that attains it.  On any other graph it is the Even plan over
    every 4-cycle (``_even_plan``).
    """
    if not g.transitive:
        return _min_separation(g, *_even_plan(g, cycles))
    first = [q for q in cycles if q[0] == 0]  # a 4-cycle lists its least vertex first
    vertices = sorted({v for q in first for v in q})
    at = {v: i for i, v in enumerate(vertices)}
    maps = conjugation_maps(g, vertices)
    least = [
        q
        for q in first
        if tuple(sorted(q)) == min(tuple(sorted(m[at[v]] for v in q)) for m in maps)
    ]
    return _min_separation(g, [(q, cycles) for q in least])


def _four_cycle_free_side(g, through, k: int) -> tuple[tuple[int, ...] | None, int]:
    """Case (b) up to k: (the least such N(A) of size <= k or None, nodes visited).

    The search grows connected sets A from an anchor (``_anchors``): vertex
    0 on a graph from ``build_cayley``, where a translation puts a vertex
    of any side at 0; every vertex otherwise, with the anchor A's least
    vertex.  X holds the vertices of N(A) that stay out of A.  A node
    branches on its least pending vertex of N(A): it joins A or goes to X.
    A 4-cycle with 3 vertices in A forces its 4th vertex into X, so A
    never holds a 4-cycle.  A node is pruned when

    - A would exceed 3k * max c4 / min c4 vertices, where c4 counts the
      4-cycles through a vertex: a 4-cycle that meets A has at most 3
      vertices in A and one in N(A), so it meets A in |A| min c4 pairs,
      at least |A| min c4 / 3 of them meet A, and at most k max c4 meet
      N(A);
    - |X| plus a greedy packing of pairwise disjoint remnants Q - A, over
      the 4-cycles Q that meet A and miss X, exceeds k: Q is connected and
      never inside the final A, so each remnant holds a vertex of the final
      N(A) outside X.

    A leaf (nothing pending) has N(A) = X, and keeps it when G[A], which
    is connected, has at least |A| edges and G - N[A] has a cyclic
    component (``cuts._components``).  Each kept cut lowers k to its size
    minus one.
    """
    masks = g.masks
    full = g.full_mask
    counts = [len(qs) for qs in through]
    most, least = max(counts), min(counts)
    best = None
    nodes = 0

    def grow(side, out, pending, size, below):  # A, X, N(A) - X, |A|, anchor bit - 1
        nonlocal best, k, nodes
        nodes += 1
        bound = out.bit_count()
        if bound > k:
            return
        used = 0
        rest = side
        while rest:  # the packing, by vertex of A, each 4-cycle at its least one
            b = rest & -rest
            rest ^= b
            for q in through[b.bit_length() - 1]:
                if q & out or q & side & (b - 1):
                    continue
                remnant = q & ~side
                if not remnant & used:
                    used |= remnant
                    bound += 1
                    if bound > k:
                        return
        if not pending:
            degrees = sum((masks[v] & side).bit_count() for v in _mask_members(side))
            if degrees >= 2 * size and any(
                cyclic for _, cyclic in _components(masks, full & ~(side | out))
            ):
                best = out
                k = out.bit_count() - 1
            return
        b = pending & -pending
        pending ^= b
        v = b.bit_length() - 1
        if size < 3 * k * most // least:
            grown = side | b
            shut = out | masks[v] & below  # no vertex below the anchor joins
            for q in through[v]:
                inside = q & grown
                if inside.bit_count() == 3:
                    shut |= q ^ inside
            grow(grown, shut, (pending | masks[v]) & ~grown & ~shut, size + 1, below)
        grow(side, out | b, pending, size, below)

    for a in _anchors(g):
        below = (1 << a) - 1
        grow(1 << a, masks[a] & below, masks[a] & ~below, 1, below)
    return (None if best is None else _mask_members(best)), nodes
