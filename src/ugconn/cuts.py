"""Fault sets, cut predicates, and the exhaustive/randomized cut searches.

Everything here is deterministic for a fixed seed: enumeration is by
subset size ascending and lexicographic within a size, in tasks of
lexicographically consecutive fault sets of one size, searches take the
first hit in task order, and merges pick the lexicographically least
candidate.  The exhaustive scans run in the calling process.  Only the
seeded trial blocks of the sampler and the falsifier may go to a fork
pool, and a block's draws depend on its seed and index alone, so a run
with 8 workers returns byte-identical results to a run with 1.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from bisect import bisect_right
from functools import partial
from typing import Iterator, NamedTuple

from .cayley import CayleyGraph, DenseGraph, _anchors
from .genset import describe

#: randomized procedures consume randomness in fixed-size trial blocks so
#: that results do not depend on how blocks land on workers
TRIAL_BLOCK = 4096

#: trials of every randomized cut hunt, in ``lemmas`` and the CLI; fixed for
#: reproducibility
RANDOM_TRIALS = 1_000_000

#: the fewest vertices of a cycle in a simple graph
CYCLE_VERTICES = 3

#: component member lists are reported only up to this size
MEMBER_LIMIT = 24


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: the argument, else the CPU count, capped at the CPU count.

    Pure-Python workers beyond the CPU count only add fork and pickling
    cost.  A count below 1 runs one worker.
    """
    cpus = os.cpu_count() or 1
    return max(1, min(cpus if workers is None else int(workers), cpus))


# ---------------------------------------------------------------------------
# component analysis


class ComponentInfo(NamedTuple):
    vertices: int
    edges: int
    contains_cycle: bool
    members: tuple[int, ...] | None  # listed only for small components


class CutAnalysis(NamedTuple):
    """Component profile of a graph minus a fault set."""

    component_count: int
    components: tuple[ComponentInfo, ...]  # ordered by smallest member
    largest_index: int

    def largest(self) -> int:
        if not self.components:
            return 0
        return self.components[self.largest_index].vertices

    def residual(self) -> int:
        return sum(c.vertices for c in self.components) - self.largest()

    def cyclic_component_count(self) -> int:
        return sum(1 for c in self.components if c.contains_cycle)


def _validate_fault(order: int, fault) -> list[int]:
    fs = sorted(set(int(v) for v in fault))
    if fs and (fs[0] < 0 or fs[-1] >= order):
        raise ValueError(f"fault vertex out of range [0, {order})")
    return fs


def component_analysis(dense: DenseGraph, fault) -> CutAnalysis:
    """Component census of ``dense`` minus ``fault``, with cycle flags.

    A connected component contains a cycle exactly when its edge count is
    at least its vertex count.
    """
    fs = _validate_fault(dense.order, fault)
    dead = bytearray(dense.order)
    for v in fs:
        dead[v] = 1
    infos = []
    # starts in increasing order yield the components by smallest member
    for start in range(dense.order):
        if dead[start]:
            continue
        stack = [start]
        dead[start] = 1
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in dense.neighbors[v]:
                if not dead[w]:
                    dead[w] = 1
                    stack.append(w)
        members.sort()
        mset = set(members)
        edges = sum(1 for v in members for w in dense.neighbors[v] if w in mset) // 2
        infos.append(
            ComponentInfo(
                vertices=len(members),
                edges=edges,
                contains_cycle=edges >= len(members),
                members=tuple(members) if len(members) <= MEMBER_LIMIT else None,
            )
        )
    largest_index = 0
    for i, c in enumerate(infos):
        if c.vertices > infos[largest_index].vertices:
            largest_index = i
    return CutAnalysis(
        component_count=len(infos),
        components=tuple(infos),
        largest_index=largest_index,
    )


# ---------------------------------------------------------------------------
# the bit-sliced kernel and the bitmask component walk


#: (shift, mask) of the three delta swaps that transpose the 8x8 bit matrix
#: of a 64-bit word, bit 8i + b holding bit b of byte i; the mask marks the
#: bits that trade places with the bits shift above them
_TRANSPOSE_8X8 = (
    (7, 0x00AA00AA00AA00AA),
    (14, 0x0000CCCC0000CCCC),
    (28, 0x00000000F0F0F0F0),
)


def _disconnected(
    neighbors, order: int, faults: list[int], apart: int = 1
) -> list[int]:
    """counts[i], i < apart: bit j set when faults[j] leaves > i survivors unreached.

    A survivor is unreached when it lies outside the component of the
    fault's start: its highest survivor that keeps a surviving neighbour,
    or its highest survivor if no surviving edge is left.  faults is a
    non-empty list of fault masks, evaluated together by
    ``_disconnected_columns`` once they are transposed into its survivor
    columns: vertex v gets one int whose bit j says that v survives fault
    j.  These ints come from one byte string of the fault masks, a
    little-endian row of ``int.to_bytes`` per fault.
    Byte column k, read down as one int, holds in each 64-bit word the 8x8
    bit matrix of 8 faults' bytes; three delta swaps over the whole int
    transpose every such matrix (``_TRANSPOSE_8X8``), after which every
    eighth byte from byte b on, complemented, is the int of vertex 8k + b.
    The falsifier and the sampled p1 probe draw their faults at random and
    come here; the exhaustive scans build the columns directly.
    """
    # one little-endian row of width bytes per fault: byte column k, read
    # down, holds vertices 8k..8k+7, byte j of it fault j
    count = len(faults)
    width = (order + 7) // 8
    repeat = itertools.repeat
    rows = b"".join(map(int.to_bytes, faults, repeat(width), repeat("little")))
    words = (count + 7) // 8
    swaps = [
        (shift, int.from_bytes(mask.to_bytes(8, "little") * words, "little"))
        for shift, mask in _TRANSPOSE_8X8
    ]
    everyone = (1 << count) - 1
    alive = []
    for k in range((order + 7) // 8):
        x = int.from_bytes(rows[k::width], "little")
        for shift, mask in swaps:
            t = (x ^ (x >> shift)) & mask
            x ^= t ^ (t << shift)
        # byte b of word w now holds bit b of faults 8w..8w+7
        spread = x.to_bytes(8 * words, "little")
        for b in range(min(8, order - 8 * k)):
            alive.append(everyone ^ int.from_bytes(spread[b::8], "little"))
    return _disconnected_columns(neighbors, alive, apart)


def _disconnected_columns(neighbors, alive: list[int], apart: int = 1) -> list[int]:
    """counts[i], i < apart: bit j set when fault set j leaves > i survivors unreached.

    Bit-sliced over a family of fault sets: bit j of alive[v] says that
    vertex v survives set j.  Each set's search starts at its highest
    survivor that keeps a surviving neighbour, or at its highest survivor
    if no surviving edge is left, and one BFS over the columns sweeps the
    vertices down, then up, in turn until nothing changes; a survivor it
    never reaches lies in another component.  A sweep carries reach along
    any path that runs in its own direction, so alternating saves a pass
    on most families, and the fixed point, each start's component, does
    not depend on the order.  The starts are seeded from the top vertex
    down, which stops once every set with a survivor has one.  apart
    saturating bit-sliced counters count the unreached survivors: bit j
    of counter i is set once more than i survivors of set j are
    unreached.  The first counter flags exactly the sets that leave a
    disconnected graph.  A start with a surviving neighbour lies in a
    component of at least 2, so a set of at least 3 survivors that leaves
    one unreached isolates that vertex beside one component of the rest.

    A caller passes as apart the least size of a component its exact test
    needs on each of two sides: two such components cannot both hold the
    start, so one of them is unreached, and no set that passes the test
    goes unflagged by the last counter.  Scans and draws go through vertex
    0 (``_anchors``), so the small pieces a set cuts off sit near 0;
    starting high puts them on the unreached side, where a larger apart
    skips them.  Callers give only the flagged sets their exact per-set
    tests.
    """
    order = len(alive)
    down = range(order - 1, -1, -1)
    reach = [0] * order
    somebody = 0
    for a in alive:
        somebody |= a
    seen = 0
    for v in down:
        if seen == somebody:
            break
        r = 0
        for u in neighbors[v]:
            r |= alive[u]
        reach[v] = r & alive[v] & ~seen
        seen |= reach[v]
    else:
        # the sets with no surviving edge start at their highest survivor
        for v in down:
            reach[v] |= alive[v] & ~seen
            seen |= alive[v]
    sweep, back = down, range(order)
    changed = True
    while changed:
        changed = False
        for v in sweep:
            r = reach[v]
            for u in neighbors[v]:
                r |= reach[u]
            r &= alive[v]
            if r != reach[v]:
                reach[v] = r
                changed = True
        sweep, back = back, sweep
    counts = [0] * apart
    carries = range(apart - 1, 0, -1)
    for a, r in zip(alive, reach):
        x = a & ~r
        for i in carries:
            counts[i] |= counts[i - 1] & x
        counts[0] |= x
    return counts


def _components(masks, alive: int) -> list[tuple[int, bool]]:
    """The components of alive by least vertex, as (mask, carries_cycle) pairs.

    One BFS per component sums the degrees in alive of the vertices it
    visits; a neighbour in alive lies in the same component.  A component
    carries a cycle when that sum is at least twice its vertex count
    (edges >= vertices).
    """
    out = []
    rem = alive
    while rem:
        reach = frontier = rem & -rem
        degrees = 0
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                m = masks[b.bit_length() - 1] & alive
                nxt |= m
                degrees += m.bit_count()
            frontier = nxt & ~reach
            reach |= frontier
        rem ^= reach
        out.append((reach, degrees >= 2 * reach.bit_count()))
    return out


def _two_cyclic_components(masks, alive: int) -> bool:
    """True iff at least two components of alive carry a cycle."""
    return sum(cyclic for _, cyclic in _components(masks, alive)) >= 2


def _mask_members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# predicates


def is_vertex_cut(g, fault) -> bool:
    return component_analysis(g, fault).component_count >= 2


def is_cyclic_cut(g, fault) -> bool:
    """True iff g - fault is disconnected with >= 2 cycle-carrying components."""
    analysis = component_analysis(g, fault)
    if analysis.component_count < 2:
        return False
    return analysis.cyclic_component_count() >= 2


def is_good_neighbor_cut(g, fault, good: int) -> bool:
    """True iff g - fault is disconnected and every survivor keeps >= good neighbors.

    Degrees are evaluated over all survivors on both sides of the cut.
    With good=0 this is plain disconnection.  Needs the neighbor bitmasks
    (orders up to 7!).
    """
    if good < 0:
        raise ValueError("neighbor requirement must be >= 0")
    if component_analysis(g, fault).component_count < 2:
        return False
    return _keeps_degree(g.masks, g.full_mask ^ _mask_of(fault), good)


def _keeps_degree(masks, alive: int, good: int) -> bool:
    """True iff every vertex of alive has >= good neighbors in alive."""
    m = alive
    while m:
        b = m & -m
        m ^= b
        if (masks[b.bit_length() - 1] & alive).bit_count() < good:
            return False
    return True


def _mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def large_component_profile(g, fault) -> tuple[int, int]:
    """(size of the largest component, vertices outside it) after removal."""
    analysis = component_analysis(g, fault)
    return analysis.largest(), analysis.residual()


def vertex_boundary(g, members) -> tuple[int, ...]:
    """N(S) minus S, sorted."""
    s = set(members)
    out = set()
    for v in s:
        out.update(g.neighbors[v])
    return tuple(sorted(out - s))


def build_cycle_neighborhood_cut(G: CayleyGraph, cycle) -> tuple[int, ...]:
    """Fault set N(V(C)) minus V(C) for a 4-cycle C, given in cycle order."""
    cyc = tuple(cycle)
    if len(cyc) != 4 or len(set(cyc)) != 4:
        raise ValueError("cycle must list 4 distinct vertices")
    for i in range(4):
        if not G.adjacent(cyc[i], cyc[(i + 1) % 4]):
            raise ValueError(
                f"vertices {cyc[i]} and {cyc[(i + 1) % 4]} are not adjacent"
            )
    return vertex_boundary(G, cyc)


# ---------------------------------------------------------------------------
# witnesses


class CutWitness(NamedTuple):
    kind: str  # "vertex-cut" | "good-neighbor-cut(g)" | "cyclic-cut"
    fault: tuple[int, ...]
    analysis: CutAnalysis
    scanned: int | None = None  # sets or trials a search scanned, this one included

    @property
    def size(self) -> int:
        return len(self.fault)


def render_witness(G: CayleyGraph, witness: CutWitness) -> str:
    """Witness file: header lines, then one permutation string per fault vertex."""
    lines = [
        f"kind={witness.kind}",
        f"size={witness.size}",
        f"graph={describe(G.gen)}",
    ]
    lines.extend(G.perm_str(u) for u in witness.fault)
    return "\n".join(lines) + "\n"


def _make_witness(
    dense: DenseGraph, fault: tuple[int, ...], kind: str, scanned: int | None = None
) -> CutWitness:
    analysis = component_analysis(dense, fault)
    if analysis.component_count < 2:
        raise ValueError(f"witness {fault} does not disconnect the graph")
    if kind == "cyclic-cut" and analysis.cyclic_component_count() < 2:
        raise ValueError(f"witness {fault} does not leave two cyclic components")
    return CutWitness(kind=kind, fault=fault, analysis=analysis, scanned=scanned)


# ---------------------------------------------------------------------------
# trial-block runner
#
# The seeded trial blocks of the sampler and the falsifier run here.  A
# block function takes what it reads bound with partial, so a forked
# worker inherits it; tasks are block indices.  Results come back in
# block order, so merges never depend on the worker count.

#: a pool worker's task function and the runner's stop event (see ``_run``);
#: None in the parent, which calls task functions directly
_TASK = None
_STOP = None


def _install(func, stop) -> None:
    """Pool initializer: keep the task function and the stop event."""
    global _TASK, _STOP
    _TASK, _STOP = func, stop


def _stopped() -> bool:
    """True in a pool worker once the runner has its result (see ``_run``)."""
    return _STOP is not None and _STOP.is_set()


def _call(task):
    """_TASK(task), or None for a task taken after the runner's stop event is set."""
    return None if _stopped() else _TASK(task)


def _run(func, tasks, workers: int | None, until=None) -> list:
    """func(task) for the tasks in order, up to the first result until accepts.

    Without until every task runs.  Every task before the accepted result
    has run, so the results do not depend on the worker count or on where
    the tasks ran.

    The first task runs in the calling process.  If until does not accept
    it, there is more than one worker (``resolve_workers``) and at least two
    tasks are left, the rest go to one pool of at most a worker per task;
    otherwise they run in the calling process too.  Only the seeded trial
    blocks come here, and this is the only place a pool starts.
    """
    workers = min(resolve_workers(workers), len(tasks) - 1)
    out = []
    for task in tasks:
        out.append(func(task))
        if until is not None and until(out[-1]):
            break
        if workers > 1:
            return out + _pooled(func, tasks[1:], workers, until)
    return out


def _pooled(func, tasks, workers: int, until) -> list:
    """func(task) for the tasks in order on a fork pool of workers, as ``_run``.

    func may be any callable, a partial or a closure with state of its
    own: the pool forks, so each worker inherits func and the stop event
    from the initializer arguments without pickling them, and only the
    tasks and results are pickled.  A worker's copy of func keeps its own
    state.

    A pool ends with close() and join(), never by a signal to a busy
    worker: after the accepted result the parent sets a stop event that
    the workers share, each task taken after it returns at once
    (``_call``), and join() waits only for the tasks in flight.  Only a
    task that raises, or an interrupt in the parent, terminates the pool;
    the exception reaches the caller.  Tasks go one at a time: a chunk
    comes back whole, and an early exit should wait for no more than a task.
    """
    import multiprocessing  # here, so that `import ugconn` stays cheap

    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    pool = ctx.Pool(workers, initializer=_install, initargs=(func, stop))
    out = []
    try:
        for result in pool.imap(_call, tasks):
            out.append(result)
            if until is not None and until(result):
                stop.set()
                break
    except BaseException:
        pool.terminate()
        raise
    pool.close()
    pool.join()
    return out


def _first_passing(flagged: int, fault, test) -> int | None:
    """The least j flagged whose fault mask fault(j) passes test, or None.

    flagged is the kernel's last counter for apart the least size of a
    component that test accepts on each of two sides, so no set that
    passes test goes unflagged; only the flagged sets get test, in order.
    """
    while flagged:
        b = flagged & -flagged
        flagged ^= b
        j = b.bit_length() - 1
        if test(fault(j)):
            return j
    return None


# ---------------------------------------------------------------------------
# exhaustive subset scans


def _subset_tasks(g, sizes) -> Iterator[tuple[int, tuple[tuple[int, int, int], ...]]]:
    """Yield the (size, pieces) tasks of an exhaustive scan over the given sizes.

    A piece (head, r, s) stands for the sets head | R over the r-subsets R
    of range(s, order), in lexicographic order.  Anchor a starts as the
    piece (1 << a, size - 1, a + 1) of the sets whose least element is a.
    A piece of more than TRIAL_BLOCK sets is split at s: first the sets
    that hold s, then those of range(s + 1, order) (Knuth, TAOCP 4A,
    7.2.1.3), until none is that large.  Empty pieces are dropped, and a
    task takes consecutive pieces of one size until it holds TRIAL_BLOCK
    sets, so it holds fewer than 2 * TRIAL_BLOCK and is one kernel call
    (``_task_columns``).  Sizes run ascending and pieces in lexicographic
    order, so the tasks meet the sets in (size, lexicographic) order.
    A size is split only when its first task is asked for, so a scan that
    stops at a hit pays nothing for the sizes after it.

    Every piece starts with an anchor, so a graph from ``build_cayley``
    scans only the sets through vertex 0; first hits, least witnesses and
    counts scaled by order/k stay exact (``cayley._anchors``).
    """
    order = g.order

    def split(head: int, r: int, s: int):
        while math.comb(order - s, r) > TRIAL_BLOCK:
            yield from split(head | 1 << s, r - 1, s + 1)
            s += 1
        yield head, r, s

    for size in sizes:
        group: list[tuple[int, int, int]] = []
        held = 0
        for a in _anchors(g):
            for head, r, s in split(1 << a, size - 1, a + 1):
                count = math.comb(order - s, r)
                if count:
                    group.append((head, r, s))
                    held += count
                    if held >= TRIAL_BLOCK:
                        yield size, tuple(group)
                        group, held = [], 0
        if group:
            yield size, tuple(group)


def _rest_columns(r: int, s: int, order: int, memo: dict) -> list[int]:
    """Member columns of the r-subsets of range(s, order), in lexicographic order.

    Entry v - s is the column of vertex v: bit i is set when v lies in the
    i-th set.  Those sets are the ones that hold s, each s and an
    (r-1)-subset of range(s+1, order), followed by the r-subsets of
    range(s+1, order) (Knuth, TAOCP 4A, 7.2.1.3).  So the column of s is
    all ones over the first part, and the column of v > s is its column of
    the (r-1)-subsets followed by its column of the r-subsets of
    range(s+1, order): O(order) big-int ops per (r, s).  memo keeps every
    (r, s) with 2 <= r < order - s that it builds for one scan; the
    columns for r = 1 or r = order - s cost no more than their own list.
    r must be at least 1.
    """
    if r == 1:
        return [1 << i for i in range(order - s)]
    if r == order - s:
        return [1] * r
    cols = memo.get((r, s))
    if cols is None:
        # (k, t) needs (k - 1, t + 1) and (k, t + 1), so build from the end
        for t in range(order - 3, s - 1, -1):
            for k in range(max(2, r - (t - s)), min(r, order - t - 1) + 1):
                if (k, t) not in memo:
                    head = math.comb(order - t - 1, k - 1)
                    with_t = _rest_columns(k - 1, t + 1, order, memo)
                    without = _rest_columns(k, t + 1, order, memo)
                    memo[k, t] = [(1 << head) - 1] + [
                        a | b << head for a, b in zip(with_t, without)
                    ]
        cols = memo[r, s]
    return cols


def _unrank(i: int, r: int, s: int, order: int) -> int:
    """The mask of the i-th r-subset of range(s, order) in lexicographic order."""
    m = 0
    t = s
    while r:
        head = math.comb(order - t - 1, r - 1)  # the sets that hold t
        if i < head:
            m |= 1 << t
            r -= 1
        else:
            i -= head
        t += 1
    return m


def _task_columns(task, order: int, memo: dict):
    """The kernel call of a (size, pieces) task: (survivor columns, sets, fault).

    A piece's sets come in lexicographic order, so their columns come from
    ``_rest_columns``: all zeros before the rest's first vertex except the
    head's all ones.  Column v of the task is the complement of v's member
    columns of its pieces, each shifted past the pieces before it.
    fault(j) unranks set j of the task into its fault mask (``_unrank``).
    """
    member = [0] * order
    starts = []
    held = 0
    for head, r, s in task[1]:
        count = math.comb(order - s, r)
        ones = ((1 << count) - 1) << held
        for v in _mask_members(head):
            member[v] |= ones
        if r:  # an empty rest adds no member
            for v, col in enumerate(_rest_columns(r, s, order, memo), s):
                member[v] |= col << held
        starts.append(held)
        held += count

    def fault(j):
        k = bisect_right(starts, j) - 1
        head, r, s = task[1][k]
        return head | _unrank(j - starts[k], r, s, order)

    everyone = (1 << held) - 1
    return [everyone ^ m for m in member], held, fault


def _min_cut_search(
    g, test, max_size: int, apart: int
) -> tuple[int, tuple[int, ...] | None]:
    """(sets scanned, least minimum cut passing test or None) in one first-hit pass.

    test(masks, alive) is the exact test of a set whose removal leaves
    alive disconnected; None accepts every vertex cut.  test accepts only
    splits with at least apart survivors in each of two components, and
    only the sets that leave that many survivors outside the kernel's
    start get it (``_first_passing``).  Each task is one kernel call, and
    a hit at set j of a task has scanned j + 1 of its sets.
    """
    masks, full = g.masks, g.full_mask  # CapacityError before any scan

    def passes(fmask):
        return test is None or test(masks, full ^ fmask)

    memo: dict = {}
    scanned = 0
    for task in _subset_tasks(g, range(1, min(max_size, g.order - 1) + 1)):
        alive, count, fault = _task_columns(task, g.order, memo)
        flagged = _disconnected_columns(g.neighbors, alive, apart)[-1]
        j = _first_passing(flagged, fault, passes)
        if j is not None:
            return scanned + j + 1, _mask_members(fault(j))
        scanned += count
    return scanned, None


def _cut_witness(g, test, max_size, kind, apart) -> CutWitness | None:
    scanned, hit = _min_cut_search(g, test, max_size, apart)
    return None if hit is None else _make_witness(g, hit, kind, scanned)


def min_cyclic_cut_exhaustive(g, max_size: int):
    """Lexicographically least minimum cyclic cut of size <= max_size, or None.

    Enumeration over the tasks of ``_subset_tasks``, one kernel call
    each, sizes ascending, in one pass that stops at the first hit.
    Absence is a valid (and for the lower bounds, the desired) result.
    A cyclic component holds at least 3 vertices, so only the sets that
    leave 3 survivors outside the kernel's start get the exact test.
    """
    return _cut_witness(
        g, _two_cyclic_components, max_size, "cyclic-cut", CYCLE_VERTICES
    )


def min_good_neighbor_cut_exhaustive(g, good: int, max_size: int):
    """Least cut of size <= max_size after which all survivors keep >= good neighbors.

    Every component of such a cut holds a vertex and its good neighbors,
    so only the sets that leave good + 1 survivors outside the kernel's
    start get the exact test.  good must be >= 0, else ValueError.
    """
    if good < 0:
        raise ValueError("neighbor requirement must be >= 0")
    if good == 0:
        return _cut_witness(g, None, max_size, "vertex-cut", 1)
    witness = _cut_witness(
        g,
        partial(_keeps_degree, good=good),
        max_size,
        f"good-neighbor-cut({good})",
        good + 1,
    )
    if witness is not None and good >= 2:
        # minimum degree 2 in every surviving component forces a cycle there
        if witness.analysis.cyclic_component_count() < 2:
            raise RuntimeError(
                f"{good}-good-neighbor cut {witness.fault} left an acyclic side"
            )
    return witness


# ---------------------------------------------------------------------------
# disconnection census (one sweep feeds several bounds)


class SizeCensus(NamedTuple):
    """Aggregates over every fault set of one size, and its least cyclic cut."""

    size: int
    subsets: int
    disconnecting: int
    isolating: int  # exactly two components, one of them a single vertex
    neighborhood_faults: int  # fault set equals N(v) of the isolated vertex
    max_residual: int  # max vertices outside the largest component
    worst_fault: tuple[int, ...] | None  # least fault attaining max_residual
    cyclic_cut: tuple[int, ...] | None  # least cyclic cut of this size


def _census_task(dense: DenseGraph, memo: dict, task):
    """The census row of one (size, pieces) task, ending with its first cyclic cut.

    Its one kernel call (``_task_columns``) counts up to 3 unreached
    survivors per set, from a start that keeps a surviving neighbour
    unless no surviving edge is left (``_disconnected_columns``).  A set
    that leaves exactly one survivor unreached, of at least 3, cuts off
    that vertex beside one larger component: it isolates with residual 1,
    and it is a neighborhood fault iff it equals some N(v), since N(v)
    isolates v and there is one singleton.  Those sets are counted by
    popcount, and a set of the size of N(v) equals N(v) iff it holds every
    vertex of N(v), so the AND of their fault columns with the
    single-survivor flags counts the matches.  A set that leaves exactly
    two survivors unreached has residual 2: its start's component is a
    largest one, or every survivor is a single vertex.  It does not
    isolate, since two unreached single vertices make three components
    and an unreached edge means that the start keeps a neighbour, and it
    is not a cyclic cut, since only the start's component can hold the 3
    vertices of a cycle; so it needs only its place in the residual
    order.  Every other disconnecting set is unranked and gets one
    component walk (``_components``), in scan order, which gives its
    residual, its singleton and, until the task has its first cyclic cut,
    its cyclic components.
    """
    masks, neighbors, order = dense.masks, dense.neighbors, dense.order
    size = task[0]
    alive, subsets, fault = _task_columns(task, order, memo)
    split, several, many = _disconnected_columns(neighbors, alive, 3)
    single = split & ~several if order - size >= 3 else 0
    pair = several & ~many
    disconnecting = split.bit_count()
    isolating = single.bit_count()
    nbhd = 0
    for ns in neighbors:
        if len(ns) == size:
            match = single
            for u in ns:
                match &= ~alive[u]
            nbhd += match.bit_count()
    # (residual, -j) of the task's first set of greatest residual
    best = (0, 0)
    for residual, flags in ((1, single), (2, pair)):
        if flags:
            best = (residual, 1 - (flags & -flags).bit_length())
    cyclic = None
    walked = split & ~single & ~pair
    while walked:
        b = walked & -walked
        walked ^= b
        j = b.bit_length() - 1
        fmask = fault(j)
        comps = _components(masks, dense.full_mask ^ fmask)
        sizes = [mask.bit_count() for mask, _ in comps]
        residual = sum(sizes) - max(sizes)
        if len(comps) == 2 and residual == 1:
            isolating += 1
            lonely = comps[sizes.index(1)][0]
            nbhd += masks[lonely.bit_length() - 1] == fmask
        if cyclic is None and sum(flag for _, flag in comps) >= 2:
            cyclic = _mask_members(fmask)
        best = max(best, (residual, -j))
    max_residual, j = best
    worst = _mask_members(fault(-j)) if max_residual else None
    return size, subsets, disconnecting, isolating, nbhd, max_residual, worst, cyclic


def disconnection_census(g, max_size: int) -> tuple[SizeCensus, ...]:
    """Exhaustive per-size census of all fault sets up to max_size.

    Counts disconnecting sets and the two-components-one-isolated pattern,
    tracks the worst residual and finds the least cyclic cut of each size.
    One sweep serves the isolation and large-component bounds and the
    lower bound of ``lemmas.check_cyclic_cut_exact``: no cyclic cut below
    the first one it records.  On a graph from ``build_cayley`` it scans
    the sets through vertex 0 and scales each count of size k by order/k;
    the maximum residual, the least faults and the least cyclic cut need
    no scaling (``_subset_tasks``).
    """
    top = min(max_size, g.order - 1)
    memo: dict = {}
    tasks = _subset_tasks(g, range(1, top + 1))
    rows = [_census_task(g, memo, task) for task in tasks]
    out = []
    for size in range(1, top + 1):
        mine = [r for r in rows if r[0] == size]
        counts = [sum(r[i] for r in mine) for i in range(1, 5)]
        if g.transitive:
            counts = [g.order * c // size for c in counts]
        max_residual = max(r[5] for r in mine)
        worsts = [r[6] for r in mine if r[5] == max_residual and r[6] is not None]
        out.append(
            SizeCensus(
                size,
                *counts,
                max_residual=max_residual,
                worst_fault=min(worsts) if worsts else None,
                cyclic_cut=next((r[7] for r in mine if r[7] is not None), None),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# connectivity-under-removal sweep (residue bound with p=1)


class RemovalSweep(NamedTuple):
    ok: bool
    counterexample: tuple[int, ...] | None  # the least fault set that disconnects
    removals: int  # fault sets the search scanned


def verify_connected_under_removal(g, max_size: int) -> RemovalSweep:
    """Certify that no fault set of size <= max_size disconnects g.

    This is the first-hit vertex-cut search: the counterexample is the
    least disconnecting set, sizes ascending, and it exists exactly when
    kappa <= max_size.
    """
    removals, bad = _min_cut_search(g, None, max_size, 1)
    return RemovalSweep(ok=bad is None, counterexample=bad, removals=removals)


# ---------------------------------------------------------------------------
# sampled residue bound (sizes where exhaustion is infeasible)


class SampledResidual(NamedTuple):
    ok: bool
    trials: int
    templates: int
    seed: int
    violations: int
    counterexample: tuple[int, ...] | None


def _anchored_fault(getrandbits, anchors, order: int, size: int) -> int:
    """A fault mask of size vertices: an anchor, then size-1 new vertices.

    Each new vertex is uniform over the vertices not yet drawn.  The draw
    spends the stream of ``rng.choice(anchors)``, then of
    ``rng.randrange(order)`` until the vertex is new; size 0 spends
    nothing.  Each choice is CPython's ``Random._randbelow_with_getrandbits``
    written out: ``getrandbits(m.bit_length())`` until the value is below m.
    """
    if not size:
        return 0
    m = len(anchors)
    a = getrandbits(m.bit_length())
    while a >= m:
        a = getrandbits(m.bit_length())
    fmask = 1 << anchors[a]
    order_bits = order.bit_length()
    for _ in range(size - 1):
        v = getrandbits(order_bits)
        while v >= order or fmask >> v & 1:
            v = getrandbits(order_bits)
        fmask |= 1 << v
    return fmask


def _flagged(neighbors, order: int, faults: list[int]):
    """(number of faults that disconnect the graph, the first of them or None)."""
    split = _disconnected(neighbors, order, faults)[0] if faults else 0
    if not split:
        return 0, None
    return split.bit_count(), _mask_members(faults[(split & -split).bit_length() - 1])


def _sample_block(neighbors, order: int, anchors, max_size, seed, trials, block):
    """(trials, disconnecting sets, the first of them or None) for one block.

    Trial i draws an ``_anchored_fault`` of size max(1, max_size - 2) + i
    mod the number of sizes up to max_size, from the block's own stream.
    """
    low = max(1, max_size - 2)
    span = max_size - low + 1
    getrandbits = random.Random((seed << 20) | block).getrandbits
    count = min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)
    faults = [
        _anchored_fault(getrandbits, anchors, order, low + i % span)
        for i in range(count)
    ]
    return count, *_flagged(neighbors, order, faults)


def sampled_residual_check(
    g,
    max_size: int,
    trials: int,
    seed: int = 0,
    workers: int | None = None,
) -> SampledResidual:
    """Seeded probe that no fault set of size <= max_size disconnects g.

    The templates are the neighborhoods N(v) with |N(v)| <= max_size, in
    vertex order, tested in the calling process; each one isolates v.
    The random phase draws fault sets of the largest three sizes, each
    through an anchor (``cayley._anchors``), in blocks of TRIAL_BLOCK.
    ``_disconnected`` tests every set exactly: ``violations`` counts the
    sets that disconnect g, and the counterexample is the first of them,
    templates first.  A pass supports the bound on the sampled evidence
    only, it proves nothing.  max_size must lie in 1..order, trials must
    be >= 1 and the seed must be >= 0, else ValueError: no trial is no
    evidence, block seeds are (seed << 20) | block, and ``random.Random``
    would draw seed -s as s.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    neighbors, order = g.neighbors, g.order
    if not 1 <= max_size <= order:
        raise ValueError(f"max size {max_size} must lie in 1..{order}")
    templates = [_mask_of(ns) for ns in neighbors if len(ns) <= max_size]
    sample = partial(
        _sample_block, neighbors, order, _anchors(g), max_size, seed, trials
    )
    nblocks = (trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK
    found, first = _flagged(neighbors, order, templates)
    rows = _run(sample, range(nblocks), workers)
    hits = [hit for hit in [first] + [r[2] for r in rows] if hit is not None]
    return SampledResidual(
        ok=not hits,
        trials=sum(r[0] for r in rows),
        templates=len(templates),
        seed=seed,
        violations=found + sum(r[1] for r in rows),
        counterexample=hits[0] if hits else None,
    )


# ---------------------------------------------------------------------------
# minimum neighborhood over 4-element sets


def min_neighborhood_over_4subsets(g) -> tuple[int, tuple[int, int, int, int], int]:
    """Min of |N(S) - S| over all 4-subsets S: (value, least witness, sets covered).

    One loop in the calling process over a < b < c < d, a an anchor, so a
    graph from ``build_cayley`` covers only the sets through vertex 0,
    which is exact (``cayley._anchors``).  Adding a vertex takes at most
    that vertex off the boundary, so the sets under a prefix whose boundary
    minus the vertices still to add is at least best cannot beat it; they
    are skipped but counted as covered.  best moves only on a strictly
    smaller count, so skipping changes neither the value nor the least
    witness.
    """
    order = g.order
    if order < 4:
        raise ValueError(f"a graph of order {order} has no 4-subsets")
    masks = g.masks
    best, arg = order + 1, None
    for a in _anchors(g):
        for b in range(a + 1, order - 2):
            sab = 1 << a | 1 << b
            mab = masks[a] | masks[b]
            if (mab & ~sab).bit_count() - 2 >= best:
                continue
            for c in range(b + 1, order - 1):
                sabc = sab | 1 << c
                mabc = mab | masks[c]
                if (mabc & ~sabc).bit_count() - 1 >= best:
                    continue
                for d in range(c + 1, order):
                    cnt = ((mabc | masks[d]) & ~(sabc | 1 << d)).bit_count()
                    if cnt < best:
                        best, arg = cnt, (a, b, c, d)
    covered = sum(math.comb(order - 1 - a, 3) for a in _anchors(g))
    return best, arg, covered


# ---------------------------------------------------------------------------
# randomized cyclic-cut falsifier
#
# A block first draws all of its fault sets from its own seeded stream.
# The strategies repeat fault sets often, so ``_disconnected`` takes each
# distinct set of the block once and flags those that leave at least
# CYCLE_VERTICES survivors outside the component of its start, its
# highest survivor that keeps a surviving neighbour; only they get the
# exact cyclic test, in order of first occurrence, and each worker
# memoises that test by fault mask, since blocks repeat sets too.
# ``randomized_cut_falsifier`` binds the graph, the strategies' starts
# and both caches (the memo and ``grown``) with partial, so each forked
# worker fills caches of its own.


def enumerate_4cycles(G: CayleyGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles, once each, as (a, b, c, d) in cycle order.

    Canonical form: a is the smallest rank on the cycle and b < d are its
    two cycle neighbors.
    """
    neighbors = G.neighbors
    out = []
    for a, ns in enumerate(neighbors):
        later = [x for x in ns if x > a]
        for bi, b in enumerate(later):
            for d in later[bi + 1 :]:
                nd = neighbors[d]
                out.extend((a, b, c, d) for c in neighbors[b] if c > a and c in nd)
    return out


def _block_faults(
    dense, anchors, cycles, blobs, grown, target, seed, trials, block
) -> list[int]:
    """The fault sets of one trial block, in trial order, as vertex masks.

    Trial i uses strategy i mod 4 (always 0 without 4-cycles): 0 an anchor
    and target-1 more vertices (``_anchored_fault``), 1 a 4-cycle's
    neighborhood, 2 the boundary of a cycle core grown by one or two
    vertices, 3 the boundary of a blob of two to four vertices grown from
    an anchor.  cycles and blobs list the starts of strategies 1-2 and 3
    as (core mask, boundary mask, boundary in increasing order): the
    4-cycles whose least vertex is an anchor, and the anchors.  Boundaries
    are trimmed at random down to the target.  The random stream depends
    on the seed and the block only; the block holds TRIAL_BLOCK trials,
    the last one what is left of trials.

    Each set, or the core it bounds, contains an anchor; that loses nothing
    (``cayley._anchors``), and on a bare graph strategy 0 is uniform.  Each
    ``randrange(m)`` is written out as in ``_anchored_fault``, with no call
    per drawn index, and grown keeps the grown boundary of each core.
    """
    masks, order = dense.masks, dense.order
    getrandbits = random.Random((seed << 20) | block).getrandbits
    faults = []
    for i in range(min(TRIAL_BLOCK, trials - block * TRIAL_BLOCK)):
        strat = i & 3 if cycles else 0
        if strat == 0:
            faults.append(_anchored_fault(getrandbits, anchors, order, target))
            continue
        starts = blobs if strat == 3 else cycles
        m = len(starts)
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        core, fmask, fault = starts[r]
        if strat > 1:
            # randrange(1, strat + 1) more vertices: one or two on a cycle
            # core, one to three on an anchor
            grow = getrandbits(2)
            while grow >= strat:
                grow = getrandbits(2)
            for _ in range(grow + 1):
                # fault lists the boundary fmask in increasing order
                m = len(fault)
                k = m.bit_length()
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                v = fault[r]
                core |= 1 << v
                known = grown.get(core)
                if known is None:
                    fmask = (fmask | masks[v]) & ~core
                    known = grown[core] = (fmask, _mask_members(fmask))
                fmask, fault = known
        m = len(fault)
        if m > target:
            fault = list(fault)
            while m > target:
                k = m.bit_length()
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                fmask ^= 1 << fault.pop(r)
                m -= 1
        faults.append(fmask)
    return faults


def _falsify_block(dense, draw, memo, block):
    """(block, trial, fault) of the block's first cyclic cut, or None.

    draw(block) gives the block's fault masks (``_block_faults``).  The
    kernel takes each distinct fault set of the block once, in order of
    first occurrence, and flags those that leave CYCLE_VERTICES survivors
    outside its start; the first trial that holds a hit is that set's
    first occurrence.  memo keeps the exact cyclic test by fault mask.  A
    block drawn after the search has its hit skips the kernel: its result
    is never read.
    """
    faults = draw(block)
    if _stopped():
        return None
    masks, full = dense.masks, dense.full_mask

    def cyclic(fmask):
        if not fmask:
            return False
        hit = memo.get(fmask)
        if hit is None:
            hit = memo[fmask] = _two_cyclic_components(masks, full ^ fmask)
        return hit

    distinct = list(dict.fromkeys(faults))
    flagged = _disconnected(dense.neighbors, dense.order, distinct, CYCLE_VERTICES)[-1]
    j = _first_passing(flagged, distinct.__getitem__, cyclic)
    if j is None:
        return None
    return block, faults.index(distinct[j]), _mask_members(distinct[j])


def randomized_cut_falsifier(
    G,
    target_size: int,
    trials: int,
    seed: int = 0,
    workers: int | None = None,
) -> CutWitness | None:
    """Seeded stochastic hunt for a cyclic cut of size <= target_size.

    Strategies, each drawn through an anchor: random subsets, 4-cycle
    neighborhoods trimmed below the construction size, boundaries of
    slightly grown cycle cores, and boundaries of random blobs.  Returns
    the witness from the earliest trial if any strategy succeeds, else
    None; the witness's ``scanned`` counts the trials up to that one.
    Deterministic given seed; trial blocks make the result independent of
    the worker count.  The target must lie in 0..order and the seed must
    be >= 0, else ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not 0 <= target_size <= G.order:
        raise ValueError(f"target size {target_size} must lie in 0..{G.order}")
    anchors = _anchors(G)
    cycles = enumerate_4cycles(G) if isinstance(G, CayleyGraph) else []
    cycles = [
        (_mask_of(c), _mask_of(b := vertex_boundary(G, c)), b)
        for c in cycles
        if c[0] in anchors
    ]
    blobs = [(1 << v, G.masks[v], G.neighbors[v]) for v in anchors]
    draw = partial(
        _block_faults, G, anchors, cycles, blobs, {}, target_size, seed, trials
    )
    blocks = range((trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK)
    hit = _run(
        partial(_falsify_block, G, draw, {}),
        blocks,
        workers,
        until=lambda row: row is not None,
    )[-1]
    if hit is None:
        return None
    block, j, fault = hit
    return _make_witness(G, fault, "cyclic-cut", block * TRIAL_BLOCK + j + 1)
