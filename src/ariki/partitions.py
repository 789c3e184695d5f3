"""Shape combinatorics of partitions, multipartitions and multicompositions.

Everything here is charge-free: partitions are weakly decreasing tuples of
positive integers, compositions drop the ordering constraint, and a
d-(multi)partition is a d-tuple of components.  Nodes of the Young diagram
are triples (row, col, comp), 1-based in row and column.  All values are
plain immutable tuples, so they hash, sort and compare with no extra
machinery; the canonical order on multipartitions is tuple order.
"""

from itertools import combinations, product
from typing import NamedTuple


class Node(NamedTuple):
    """A cell (row a, column b, component c) of a multipartition diagram.

    This is the public record: functions that return a node return a Node.
    The hot row scans (charge's signatures, fock._moves, aseq._peel) carry
    plain (row, col, comp) tuples, which compare and hash equal to it, and
    a Node is built from one only at the API.
    """
    row: int
    col: int
    comp: int


def is_partition(parts) -> bool:
    """True iff parts is a weakly decreasing sequence of positive integers."""
    prev = None
    for x in parts:
        if not isinstance(x, int) or x < 1 or (prev is not None and x > prev):
            return False
        prev = x
    return True


def is_composition(parts) -> bool:
    """True iff every entry is a positive integer (any order)."""
    return all(isinstance(x, int) and x >= 1 for x in parts)


def check_multipartition(mp):
    """Validate a multipartition; returns it normalized to tuples."""
    mp = tuple(tuple(comp) for comp in mp)
    for comp in mp:
        if not is_partition(comp):
            raise ValueError(f"component {comp} is not a partition")
    return mp


def check_components(mp, d: int):
    """Validate a multipartition that must have exactly d components."""
    mp = check_multipartition(mp)
    if len(mp) != d:
        raise ValueError(f"expected {d} components, got {len(mp)}")
    return mp


def check_multicomposition(mc):
    """Validate a multicomposition; returns it normalized to tuples."""
    mc = tuple(tuple(comp) for comp in mc)
    for comp in mc:
        if not is_composition(comp):
            raise ValueError(f"component {comp} is not a composition")
    return mc


def rank(mc) -> int:
    """Total number of cells of a multipartition or multicomposition."""
    return sum(sum(comp) for comp in mc)


def part(comp, j: int) -> int:
    """j-th part of a component (1-based), 0 beyond its height."""
    return comp[j - 1] if 1 <= j <= len(comp) else 0


def empty_multipartition(d: int):
    """The d-tuple of empty components."""
    return ((),) * d


def removable_nodes(mp):
    """Nodes whose deletion leaves a multipartition."""
    out = []
    for c, comp in enumerate(mp):
        for a, length in enumerate(comp, start=1):
            if part(comp, a + 1) < length:
                out.append(Node(a, length, c))
    return out


def addable_nodes(mp):
    """Positions whose addition yields a multipartition (new bottom row included)."""
    out = []
    for c, comp in enumerate(mp):
        for a in range(1, len(comp) + 2):
            target = part(comp, a) + 1
            if a == 1 or part(comp, a - 1) >= target:
                out.append(Node(a, target, c))
    return out


def add_node(mp, node: Node):
    """Multipartition (or multicomposition) with one more cell at node."""
    a, b, c = node
    comp = mp[c]
    if a == len(comp) + 1:
        if b != 1:
            raise ValueError(f"cannot append row at {node}")
        new = comp + (1,)
    else:
        if part(comp, a) + 1 != b:
            raise ValueError(f"{node} is not addable")
        new = comp[:a - 1] + (comp[a - 1] + 1,) + comp[a:]
    return mp[:c] + (new,) + mp[c + 1:]


def remove_node(mp, node: Node):
    """Multipartition (or multicomposition) with the cell at node deleted."""
    a, b, c = node
    comp = mp[c]
    if part(comp, a) != b:
        raise ValueError(f"{node} is not the end of its row")
    if b == 1:
        new = comp[:a - 1] + comp[a:]
        if a != len(comp):
            raise ValueError(f"removing {node} leaves a gap")
    else:
        new = comp[:a - 1] + (b - 1,) + comp[a:]
    return mp[:c] + (new,) + mp[c + 1:]


def _moved(mp, nodes, step: int):
    """mp with one cell added (step 1) or removed (step -1) at each node.

    The nodes are plain (row, col, comp) tuples already known addable or
    removable on mp, as charge's signatures and aseq._peel prove them, so
    nothing is re-checked: a node on row a lengthens or shortens row a, one
    past the last row appends a row of 1, and a row of 1 losing its cell is
    the last row and goes.  The multipartition is rebuilt once, and a
    component once per node on it.
    """
    out = list(mp)
    for a, _, c in nodes:
        comp = out[c]
        if a > len(comp):
            out[c] = comp + (1,)
        elif step < 0 and comp[a - 1] == 1:
            out[c] = comp[:-1]
        else:
            out[c] = comp[:a - 1] + (comp[a - 1] + step,) + comp[a:]
    return tuple(out)


def is_e_regular(p, e: int) -> bool:
    """True iff no part value of the partition repeats e or more times."""
    if e < 2:
        raise ValueError("e must be at least 2")
    for x in set(p):
        if p.count(x) >= e:
            return False
    return True


def partitions_of(n: int):
    """All partitions of n, in lexicographic order of part tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []

    def grow(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for first in range(min(cap, remaining), 0, -1):
            grow(remaining - first, first, prefix + [first])

    grow(n, n, [])
    out.sort()
    return out


def enumerate_multipartitions(d: int, n: int):
    """All d-partitions of rank n, sorted in canonical (tuple) order."""
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    levels = [partitions_of(k) for k in range(n + 1)]
    out = []
    # stars and bars: d - 1 bars among n + d - 1 slots split n into d sizes
    for bars in combinations(range(n + d - 1), d - 1):
        sizes = [b - a - 1 for a, b in zip((-1, *bars), (*bars, n + d - 1))]
        out.extend(product(*(levels[s] for s in sizes)))
    out.sort()
    return out


def format_multipartition(mp) -> str:
    """Text form: parts joined by dots, components by commas, '-' when empty."""
    return ",".join([".".join(map(str, comp)) if comp else "-" for comp in mp])


def parse_multipartition(text: str, require_partitions: bool = True):
    """Parse the dotted text form; '-' denotes an empty component."""
    comps = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk in ("-", ""):
            comps.append(())
            continue
        try:
            parts = tuple(int(x) for x in chunk.split("."))
        except ValueError:
            raise ValueError(f"cannot parse component {chunk!r}")
        comps.append(parts)
    mp = tuple(comps)
    return check_multipartition(mp) if require_partitions else check_multicomposition(mp)


def multipartition_to_json(mp):
    """JSON form: array of d arrays of parts."""
    return [list(comp) for comp in mp]
