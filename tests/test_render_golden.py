"""Byte identity of the large renderers, pinned by SHA-256 digests.

render_digests.json holds the digest of every output below.  Outputs are
byte-stable across versions, so a digest changes only with a deliberate,
documented change of output, and the file is regenerated with it.
"""

import hashlib
import json
import os

from ariki.charge import ChargeParams
from ariki.crystal import flotw_multipartitions, kleshchev_multipartitions
from ariki.partitions import enumerate_multipartitions
from ariki.render import (render_a_graph, render_a_seq, render_a_value, render_bijection,
                          render_canonical, render_crystal, render_decomp, render_enumerate,
                          render_symbol, render_typeb)
from ariki.verification import GRID

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "render_digests.json")


def _cases():
    """(name, thunk) of every pinned output."""
    points = [(p, n) for p in GRID for n in range(7)]
    points.append((ChargeParams(2, 2, (0, 1)), 9))
    for p, n in points:
        key = f"{p.d},{p.e},{','.join(map(str, p.v))},n={n}"
        yield f"canonical {key}", lambda p=p, n=n: render_canonical(p, n)
        yield f"decomp text {key}", lambda p=p, n=n: render_decomp(p, n)
        yield f"decomp json {key}", lambda p=p, n=n: render_decomp(p, n, "json")
    # the crystals and the bijection, in both orders and directions, on
    # every vertex
    for p in GRID:
        for n in range(1, 7):
            key = f"{p.d},{p.e},{','.join(map(str, p.v))},n={n}"
            for order in ("am", "flotw"):
                for fmt in ("json", "dot"):
                    yield (f"crystal {order} {fmt} {key}",
                           lambda p=p, n=n, order=order, fmt=fmt:
                           render_crystal(p, n, order, fmt))
            yield (f"bijection {key}", lambda p=p, n=n: "".join(
                render_bijection(p, mp) for mp in kleshchev_multipartitions(p, n)))
            yield (f"bijection inverse {key}", lambda p=p, n=n: "".join(
                render_bijection(p, mp, True) for mp in flotw_multipartitions(p, n)))
    # the single-multipartition queries, joined over every multipartition
    # (a-value, symbol) or every diagonal-order vertex (a-seq, a-graph) of
    # each rank
    for p in GRID:
        for n in range(7):
            key = f"{p.d},{p.e},{','.join(map(str, p.v))},n={n}"
            yield (f"a-value {key}", lambda p=p, n=n: "".join(
                render_a_value(p, mp) for mp in enumerate_multipartitions(p.d, n)))
            for shift in (0, 1):
                yield (f"symbol shift={shift} {key}", lambda p=p, n=n, shift=shift: "".join(
                    render_symbol(p, mp, shift) for mp in enumerate_multipartitions(p.d, n)))
            yield (f"a-seq {key}", lambda p=p, n=n: "".join(
                render_a_seq(p, mp) for mp in flotw_multipartitions(p, n)))
            for fmt in ("text", "json"):
                yield (f"a-graph {fmt} {key}", lambda p=p, n=n, fmt=fmt: "".join(
                    render_a_graph(p, mp, fmt) for mp in flotw_multipartitions(p, n)))
    for d in range(1, 4):
        for n in range(7):
            for fmt in ("text", "json"):
                yield (f"enumerate {fmt} d={d},n={n}",
                       lambda d=d, n=n, fmt=fmt: render_enumerate(d, n, fmt))
    for e in (3, 4):
        for n in range(8):
            for fmt in ("text", "json"):
                yield (f"typeb decomp {fmt} e={e},n={n}",
                       lambda n=n, e=e, fmt=fmt: render_typeb(n, e, "decomp", fmt))
                yield (f"typeb basic-set {fmt} e={e},n={n}",
                       lambda n=n, e=e, fmt=fmt: render_typeb(n, e, "basic-set", fmt))
    # the a-values read no e
    for n in range(8):
        for fmt in ("text", "json"):
            yield (f"typeb a-values {fmt} n={n}",
                   lambda n=n, fmt=fmt: render_typeb(n, 3, "a-values", fmt))


def test_render_outputs_match_golden_digests():
    with open(DIGESTS) as fh:
        golden = json.load(fh)
    got = {name: hashlib.sha256(thunk().encode()).hexdigest() for name, thunk in _cases()}
    assert set(got) == set(golden)
    assert [name for name in got if got[name] != golden[name]] == []
