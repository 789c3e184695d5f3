"""Deterministic text/JSON/DOT renderers shared by the CLI and the test suite.

The large outputs (canonical bases and decomposition matrices) have writer
functions, write_*(out, ...), that compute everything first and then
stream the text to the file object out; the CLI passes sys.stdout.  Each
render_* function returns the complete output string, for the large
outputs by capturing its writer in an io.StringIO.  Nothing here touches
stdout itself.  All iteration happens over canonically sorted structures,
so equal inputs produce byte-identical output across runs and hash seeds.

Text is made only for what the output shows: a matrix row is a copy of one
blank row with its nonzero cells written in, and a canonical basis formats
each distinct multipartition and each distinct coefficient once.
"""

import io
import json

from .aseq import a_graph, a_sequence
from .canonical import decomposition_matrix, canonical_basis
from .charge import ChargeParams
from .crystal import bijection_j, bijection_j_inverse, crystal_graph
from .partitions import (enumerate_multipartitions, format_multipartition,
                         multipartition_to_json)
from .symbols import a_value, format_rational, ordinary_symbol, shifted_symbol
from .typeb import _a_value_typeb, canonical_basic_set_b, decomposition_matrix_b


def render_enumerate(d: int, n: int, fmt: str = "text") -> str:
    mps = enumerate_multipartitions(d, n)
    if fmt == "json":
        return json.dumps([multipartition_to_json(mp) for mp in mps])
    return "\n".join(format_multipartition(mp) for mp in mps) + "\n"


def render_a_value(p: ChargeParams, mp) -> str:
    a = a_value(mp, p)
    return f"{format_rational(a)} = {float(a)}\n"


def render_symbol(p: ChargeParams, mc, shift: int = 0) -> str:
    if len(mc) != p.d:
        raise ValueError(f"expected {p.d} components, got {len(mc)}")
    sym = ordinary_symbol(mc, shift)
    shifted = shifted_symbol(sym, p.m)
    lines = [f"height {sym.height}"]
    for i, row in enumerate(sym.rows):
        lines.append(f"B[{i}]  = " + " ".join(str(x) for x in row))
    for i, row in enumerate(shifted.rows):
        lines.append(f"B'[{i}] = " + " ".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def render_a_seq(p: ChargeParams, mp) -> str:
    return ",".join(str(k) for k in a_sequence(mp, p)) + "\n"


def render_a_graph(p: ChargeParams, mp, fmt: str = "text") -> str:
    graph = a_graph(mp, p)
    if fmt == "json":
        return json.dumps({
            "stages": [multipartition_to_json(s) for s in graph.stages],
            "steps": [{"residue": k, "row": g.row, "col": g.col, "component": g.comp}
                      for _, g, k in graph.steps],
        })
    lines = [f"({format_multipartition(graph.stages[0])})"]
    for (before, g, k), after in zip(graph.steps, graph.stages[1:]):
        lines.append(f"  --{k}-opt({g.row},{g.comp})--> ({format_multipartition(after)})")
    return "\n".join(lines) + "\n"


def render_crystal(p: ChargeParams, n: int, order: str, fmt: str = "json") -> str:
    graph = crystal_graph(p, n, order)
    if fmt == "dot":
        lines = ["digraph crystal {"]
        for level_edges in graph.edges:
            for src, i, _, dst in level_edges:
                lines.append(f'  "{format_multipartition(src)}" -> '
                             f'"{format_multipartition(dst)}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    return json.dumps({
        "order": order,
        "levels": [[multipartition_to_json(mp) for mp in level]
                   for level in graph.levels],
        "edges": [[[multipartition_to_json(src), i, [g.row, g.col, g.comp],
                    multipartition_to_json(dst)]
                   for src, i, g, dst in level_edges]
                  for level_edges in graph.edges],
    })


def render_bijection(p: ChargeParams, mp, inverse: bool = False) -> str:
    image = bijection_j_inverse(mp, p) if inverse else bijection_j(mp, p)
    return format_multipartition(image) + "\n"


def _capture(write, *args) -> str:
    """What write(out, *args) writes, as one string."""
    buf = io.StringIO()
    write(buf, *args)
    return buf.getvalue()


def write_canonical(out, p: ChargeParams, n: int):
    basis = canonical_basis(p, n)
    # one position and one text per distinct multipartition in any support,
    # and one text per distinct coefficient, keyed by its stored items: a
    # tuple hashes much faster than the polynomial's frozenset, and an equal
    # coefficient stored in another order only formats the same text again
    support = sorted({mp for el in basis for mp in el.vector.terms})
    position = {mp: i for i, mp in enumerate(support)}
    name = {mp: format_multipartition(mp) for mp in support}
    coeff_text = {}
    for el in basis:
        terms = el.vector.terms
        parts = []
        for mp in sorted(terms, key=position.__getitem__):
            c = terms[mp]
            key = tuple(c.coeffs.items())
            text = coeff_text.get(key)
            if text is None:
                text = coeff_text[key] = f"({c})*["
            parts.append(f"{text}{name[mp]}]")
        out.write(f"{name[el.label]}: {' + '.join(parts)}\n")


def render_canonical(p: ChargeParams, n: int) -> str:
    return _capture(write_canonical, p, n)


def _fill(blank, stride, width, pairs, text):
    """blank with cell j of each (j, x) in pairs, the width characters at
    j * stride, replaced by text[x]; pairs ascend in j."""
    pieces, pos = [], 0
    for j, x in pairs:
        start = j * stride
        pieces += (blank[pos:start], text[x])
        pos = start + width
    pieces.append(blank[pos:])
    return "".join(pieces)


def write_matrix(out, matrix, fmt: str = "text"):
    values = {x for pairs in matrix.nonzero for _, x in pairs}
    if fmt == "json":
        # json.dumps of the dense payload, byte for byte: its head is dumped
        # whole and the entries are written row by row
        head = json.dumps({
            "rows": [multipartition_to_json(mp) for mp in matrix.rows],
            "columns": [multipartition_to_json(mp) for mp in matrix.columns],
            "row_a_values": [format_rational(a) for a in matrix.row_a_values],
            "column_a_values": [format_rational(a) for a in matrix.column_a_values],
        })
        out.write(head[:-1] + ', "entries": [')
        blank = ", ".join(["0"] * len(matrix.columns))
        text = {x: str(x) for x in values}
        for i, pairs in enumerate(matrix.nonzero):
            out.write(f"{', ' if i else ''}[{_fill(blank, 3, 1, pairs, text)}]")
        out.write("]")
        if matrix.kleshchev_labels is not None:
            out.write(', "kleshchev_columns": ' + json.dumps(
                [multipartition_to_json(mp) for mp in matrix.kleshchev_labels]))
        out.write("}")
        return
    lines = ["columns:"]
    for j, col in enumerate(matrix.columns):
        dual = ""
        if matrix.kleshchev_labels is not None:
            dual = f"  kleshchev {format_multipartition(matrix.kleshchev_labels[j])}"
        lines.append(f"  [{j}] {format_multipartition(col)}"
                     f"  a={format_rational(matrix.column_a_values[j])}{dual}")
    lines.append("rows:")
    out.write("\n".join(lines) + "\n")
    labels = [format_multipartition(mp) for mp in matrix.rows]
    label_width = max(map(len, labels), default=1)
    # "0" is one character wide, so the nonzero values alone fix the width
    width = max((len(str(x)) for x in values), default=1)
    cell = {x: f"{x:>{width}}" for x in values}
    blank = " ".join([f"{'.':>{width}}"] * len(matrix.columns))
    for label, pairs in zip(labels, matrix.nonzero):
        out.write(f"  {label:<{label_width}}  | {_fill(blank, width + 1, width, pairs, cell)}\n")


def render_matrix(matrix, fmt: str = "text") -> str:
    return _capture(write_matrix, matrix, fmt)


def write_decomp(out, p: ChargeParams, n: int, fmt: str = "text"):
    write_matrix(out, decomposition_matrix(p, n), fmt)


def render_decomp(p: ChargeParams, n: int, fmt: str = "text") -> str:
    return _capture(write_decomp, p, n, fmt)


def write_typeb(out, n: int, e: int, action: str, fmt: str = "text"):
    if e < 2:
        raise ValueError("e must be at least 2")
    if action == "basic-set":
        labels = canonical_basic_set_b(n, e)
        if fmt == "json":
            out.write(json.dumps([multipartition_to_json(bp) for bp in labels]))
        else:
            out.write("\n".join(format_multipartition(bp) for bp in labels) + "\n")
    elif action == "a-values":
        pairs = [(bp, _a_value_typeb(bp)) for bp in enumerate_multipartitions(2, n)]
        if fmt == "json":
            out.write(json.dumps([[multipartition_to_json(bp), a] for bp, a in pairs]))
        else:
            out.write("\n".join(f"{format_multipartition(bp)}: {a}" for bp, a in pairs) + "\n")
    elif action == "decomp":
        write_matrix(out, decomposition_matrix_b(n, e), fmt)
    else:
        raise ValueError(f"unknown type B action {action!r}")


def render_typeb(n: int, e: int, action: str, fmt: str = "text") -> str:
    return _capture(write_typeb, n, e, action, fmt)
