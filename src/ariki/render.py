"""Deterministic text/JSON/DOT renderers shared by the CLI and the test suite.

Every function returns a complete output string; nothing here touches
stdout.  All iteration happens over canonically sorted structures, so equal
inputs produce byte-identical output across runs and hash seeds.
"""

import json

from .aseq import a_graph, a_sequence
from .canonical import decomposition_matrix, canonical_basis
from .charge import ChargeParams
from .crystal import bijection_j, bijection_j_inverse, crystal_graph
from .partitions import (enumerate_multipartitions, format_multipartition,
                         multipartition_to_json)
from .symbols import a_value, format_rational, ordinary_symbol, shifted_symbol
from .typeb import (a_value_typeb, bipartitions_of, canonical_basic_set_b,
                    decomposition_matrix_b)


def render_enumerate(d: int, n: int, fmt: str = "text") -> str:
    mps = enumerate_multipartitions(d, n)
    if fmt == "json":
        return json.dumps([multipartition_to_json(mp) for mp in mps])
    return "\n".join(format_multipartition(mp) for mp in mps) + "\n"


def render_a_value(p: ChargeParams, mp) -> str:
    a = a_value(mp, p)
    return f"{format_rational(a)} = {float(a)}\n"


def render_symbol(p: ChargeParams, mc, shift: int = 0) -> str:
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


def render_canonical(p: ChargeParams, n: int) -> str:
    lines = [f"{format_multipartition(el.label)}: {el.vector}"
             for el in canonical_basis(p, n)]
    return "\n".join(lines) + "\n"


def render_matrix(matrix, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "rows": [multipartition_to_json(mp) for mp in matrix.rows],
            "columns": [multipartition_to_json(mp) for mp in matrix.columns],
            "row_a_values": [format_rational(a) for a in matrix.row_a_values],
            "column_a_values": [format_rational(a) for a in matrix.column_a_values],
            "entries": [list(row) for row in matrix.entries],
        }
        if matrix.kleshchev_labels is not None:
            payload["kleshchev_columns"] = [multipartition_to_json(mp)
                                            for mp in matrix.kleshchev_labels]
        return json.dumps(payload)
    lines = ["columns:"]
    for j, col in enumerate(matrix.columns):
        dual = ""
        if matrix.kleshchev_labels is not None:
            dual = f"  kleshchev {format_multipartition(matrix.kleshchev_labels[j])}"
        lines.append(f"  [{j}] {format_multipartition(col)}"
                     f"  a={format_rational(matrix.column_a_values[j])}{dual}")
    labels = [format_multipartition(mp) for mp in matrix.rows]
    label_width = max(map(len, labels), default=1)
    # the matrix has few distinct values: pad each once, then look cells up
    values = set()
    for row in matrix.entries:
        values.update(row)
    entry_width = max((len(str(x)) for x in values), default=1)
    cell = {x: f"{x if x else '.':>{entry_width}}" for x in values}
    lines.append("rows:")
    for label, row in zip(labels, matrix.entries):
        cells = " ".join(map(cell.__getitem__, row))
        lines.append(f"  {label:<{label_width}}  | {cells}")
    return "\n".join(lines) + "\n"


def render_decomp(p: ChargeParams, n: int, fmt: str = "text") -> str:
    return render_matrix(decomposition_matrix(p, n), fmt)


def render_typeb(n: int, e: int, action: str, fmt: str = "text") -> str:
    if action == "basic-set":
        labels = canonical_basic_set_b(n, e)
        if fmt == "json":
            return json.dumps([multipartition_to_json(bp) for bp in labels])
        return "\n".join(format_multipartition(bp) for bp in labels) + "\n"
    if action == "a-values":
        pairs = [(bp, a_value_typeb(bp)) for bp in bipartitions_of(n)]
        if fmt == "json":
            return json.dumps([[multipartition_to_json(bp), a] for bp, a in pairs])
        return "\n".join(f"{format_multipartition(bp)}: {a}" for bp, a in pairs) + "\n"
    if action == "decomp":
        return render_matrix(decomposition_matrix_b(n, e), fmt)
    raise ValueError(f"unknown type B action {action!r}")
