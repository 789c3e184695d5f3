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
each distinct coefficient once.  Labels are formatted once per distinct
component: each call keeps one _Labels table of {component: text}, filled
through format_multipartition((component,)), so a matrix's rows, columns
and kleshchev labels, a canonical basis's support, and the enumerate,
crystal DOT and typeb basic-set and a-values lists join the texts of
components they have already met; the table ends with the call.  The
format itself has its one definition in partitions.format_multipartition.

render_enumerate, render_a_graph, render_crystal, write_matrix,
write_decomp and write_typeb reject an unknown format with a ValueError
naming the allowed ones, before they compute or write anything.

Importing this module loads neither json nor fractions: json is imported
in _dumps, on the JSON paths only (enumerate, a-graph, crystal, decomp and
typeb with JSON output, and crystal's default output), and render_a_value
formats the integer d*a without a Fraction.  render_symbol, and decomp
and even-e typeb decomp through their matrices' a-values, still build
Fractions.
"""

import io
from math import gcd

from .aseq import a_graph, a_sequence
from .canonical import decomposition_matrix, canonical_basis
from .charge import ChargeParams
from .crystal import bijection_j, bijection_j_inverse, crystal_graph
from .partitions import (check_components, enumerate_multipartitions,
                         format_multipartition, multipartition_to_json)
from .symbols import (_format_ratio, _scaled_a_value, format_rational, ordinary_symbol,
                      shifted_symbol)
from .typeb import _a_values_typeb, canonical_basic_set_b, decomposition_matrix_b


def _dumps(obj) -> str:
    """json.dumps(obj), with json imported on first use."""
    import json
    return json.dumps(obj)


def _check_format(fmt: str, allowed):
    if fmt not in allowed:
        raise ValueError(f"unknown format {fmt!r}; expected one of {', '.join(allowed)}")


class _Labels(dict):
    """format_multipartition(mp) as labels(mp), each distinct component
    formatted once: a table of {component: text} for one call."""
    __slots__ = ()

    def __missing__(self, comp):
        text = self[comp] = format_multipartition((comp,))
        return text

    def __call__(self, mp) -> str:
        return ",".join(map(self.__getitem__, mp))


def render_enumerate(d: int, n: int, fmt: str = "text") -> str:
    _check_format(fmt, ("text", "json"))
    mps = enumerate_multipartitions(d, n)
    if fmt == "json":
        return _dumps([multipartition_to_json(mp) for mp in mps])
    return "\n".join(map(_Labels(), mps)) + "\n"


def render_a_value(p: ChargeParams, mp) -> str:
    # symbols.a_value as text, read off the integer x = d*a with no Fraction:
    # x / d is the correctly rounded float of x/d, as float(Fraction(x, d)) is
    x = _scaled_a_value(check_components(mp, p.d), p)
    g = gcd(x, p.d)
    return f"{_format_ratio(x // g, p.d // g)} = {x / p.d}\n"


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
    _check_format(fmt, ("text", "json"))
    graph = a_graph(mp, p)
    if fmt == "json":
        return _dumps({
            "stages": [multipartition_to_json(s) for s in graph.stages],
            "steps": [{"residue": k, "row": g.row, "col": g.col, "component": g.comp}
                      for _, g, k in graph.steps],
        })
    lines = [f"({format_multipartition(graph.stages[0])})"]
    for (before, g, k), after in zip(graph.steps, graph.stages[1:]):
        lines.append(f"  --{k}-opt({g.row},{g.comp})--> ({format_multipartition(after)})")
    return "\n".join(lines) + "\n"


def render_crystal(p: ChargeParams, n: int, order: str, fmt: str = "json") -> str:
    _check_format(fmt, ("json", "dot"))
    graph = crystal_graph(p, n, order)
    if fmt == "dot":
        label = _Labels()
        lines = ["digraph crystal {"]
        for level_edges in graph.edges:
            for src, i, _, dst in level_edges:
                lines.append(f'  "{label(src)}" -> "{label(dst)}" [label="{i}"];')
        if not any(graph.edges):  # rank 0: the one vertex lies on no edge
            lines += [f'  "{label(mp)}";' for level in graph.levels for mp in level]
        lines.append("}")
        return "\n".join(lines) + "\n"
    return _dumps({
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
    # and one text per coefficient object, keyed by its id: canonical_basis
    # makes one object per distinct value (canonical._unpacked), every
    # object stays alive in basis while the writer runs, and an equal value
    # held by a second object only formats the same text again
    support = sorted({mp for el in basis for mp in el.vector.terms})
    position = {mp: i for i, mp in enumerate(support)}
    name = dict(zip(support, map(_Labels(), support)))
    coeff_text = {}
    for el in basis:
        terms = el.vector.terms
        parts = []
        for mp in sorted(terms, key=position.__getitem__):
            c = terms[mp]
            text = coeff_text.get(id(c))
            if text is None:
                text = coeff_text[id(c)] = f"({c})*["
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
    _check_format(fmt, ("text", "json"))
    values = {x for pairs in matrix.nonzero for _, x in pairs}
    if fmt == "json":
        # json.dumps of the dense payload, byte for byte: its head is dumped
        # whole and the entries are written row by row
        head = _dumps({
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
            out.write(', "kleshchev_columns": ' + _dumps(
                [multipartition_to_json(mp) for mp in matrix.kleshchev_labels]))
        out.write("}")
        return
    label = _Labels()
    lines = ["columns:"]
    for j, col in enumerate(matrix.columns):
        dual = ""
        if matrix.kleshchev_labels is not None:
            dual = f"  kleshchev {label(matrix.kleshchev_labels[j])}"
        lines.append(f"  [{j}] {label(col)}"
                     f"  a={format_rational(matrix.column_a_values[j])}{dual}")
    lines.append("rows:")
    out.write("\n".join(lines) + "\n")
    labels = list(map(label, matrix.rows))
    label_width = max(map(len, labels), default=1)
    # "0" is one character wide, so the nonzero values alone fix the width
    width = max((len(str(x)) for x in values), default=1)
    cell = {x: f"{x:>{width}}" for x in values}
    blank = " ".join([f"{'.':>{width}}"] * len(matrix.columns))
    for label, pairs in zip(labels, matrix.nonzero):
        out.write(f"  {label:<{label_width}}  | {_fill(blank, width + 1, width, pairs, cell)}\n")


def render_matrix(matrix) -> str:
    return _capture(write_matrix, matrix)


def write_decomp(out, p: ChargeParams, n: int, fmt: str = "text"):
    _check_format(fmt, ("text", "json"))
    write_matrix(out, decomposition_matrix(p, n), fmt)


def render_decomp(p: ChargeParams, n: int, fmt: str = "text") -> str:
    return _capture(write_decomp, p, n, fmt)


def write_typeb(out, n: int, e: int, action: str, fmt: str = "text"):
    """The type B action at rank n; the a-values read no e."""
    if action not in ("basic-set", "a-values", "decomp"):
        raise ValueError(f"unknown type B action {action!r}")
    _check_format(fmt, ("text", "json"))
    if action == "basic-set":
        labels = canonical_basic_set_b(n, e)
        if fmt == "json":
            out.write(_dumps([multipartition_to_json(bp) for bp in labels]))
        else:
            out.write("\n".join(map(_Labels(), labels)) + "\n")
    elif action == "a-values":
        pairs = _a_values_typeb(enumerate_multipartitions(2, n)).items()
        if fmt == "json":
            out.write(_dumps([[multipartition_to_json(bp), a] for bp, a in pairs]))
        else:
            label = _Labels()
            out.write("\n".join(f"{label(bp)}: {a}" for bp, a in pairs) + "\n")
    else:
        write_matrix(out, decomposition_matrix_b(n, e), fmt)


def render_typeb(n: int, e: int, action: str, fmt: str = "text") -> str:
    return _capture(write_typeb, n, e, action, fmt)
