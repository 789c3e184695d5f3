"""The four benchmark workloads: one untraced pass, one traced pass and the
structural checks on the output of each.

Everything here calls public names of the package only.  A traced pass
replays the untraced one call by call, with a span around every call into a
module, and must produce the same output bytes.  Where a public function
hides several layers (canonical_basis, decomposition_matrix_b), the traced
pass also calls the inner layers' public functions on their own; the layer
left inside is then derived as the difference, and the repeated calls are
reported as replay time so that tracing overhead can be separated from it.
"""

import hashlib
import random
import re
from fractions import Fraction
from time import perf_counter, perf_counter_ns, process_time

from ariki import (ChargeParams, DecompositionMatrix, FockVector, a_sequence,
                   a_sequence_blocks, a_value, bijection_j, bijection_j_inverse,
                   canonical_basis, compute_A, decomposition_matrix,
                   decomposition_matrix_b, enumerate_multipartitions, f_divided,
                   flotw_multipartitions, kleshchev_multipartitions)
from ariki.partitions import empty_multipartition, format_multipartition
from ariki.render import (render_a_seq, render_a_value, render_bijection,
                          render_canonical, render_decomp, render_matrix,
                          render_typeb)
from ariki.symbols import format_rational
from ariki.typeb import type_a_params

# Span names that canonical_basis performs again inside its own span.
BASIS_INSIDE = ("partitions.enumerate", "symbols.a_value", "crystal.flotw_labels",
                "aseq.a_seq", "fock.f_divided")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """What one pass produced: timings, per-request outputs and failures."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.outputs = []       # (request key, output text or None)
        self.latency_ns = []    # per request, in request order
        self.errors = []
        self.extra = {}         # what the structural checks need


def _timed(fn, *args):
    """(result, wall seconds, cpu seconds, error text)."""
    w0, c0 = perf_counter(), process_time()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # a failed request is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, perf_counter() - w0, process_time() - c0, err


def batch_pass(fn, *args):
    """A pass that is one request: one call that returns the whole output."""
    o = Outcome()
    text, o.wall_s, o.cpu_s, err = _timed(fn, *args)
    o.outputs = [("output", text)]
    o.latency_ns = [round(o.wall_s * 1e9)]
    o.errors += [err] if err else []
    return o


# ---------------------------------------------------------------- structure

_TERM = re.compile(r"\(([^()]*)\)\*\[([^\]]*)\]")
_SIGN = re.compile(r" [+-] ")


def parse_matrix(text):
    """(column labels, column a-values, row labels, entries) of a text matrix."""
    head, rows_part = text.split("\nrows:\n", 1)
    cols, col_a = [], []
    for line in head.splitlines()[1:]:
        fields = line.split()
        cols.append(fields[1])
        col_a.append(Fraction(fields[2][2:]))
    rows, entries = [], []
    for line in rows_part.splitlines():
        label, cells = line.split(" | ", 1)
        rows.append(label.strip())
        entries.append([0 if c == "." else int(c) for c in cells.split()])
    return cols, col_a, rows, entries


def unitriangular_errors(text):
    """Why the matrix is not unitriangular in its a-sorted order, if it is not."""
    cols, col_a, rows, entries = parse_matrix(text)
    if any(len(line) != len(cols) for line in entries):
        return ["ragged matrix"]
    if col_a != sorted(col_a):
        return ["columns are not sorted by a-value"]
    pos = {label: i for i, label in enumerate(rows)}
    errors, prev = [], -1
    for j, col in enumerate(cols):
        r = pos.get(col)
        if r is None or r <= prev:
            errors.append(f"column {col} has no row after the previous column's")
            continue
        if entries[r][j] != 1 or any(entries[i][j] for i in range(r)):
            errors.append(f"column {col} is not unitriangular")
        prev = r
    return errors


def exponents(poly_text):
    """Exponents of the monomials of a printed Laurent polynomial."""
    out = []
    for mono in _SIGN.split(poly_text):
        mono = mono.lstrip("-")
        if "q" not in mono:
            out.append(0)
        elif mono.endswith("q"):
            out.append(1)
        else:
            out.append(int(mono.split("^", 1)[1]))
    return out


def canonical_errors(text):
    """Leading coefficient 1 and every other coefficient in q*Z[q], per line."""
    errors = []
    for line in text.splitlines():
        label, _, body = line.partition(": ")
        leads = 0
        for poly, mp in _TERM.findall(body):
            if mp == label:
                leads += 1
                if poly != "1":
                    errors.append(f"{label}: leading coefficient {poly}")
            elif min(exponents(poly)) < 1:
                errors.append(f"{label}: coefficient of {mp} is {poly}, not in qZ[q]")
        if leads != 1:
            errors.append(f"{label}: leading term appears {leads} times")
    return errors


# ---------------------------------------------------------------- batch passes

def replay_compute_A(tr, mp, p):
    """compute_A as a_sequence_blocks plus one f_divided per block, traced."""
    blocks = tr.call("aseq.a_seq", a_sequence_blocks, mp, p)
    tr.add("aseq.blocks", len(blocks))
    vec = FockVector.unit(empty_multipartition(p.d))
    for i, count in blocks:
        vec = tr.call("fock.f_divided", f_divided, vec, i, count, "flotw", p)
        tr.add("fock.terms_out", len(vec.terms))
    tr.add("fock.A_terms", len(vec.terms))
    for poly in vec.terms.values():
        tr.add("laurent.monomials", len(poly.coeffs))
        tr.peak("laurent.max_abs_coeff", max(abs(c) for c in poly.coeffs.values()))
        tr.peak("laurent.max_degree", max(abs(e) for e in poly.coeffs))
    return vec


def traced_basis(tr, p, n):
    """canonical_basis with its inner layers replayed beside it.

    Returns (rows, a-values, labels, replayed A vectors, basis)."""
    rows = tr.call("partitions.enumerate", enumerate_multipartitions, p.d, n)
    tr.add("partitions.multipartitions", len(rows))
    avals = {mp: tr.call("symbols.a_value", a_value, mp, p) for mp in rows}
    labels = tr.call("crystal.flotw_labels", flotw_multipartitions, p, n)
    tr.add("crystal.labels", len(labels))
    replayed = {mp: replay_compute_A(tr, mp, p) for mp in labels}
    basis = tr.call("canonical.basis", canonical_basis, p, n)
    tr.add("canonical.basis_terms", sum(len(el.vector.terms) for el in basis))
    return rows, avals, labels, replayed, basis


def derived_ns(tr):
    """Layers left inside an opaque call: its span minus the replayed ones."""
    out = {}
    if tr.durations("canonical.basis"):
        out["canonical.straighten"] = (tr.total_ns(["canonical.basis"])
                                       - tr.total_ns(BASIS_INSIDE))
    if tr.durations("typeb.matrix"):
        out["typeb.assemble"] = tr.total_ns(["typeb.matrix"]) - tr.total_ns(["typeb.factors"])
    return out


def replay_errors(p, replayed):
    """Labels whose traced compute_A replay differs from compute_A."""
    return [f"replayed A({mp}) differs from compute_A"
            for mp, vec in replayed.items() if compute_A(mp, p) != vec]


class DecompE4:
    """render_decomp at (2,4,(0,1)), n = 12: many labels with small vectors."""
    n = 12
    # Spans whose work decomposition_matrix does only once, inside canonical_basis.
    replay = ("crystal.flotw_labels", "aseq.a_seq", "fock.f_divided")

    def params(self):
        return ChargeParams(2, 4, (0, 1))

    def run(self, p, seed):
        return batch_pass(render_decomp, p, self.n)

    def run_traced(self, p, seed, tr):
        o = Outcome()
        w0 = perf_counter()
        rows, avals, labels, replayed, basis = traced_basis(tr, p, self.n)
        with tr.span("canonical.assemble"):
            rows = sorted(rows, key=lambda m: (avals[m], m))
            columns = tuple(el.label for el in basis)
            specialized = [el.vector.at_one() for el in basis]
            entries = tuple(tuple(spec.get(mp, 0) for spec in specialized)
                            for mp in rows)
        kleshchev = tuple(tr.call("crystal.bijection_inverse", bijection_j_inverse, c, p)
                          for c in columns)
        matrix = DecompositionMatrix(
            rows=tuple(rows), columns=columns, kleshchev_labels=kleshchev,
            entries=entries, row_a_values=tuple(avals[mp] for mp in rows),
            column_a_values=tuple(avals[mp] for mp in columns))
        text = tr.call("render.format", render_matrix, matrix)
        o.wall_s = perf_counter() - w0
        o.outputs = [("output", text)]
        o.extra["replayed"] = replayed
        return o

    def check(self, p, o):
        text = o.outputs[0][1]
        errors = unitriangular_errors(text)
        columns = len(parse_matrix(text)[0])
        klesh = len(kleshchev_multipartitions(p, self.n))
        if columns != klesh:
            errors.append(f"{columns} columns but {klesh} Kleshchev multipartitions")
        return errors + replay_errors(p, o.extra.get("replayed", {}))

    @staticmethod
    def items(text):
        """Matrix columns."""
        return text.split("\nrows:\n", 1)[0].count("\n")


class CanonicalE2:
    """render_canonical at (2,2,(0,1)), n = 13: few labels with huge vectors."""
    n = 13
    replay = BASIS_INSIDE

    def params(self):
        return ChargeParams(2, 2, (0, 1))

    def run(self, p, seed):
        return batch_pass(render_canonical, p, self.n)

    def run_traced(self, p, seed, tr):
        o = Outcome()
        w0 = perf_counter()
        _, _, _, replayed, basis = traced_basis(tr, p, self.n)
        with tr.span("render.format"):
            lines = []
            for el in basis:
                terms = " + ".join(
                    f"({el.vector.coefficient(mp)})*[{format_multipartition(mp)}]"
                    for mp in el.vector.support())
                lines.append(f"{format_multipartition(el.label)}: {terms}")
            text = "\n".join(lines) + "\n"
        o.wall_s = perf_counter() - w0
        o.outputs = [("output", text)]
        o.extra["replayed"] = replayed
        return o

    def check(self, p, o):
        text = o.outputs[0][1]
        errors = canonical_errors(text)
        labels = text.count("\n")
        klesh = len(kleshchev_multipartitions(p, self.n))
        if labels != klesh:
            errors.append(f"{labels} basis elements but {klesh} Kleshchev multipartitions")
        return errors + replay_errors(p, o.extra.get("replayed", {}))

    @staticmethod
    def items(text):
        """Basis elements."""
        return text.count("\n")


class TypeBOdd:
    """render_typeb(n=12, e=3, "decomp"): the odd-e product rule."""
    n, e = 12, 3
    replay = ("typeb.factors",)

    def params(self):
        return type_a_params(self.e)

    def run(self, p, seed):
        return batch_pass(render_typeb, self.n, self.e, "decomp")

    def run_traced(self, p, seed, tr):
        o = Outcome()
        w0 = perf_counter()
        with tr.span("typeb.factors"):
            for size in range(self.n + 1):
                tr.call("typeb.factor", decomposition_matrix, p, size)
        matrix = tr.call("typeb.matrix", decomposition_matrix_b, self.n, self.e)
        tr.add("typeb.entries", len(matrix.rows) * len(matrix.columns))
        tr.add("typeb.nonzero", sum(1 for line in matrix.entries for x in line if x))
        text = tr.call("render.format", render_matrix, matrix)
        o.wall_s = perf_counter() - w0
        o.outputs = [("output", text)]
        return o

    def check(self, p, o):
        text = o.outputs[0][1]
        errors = unitriangular_errors(text)
        columns = len(parse_matrix(text)[0])
        # basic set = bipartitions with both components e-regular, and the
        # d = 1 Kleshchev partitions are exactly the e-regular ones
        regular = [len(kleshchev_multipartitions(p, k)) for k in range(self.n + 1)]
        expected = sum(regular[k] * regular[self.n - k] for k in range(self.n + 1))
        if columns != expected:
            errors.append(f"{columns} columns but {expected} e-regular bipartitions")
        return errors

    items = staticmethod(DecompE4.items)


# ---------------------------------------------------------------- vertex queries

KINDS = ("a_value", "a_seq", "bijection_inverse", "bijection")


class VertexQueries:
    """Single-vertex requests in a seeded order at (3,4,(0,1,3)), n = 10."""
    n = 10
    replay = ()

    def params(self):
        return ChargeParams(3, 4, (0, 1, 3))

    def _requests(self, seed, rows, diag, klesh):
        """(kind, index, vertex) in the seeded order; indices refer to the
        canonically sorted vertex lists."""
        lists = {"a_value": sorted(rows), "a_seq": sorted(diag),
                 "bijection_inverse": sorted(diag), "bijection": sorted(klesh)}
        reqs = [(kind, i, mp) for kind in KINDS for i, mp in enumerate(lists[kind])]
        random.Random(seed).shuffle(reqs)
        return reqs

    def _vertex_lists(self, p, call):
        rows = call("partitions.enumerate", enumerate_multipartitions, p.d, self.n)
        diag = call("crystal.flotw_labels", flotw_multipartitions, p, self.n)
        klesh = call("crystal.kleshchev", kleshchev_multipartitions, p, self.n)
        return rows, diag, klesh

    def _finish(self, o, rows, diag, klesh, reqs, outputs):
        o.outputs = [((kind, i), out) for (kind, i, _), out in zip(reqs, outputs)]
        o.extra["lists"] = (rows, diag, klesh)

    def run(self, p, seed):
        o = Outcome()
        render = {"a_value": render_a_value, "a_seq": render_a_seq,
                  "bijection_inverse": lambda p, mp: render_bijection(p, mp, inverse=True),
                  "bijection": render_bijection}
        lists, o.wall_s, o.cpu_s, err = _timed(
            self._vertex_lists, p, lambda name, fn, *args: fn(*args))
        if err:
            o.errors.append(err)
            return o
        reqs = self._requests(seed, *lists)
        outputs = []
        w0, c0 = perf_counter(), process_time()
        for kind, _, mp in reqs:
            t0 = perf_counter_ns()
            try:
                out = render[kind](p, mp)
            except Exception as exc:  # a failed request is counted, not fatal
                out = None
                o.errors.append(f"{kind} {mp}: {type(exc).__name__}: {exc}")
            o.latency_ns.append(perf_counter_ns() - t0)
            outputs.append(out)
        o.wall_s += perf_counter() - w0
        o.cpu_s += process_time() - c0
        self._finish(o, *lists, reqs, outputs)
        return o

    def run_traced(self, p, seed, tr):
        o = Outcome()
        w0 = perf_counter()
        lists = self._vertex_lists(p, tr.call)
        rows, diag, klesh = lists
        tr.add("partitions.multipartitions", len(rows))
        tr.add("crystal.labels", len(diag))
        tr.add("crystal.kleshchev_labels", len(klesh))
        skipped = perf_counter()
        reqs = self._requests(seed, *lists)
        w0 += perf_counter() - skipped
        layer = {
            "a_value": ("symbols.a_value", a_value,
                        lambda a: f"{format_rational(a)} = {float(a)}\n"),
            "a_seq": ("aseq.a_seq", a_sequence,
                      lambda seq: ",".join(str(k) for k in seq) + "\n"),
            "bijection_inverse": ("crystal.bijection_inverse", bijection_j_inverse,
                                  lambda mp: format_multipartition(mp) + "\n"),
            "bijection": ("crystal.bijection", bijection_j,
                          lambda mp: format_multipartition(mp) + "\n"),
        }
        outputs = []
        for number, (kind, _, mp) in enumerate(reqs, start=1):
            tr.request = number
            name, fn, fmt = layer[kind]
            with tr.span("request"):
                value = tr.call(name, fn, mp, p)
                outputs.append(tr.call("render.format", fmt, value))
        tr.request = 0
        o.wall_s = perf_counter() - w0
        self._finish(o, *lists, reqs, outputs)
        return o

    def check(self, p, o):
        rows, diag, klesh = o.extra["lists"]
        errors = []
        if len(diag) != len(klesh):
            errors.append(f"{len(diag)} diagonal but {len(klesh)} Kleshchev vertices")
        errors += [f"bijection_j(bijection_j_inverse({mp})) != {mp}"
                   for mp in diag if bijection_j(bijection_j_inverse(mp, p), p) != mp]
        errors += [f"bijection_j_inverse(bijection_j({mp})) != {mp}"
                   for mp in klesh if bijection_j_inverse(bijection_j(mp, p), p) != mp]
        return errors

    @staticmethod
    def lists_digest(o):
        return sha256("\n".join(";".join(format_multipartition(mp) for mp in sorted(lst))
                                for lst in o.extra["lists"]))


WORKLOADS = {"decomp_e4": DecompE4(), "canonical_e2": CanonicalE2(),
             "vertex_queries": VertexQueries(), "typeb_odd": TypeBOdd()}
