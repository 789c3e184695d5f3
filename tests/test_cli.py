"""Command-line behavior: outputs, exit codes, schemas, determinism."""

import io
import json
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

import ariki
from ariki import crystal
from ariki.canonical import DecompositionMatrix, canonical_basis
from ariki.cli import MAX_MP_RANK, main
from ariki.charge import ChargeParams
from ariki.partitions import format_multipartition
from ariki.render import (render_a_graph, render_canonical, render_crystal, render_decomp,
                          render_enumerate, render_matrix, render_typeb, write_decomp,
                          write_matrix, write_typeb)
from ariki.symbols import format_rational
from ariki.verification import GRID


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_seq_known_chain(capsys):
    code, out, _ = run_cli(capsys, "a-seq", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "2.2,2.2.1")
    assert code == 0
    assert out == "1,0,0,3,3,2,1,1,0\n"


def test_a_value_output(capsys):
    code, out, _ = run_cli(capsys, "a-value", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "2.2,2.2.1")
    assert code == 0
    assert out == "17 = 17.0\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--d", "2", "--n", "0")
    assert code == 0 and out == "-,-\n"
    # many components: the enumeration must not recurse once per component
    code, out, _ = run_cli(capsys, "enumerate", "--d", "1100", "--n", "0")
    assert code == 0 and out == ",".join(["-"] * 1100) + "\n"
    code, out, _ = run_cli(capsys, "enumerate", "--d", "2", "--n", "2",
                           "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 5


def test_decomp_semisimple_identity(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--d", "1", "--e", "5",
                           "--charges", "0", "--n", "2")
    assert code == 0
    assert "2    | 1 ." in out and "1.1  | . 1" in out


def test_decomp_json_schema(capsys):
    code, out, _ = run_cli(capsys, "decomp", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"rows", "columns", "row_a_values",
                            "column_a_values", "entries", "kleshchev_columns"}
    assert len(payload["entries"]) == len(payload["rows"])
    assert all(len(r) == len(payload["columns"]) for r in payload["entries"])


def test_symbol_output(capsys):
    code, out, _ = run_cli(capsys, "symbol", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "1,-")
    assert code == 0
    assert "B[0]  = 1" in out and "B'[0] = 5" in out and "B'[1] = 3" in out


def test_crystal_json_and_dot(capsys):
    code, out, _ = run_cli(capsys, "crystal", "--d", "1", "--e", "2",
                           "--charges", "0", "--n", "3",
                           "--order", "flotw")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][3] == [[[2, 1]], [[3]]]
    code, out, _ = run_cli(capsys, "crystal", "--d", "1", "--e", "2",
                           "--charges", "0", "--n", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '"1" -> "2" [label="1"];' in out


def test_crystal_dot_lists_every_vertex(capsys):
    # the rank-0 crystal's one vertex lies on no edge and is written alone;
    # at every higher rank each vertex lies on an edge, the JSON's vertices
    for order in ("am", "flotw"):
        code, out, _ = run_cli(capsys, "crystal", "--d", "2", "--e", "4",
                               "--charges", "0,1", "--n", "0", "--order", order, "--dot")
        assert code == 0 and out == 'digraph crystal {\n  "-,-";\n}\n'
        p = ChargeParams(2, 4, (0, 1))
        for n in range(1, 5):
            graph = crystal.crystal_graph(p, n, order)
            dot = render_crystal(p, n, order, "dot")
            named = {name for line in dot.splitlines()[1:-1]
                     for name in line.split('"')[1:4:2]}
            assert named == {format_multipartition(mp) for level in graph.levels
                             for mp in level}, (order, n)
            assert all(line.endswith("];") for line in dot.splitlines()[1:-1])


def test_bijection(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "1.1,-")
    assert code == 0 and out.strip() != ""
    code, out, err = run_cli(capsys, "bijection", "--d", "1", "--e", "2",
                             "--charges", "0", "--mp", "1.1")
    assert code == 2 and "error" in err


def test_bijection_wrong_component_count_exit_2(capsys):
    for flags in ([], ["--inverse"]):
        for mp in ("2", "2,-,1"):
            code, out, err = run_cli(capsys, "bijection", "--d", "2", "--e", "4",
                                     "--charges", "0,1", "--mp", mp, *flags)
            assert code == 2 and out == "" and "expected 2 components" in err


def test_bijection_replay_fault_exit_1(capsys, monkeypatch):
    # a residue path the target crystal cannot replay is an internal fault,
    # not bad input
    real = crystal._reduced_signature

    def no_diagonal_additions(mp, i, order, p):
        addable, removable = real(mp, i, order, p)
        return ([] if order == "flotw" else addable), removable

    monkeypatch.setattr(crystal, "_reduced_signature", no_diagonal_additions)
    code, _, err = run_cli(capsys, "bijection", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "1,-")
    assert code == 1 and "internal error: residue path cannot be replayed" in err


def test_fuzz_single_vertex_commands(capsys):
    # malformed text, bad parameters, wrong component counts, non-vertices
    # and a weight --shift (only symbol has --shift, its extra height) must
    # exit 2 with a message, never 1 or a traceback
    rng = random.Random(4)
    junk = ["", "-", "--", ",", ",,", "x", "1..2", "1.", ".1", "-1", "0", "1.-2",
            "2.3", "1e3", " 1 ", "1,x", "1.0", "3.+1"]
    commands = (["a-value"], ["symbol"], ["a-seq"], ["a-graph"],
                ["bijection"], ["bijection", "--inverse"])

    def random_mp(d):
        comps = []
        for _ in range(max(1, d + rng.choice((-1, 0, 0, 0, 0, 1)))):
            parts = sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
                           reverse=rng.random() < 0.9)
            comps.append(".".join(map(str, parts)) or "-")
        return ",".join(comps)

    for _ in range(400):
        d = rng.choice((1, 2, 2, 3, 3)) if rng.random() < 0.95 else 0
        e = rng.choice((2, 3, 4, 5)) if rng.random() < 0.95 else 1
        charges = sorted(rng.randint(0, e - 1) for _ in range(max(1, d)))
        charges = ",".join(map(str, charges))
        if rng.random() < 0.1:
            charges = rng.choice(junk + ["0,5", "1,0", "0,0,0,0"])
        mp = random_mp(d) if rng.random() < 0.8 else rng.choice(junk)
        cmd = rng.choice(commands)
        argv = [*cmd, "--d", str(d), "--e", str(e), f"--charges={charges}", f"--mp={mp}"]
        shifted = rng.random() < 0.2
        if shifted:
            argv.append(f"--shift={rng.choice((-1, 0, 1, 3))}")
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if shifted and cmd[0] != "symbol":
            assert code == 2 and "unrecognized arguments: --shift" in err, (argv, err)
        if code == 2:
            assert out == "", (argv, out)
        if code == 0 and cmd[0] == "bijection":
            assert len(out.strip().split(",")) == d, (argv, out)

    # one huge part or a long column is rejected before any work
    for cmd in commands:
        for mp in (".".join(["1"] * (MAX_MP_RANK + 1)), "100000000"):
            code, out, err = run_cli(capsys, *cmd, "--d", "1", "--e", "3",
                                     "--charges", "0", f"--mp={mp}")
            assert code == 2 and out == "" and "above the limit" in err, cmd
    # a weight shift is no option of any command; symbol's --shift is its height
    for cmd in commands:
        if cmd[0] != "symbol":
            code, out, err = run_cli(capsys, *cmd, "--d", "1", "--e", "3",
                                     "--charges", "0", "--mp=1", "--shift=0")
            assert code == 2 and out == "" and "unrecognized arguments: --shift=0" in err
    # the symbol's extra height is capped the same way
    code, out, err = run_cli(capsys, "symbol", "--d", "1", "--e", "3", "--charges", "0",
                             "--mp=1", f"--shift={MAX_MP_RANK + 1}")
    assert code == 2 and out == "" and "above the limit" in err


def test_fuzz_rank_commands(capsys):
    # enumerate, crystal, canonical, decomp and typeb at small ranks and on
    # malformed values: exit 0 or 2 with no traceback, and 2 for negative n,
    # an e below 2 or a weight --shift
    rng = random.Random(5)
    junk = ["", "-", "--", "x", "1.5", "1e3", " 2 ", "-0", "+1", "0x3"]

    def value(good):
        return str(good) if rng.random() < 0.9 else rng.choice(junk)

    def parsed(text):
        """The int argparse reads from text, or None."""
        try:
            return int(text)
        except (TypeError, ValueError):
            return None

    for _ in range(250):
        cmd = rng.choice(("enumerate", "crystal", "canonical", "decomp", "typeb"))
        n = rng.choice((-2, -1, 0, 1, 2, 3, 4))
        d = rng.choice((1, 2, 2, 3)) if rng.random() < 0.9 else rng.choice((0, -1))
        e = rng.choice((2, 3, 4, 5)) if rng.random() < 0.9 else rng.choice((0, 1, -3))
        n_text, e_text, shifted = value(n), None, False
        argv = [cmd, f"--n={n_text}"]
        if cmd == "typeb":
            action = rng.choice(("basic-set", "a-values", "decomp", "bogus"))
            argv[1:1] = [action]
            if action != "a-values":
                e_text = value(e)
                argv.append(f"--e={e_text}")
        elif cmd == "enumerate":
            argv.append(f"--d={value(d)}")
        else:
            charges = ",".join(map(str, sorted(rng.randint(0, max(e, 1) - 1)
                                               for _ in range(max(d, 1)))))
            if rng.random() < 0.1:
                charges = rng.choice(junk + ["0,5", "1,0", "0,0,0,0"])
            d_text = value(d)
            e_text = value(e)
            argv += [f"--d={d_text}", f"--e={e_text}", f"--charges={charges}"]
            shifted = rng.random() < 0.2
            if shifted:
                argv.append(f"--shift={rng.choice((-1, 0, 1, 3))}")
        if cmd == "crystal":
            argv.append(rng.choice(("--order=am", "--order=flotw", "--order=x", "--dot")))
        if cmd in ("enumerate", "decomp", "typeb") and rng.random() < 0.5:
            argv.append(f"--format={rng.choice(('text', 'json', 'dot'))}")
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if n_text == str(n) and n < 0:
            assert code == 2, (argv, out)
        if parsed(e_text) is not None and parsed(e_text) < 2:
            assert code == 2, (argv, out)
        if shifted:  # unless argparse rejects another argument first
            assert code == 2, (argv, out)
            assert "unrecognized arguments: --shift" in err or "argument --" in err, err
        if code == 0:
            assert out, argv
        else:  # the streamed commands print nothing before they fail
            assert out == "", (argv, out)

    # a weight shift is no option of any command
    for cmd in ("crystal", "canonical", "decomp"):
        code, out, err = run_cli(capsys, cmd, "--d=1", "--e=3", "--n=2", "--shift=0")
        assert code == 2 and out == "" and "unrecognized arguments: --shift=0" in err

    # the type B actions that take an e reject e < 2, and a-values takes none
    for action in ("basic-set", "decomp"):
        for e in ("0", "1", "-4"):
            code, out, err = run_cli(capsys, "typeb", action, "--n", "3", f"--e={e}")
            assert code == 2 and out == "" and "e must be at least 2" in err, (action, e)
    for e in ("0", "1", "-4"):
        code, out, err = run_cli(capsys, "typeb", "a-values", "--n", "3", f"--e={e}")
        assert code == 2 and out == "" and f"unrecognized arguments: --e={e}" in err, e


def test_streamed_commands_match_render_strings(capsys):
    p = ChargeParams(2, 4, (0, 1))
    charge = ["--d", "2", "--e", "4", "--charges", "0,1", "--n", "5"]
    cases = [(["canonical", *charge], render_canonical(p, 5)),
             (["decomp", *charge], render_decomp(p, 5)),
             (["decomp", *charge, "--format", "text"], render_decomp(p, 5, "text")),
             (["decomp", *charge, "--format", "json"], render_decomp(p, 5, "json"))]
    for e in (3, 4):
        for fmt in ("text", "json"):
            cases.append((["typeb", "decomp", "--n", "5", "--e", str(e), f"--format={fmt}"],
                          render_typeb(5, e, "decomp", fmt)))
    for argv, expected in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out == expected, argv


def test_streamed_commands_write_nothing_on_internal_error(capsys, monkeypatch):
    # a fault inside the computation surfaces before the first byte
    import ariki.canonical as canonical
    real = canonical._peel
    monkeypatch.setattr(canonical, "_peel",
                        lambda mp, p: real(mp, p)[:2] + (mp,))
    charge = ["--d", "2", "--e", "4", "--charges", "0,1", "--n", "3"]
    for argv in (["canonical", *charge], ["decomp", *charge],
                 ["decomp", *charge, "--format=json"],
                 ["typeb", "decomp", "--n", "3", "--e", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and "not a finished label" in err, argv


def test_reader_closing_early_ends_quietly():
    # `ariki decomp ... | head`: the 200 kB output outgrows the pipe, so the
    # writer meets the closed pipe mid-stream and must exit 0 without a trace
    src = os.path.dirname(os.path.dirname(os.path.abspath(ariki.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with subprocess.Popen(
            [sys.executable, "-m", "ariki.cli", "decomp", "--d", "2", "--e", "4",
             "--charges", "0,1", "--n", "10"],
            env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(9) == b"columns:\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0 and err == b"", err


def test_render_canonical_matches_per_element_formatting():
    # reference: each element through FockVector.__str__, every term formatted
    # anew.  The writer reads the packed, id-keyed basis that canonical_basis
    # unpacks, so this is the one check that the two agree.  (2,2,(0,1))
    # n=10 has a part 10; equal charges put i-nodes of equal content in two
    # components; d = 1 reaches rank 10 on one component
    cases = [(p, n) for p in GRID for n in range(7)]
    cases += [(p, n) for p in (ChargeParams(2, 3, (0, 0)), ChargeParams(3, 2, (0, 0, 1)))
              for n in range(7)]
    cases += [(ChargeParams(1, e, (0,)), n) for e in (2, 3) for n in range(11)]
    cases.append((ChargeParams(2, 2, (0, 1)), 10))
    for p, n in cases:
        lines = [f"{format_multipartition(el.label)}: {el.vector}"
                 for el in canonical_basis(p, n)]
        assert render_canonical(p, n) == "\n".join(lines) + "\n", (p, n)


def _per_cell_rows(matrix):
    # reference: every cell padded by its own f-string
    label_width = max((len(format_multipartition(mp)) for mp in matrix.rows), default=1)
    entry_width = max((len(str(x)) for row in matrix.entries for x in row), default=1)
    lines = []
    for i, mp in enumerate(matrix.rows):
        cells = " ".join(f"{x if x else '.':>{entry_width}}" for x in matrix.entries[i])
        lines.append(f"  {format_multipartition(mp):<{label_width}}  | {cells}")
    return lines


def _per_column_header(matrix):
    # reference: every column label and kleshchev label formatted whole
    lines = ["columns:"]
    for j, col in enumerate(matrix.columns):
        dual = ""
        if matrix.kleshchev_labels is not None:
            dual = f"  kleshchev {format_multipartition(matrix.kleshchev_labels[j])}"
        lines.append(f"  [{j}] {format_multipartition(col)}"
                     f"  a={format_rational(matrix.column_a_values[j])}{dual}")
    return lines + ["rows:"]


def test_render_matrix_matches_per_cell_formatting():
    # labels with parts of one and of two digits, and empty components
    rows = (((3,), ()), ((2, 1), ()), ((1,), (1, 1)), ((), (1, 1, 1)),
            ((10,), ()), ((1,), (10,)), ((), (12, 1)))
    columns = (rows[0], rows[4], rows[6])
    for entries in (((1, 0, 0), (12, 1, 0), (0, 3, 1), (10, 0, 7), (0, 1, 0),
                     (2, 0, 0), (0, 0, 1)),
                    ((1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0),
                     (0, 0, 0), (0, 0, 1)),
                    ((0, 0, 0),) * 7):
        for dual in (None, columns[::-1]):
            m = DecompositionMatrix(rows=rows, columns=columns, kleshchev_labels=dual,
                                    entries=entries, row_a_values=(0, 1, 2, 3, 4, 5, 6),
                                    column_a_values=(0, 4, 6))
            lines = render_matrix(m).splitlines()
            split = lines.index("rows:") + 1
            assert lines[:split] == _per_column_header(m)
            assert lines[split:] == _per_cell_rows(m)
    empty = DecompositionMatrix(rows=(), columns=(), kleshchev_labels=None, entries=(),
                                row_a_values=(), column_a_values=())
    assert render_matrix(empty) == "columns:\nrows:\n"


def test_unknown_formats_raise_before_any_work(monkeypatch):
    # an unknown format names the allowed ones and is caught before anything
    # is computed or written; argparse choices keep the CLI from reaching it
    import ariki.render as render

    def no_work(*args):
        raise AssertionError("computed before the format check")

    for name in ("enumerate_multipartitions", "a_graph", "crystal_graph",
                 "decomposition_matrix", "decomposition_matrix_b",
                 "canonical_basic_set_b", "_a_values_typeb"):
        monkeypatch.setattr(render, name, no_work)
    p = ChargeParams(2, 4, (0, 1))
    calls = [(lambda: render_enumerate(1, 2, "csv"), "text, json"),
             (lambda: render_a_graph(p, ((1,), ()), "dot"), "text, json"),
             (lambda: render_crystal(p, 1, "flotw", "text"), "json, dot"),
             (lambda: render_decomp(p, 2, "JSON"), "text, json"),
             (lambda: render_typeb(2, 3, "decomp", "xml"), "text, json")]
    for action in ("basic-set", "a-values"):
        calls.append((lambda action=action: render_typeb(2, 3, action, "xml"), "text, json"))
    for call, allowed in calls:
        with pytest.raises(ValueError, match=f"unknown format .*; expected one of {allowed}$"):
            call()
    out = io.StringIO()
    for write in (lambda: write_decomp(out, p, 2, "dot"),
                  lambda: write_typeb(out, 2, 3, "decomp", "dot")):
        with pytest.raises(ValueError, match="unknown format 'dot'"):
            write()
    # a matrix the caller built is checked too: no format falls back to text
    m = DecompositionMatrix(rows=(((1,), ()),), columns=(((1,), ()),), kleshchev_labels=None,
                            nonzero=(((0, 1),),), row_a_values=(0,), column_a_values=(0,))
    for fmt in ("JSON", "dot"):
        with pytest.raises(ValueError, match=f"unknown format '{fmt}'; expected one of "
                                             f"text, json$"):
            write_matrix(out, m, fmt)
    assert out.getvalue() == ""


def test_a_graph_text(capsys):
    code, out, _ = run_cli(capsys, "a-graph", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "2.2,2.2.1")
    assert code == 0
    assert out.splitlines()[0] == "(-,-)"
    assert out.splitlines()[1] == "  --1-opt(1,1)--> (-,1)"
    assert out.splitlines()[-1] == "  --0-opt(2,0)--> (2.2,2.2.1)"


def test_typeb_actions(capsys):
    code, out, _ = run_cli(capsys, "typeb", "basic-set", "--n", "1", "--e", "3")
    assert code == 0 and out == "-,1\n1,-\n"
    code, out, _ = run_cli(capsys, "typeb", "a-values", "--n", "1")
    assert code == 0 and out == "-,1: 1\n1,-: 0\n"
    code, out, _ = run_cli(capsys, "typeb", "a-values", "--n", "1", "--format", "json")
    assert code == 0 and json.loads(out) == [[[[], [1]], 1], [[[1], []], 0]]
    # the a-values read no e, so they take none
    code, out, err = run_cli(capsys, "typeb", "a-values", "--n", "3", "--e", "3")
    assert code == 2 and out == "" and "unrecognized arguments: --e 3" in err
    assert "Traceback" not in err
    for action in ("basic-set", "decomp"):
        code, out, err = run_cli(capsys, "typeb", action, "--n", "1")
        assert code == 2 and out == "" and "required: --e" in err, action
    code, out, _ = run_cli(capsys, "typeb", "decomp", "--n", "2", "--e", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "kleshchev_columns" not in payload  # odd e has no dual labels


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_commands_run(capsys):
    # every `ariki ...` line of the README, with and without its optional
    # [...] parts; verify is left to test_acceptance, which runs every check.
    # The a-value and a-seq lines carry their literal output as a comment.
    with open(README) as fh:
        lines = [line.strip() for line in fh if line.startswith("ariki ")]
    assert len(lines) == 15
    literal = {"a-value": "17 = 17.0", "a-seq": "1,0,0,3,3,2,1,1,0"}
    ran = set()
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] == "verify":
            continue
        short = shlex.split(re.sub(r"\[[^]]*\]", "", command))[1:]
        full = [arg.strip("[]") for arg in argv]
        for args in {tuple(short), tuple(full)}:
            code, out, err = run_cli(capsys, *args)
            assert code == 0 and out and err == "", (line, err)
            if argv[0] in literal:
                assert comment.strip() == literal[argv[0]], line
                assert out == literal[argv[0]] + "\n", line
        ran.add(argv[0])
    assert set(literal) <= ran


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "a-value", "--d", "2", "--e", "4",
                           "--charges", "5,1", "--mp", "1,-")
    assert code == 2 and "charges" in err
    code, _, err = run_cli(capsys, "a-value", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "1.2,-")
    assert code == 2
    code, _, err = run_cli(capsys, "a-seq", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp=-,1.1")
    assert code == 2  # leading-dash values need --mp=; not a crystal vertex
    code, _, err = run_cli(capsys, "a-seq", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "bogus")
    assert code == 2
    code, out, err = run_cli(capsys, "symbol", "--d", "2", "--e", "4",
                             "--charges", "0,1", "--mp", "1")
    assert code == 2 and out == "" and "expected 2 components, got 1" in err
    code, _, err = run_cli(capsys, "enumerate", "--d=--", "--n", "2")
    assert code == 2 and "invalid value" in err  # argparse parses "--" to []
    code, _, err = run_cli(capsys, "verify", "--rank-cap", "3")
    assert code == 2 and "unrecognized arguments" in err


VERIFY_LINE = re.compile(r"PASS [a-z0-9-]+ \(\d+\.\d\d s\): ")


def test_fuzz_verify_arguments(capsys, monkeypatch):
    # unknown flags (--quick among them) and stray positionals exit 2 with
    # a message before any check runs
    import ariki.verification as verification
    ran = []
    monkeypatch.setattr(verification, "run_all",
                        lambda *args, **kwargs: ran.append(args) or True)
    rng = random.Random(6)
    bad = ["--quick", "--quick=1", "--quick=--", "--quick=", "--quick=0", "--slow",
           "--Quick", "--rank-cap", "-x", "-q", "extra", "1", "quick", "-", "--", "--d=2"]
    for _ in range(150):
        tokens = rng.sample(bad, rng.randint(1, 3))
        argv = ["verify", *tokens]
        if rng.random() < 0.1:
            argv = [tokens[0], "verify", *tokens[1:]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error" in err, (argv, err)
        assert "Traceback" not in err
        assert not ran, argv
    code, out, err = run_cli(capsys, "verify", "--quick")
    assert code == 2 and out == "" and "unrecognized arguments: --quick" in err
    assert not ran


def test_verify_survives_python_O():
    # python -O strips assert statements; every check must still run and pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(ariki.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ariki.cli", "verify"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) == 15
    assert all(VERIFY_LINE.match(line) for line in lines), lines
    # canonical-structure builds its unreplayed case, and says so
    [structure] = [line for line in lines if line.startswith("PASS canonical-structure ")]
    assert "(2,2,(0,1)) n=13" in structure, structure


def test_json_round_trip_multipartitions(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--d", "3", "--n", "3",
                           "--format", "json")
    data = json.loads(out)
    from ariki._oracles import multipartition_from_json
    from ariki.partitions import enumerate_multipartitions
    assert [multipartition_from_json(mp) for mp in data] == \
        enumerate_multipartitions(3, 3)
