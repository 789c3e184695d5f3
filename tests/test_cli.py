"""Command-line behavior: outputs, exit codes, schemas, determinism."""

import json
import os
import random
import re
import subprocess
import sys

import ariki
from ariki import crystal
from ariki.canonical import DecompositionMatrix, canonical_basis
from ariki.cli import MAX_MP_RANK, main
from ariki.charge import ChargeParams
from ariki.partitions import format_multipartition
from ariki.render import (render_canonical, render_crystal, render_decomp,
                          render_matrix, render_typeb)
from ariki.verification import GRID, hash_seed_outputs


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
                           "--charges", "0", "--shift", "0", "--n", "3",
                           "--order", "flotw")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][3] == [[[2, 1]], [[3]]]
    code, out, _ = run_cli(capsys, "crystal", "--d", "1", "--e", "2",
                           "--charges", "0", "--shift", "0", "--n", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '"1" -> "2" [label="1"];' in out


def test_bijection(capsys):
    code, out, _ = run_cli(capsys, "bijection", "--d", "2", "--e", "4",
                           "--charges", "0,1", "--mp", "1.1,-")
    assert code == 0 and out.strip() != ""
    code, out, err = run_cli(capsys, "bijection", "--d", "1", "--e", "2",
                             "--charges", "0", "--shift", "0", "--mp", "1.1")
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
    # malformed text, bad parameters, wrong component counts and
    # non-vertices must exit 2 with a message, never 1 or a traceback
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
        if rng.random() < 0.2:
            argv.append(f"--shift={rng.choice((-1, 0, 1, 3))}")
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
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
    # the symbol's extra height is capped the same way
    code, out, err = run_cli(capsys, "symbol", "--d", "1", "--e", "3", "--charges", "0",
                             "--mp=1", f"--shift={MAX_MP_RANK + 1}")
    assert code == 2 and out == "" and "above the limit" in err


def test_fuzz_rank_commands(capsys):
    # enumerate, crystal, canonical, decomp and typeb at small ranks and on
    # malformed values: exit 0 or 2 with no traceback, and 2 for negative n
    # or an e below 2
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
        n_text, e_text = value(n), None
        argv = [cmd, f"--n={n_text}"]
        if cmd == "typeb":
            argv[1:1] = [rng.choice(("basic-set", "a-values", "decomp", "bogus"))]
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
            if rng.random() < 0.2:
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
        if code == 0:
            assert out, argv
        else:  # the streamed commands print nothing before they fail
            assert out == "", (argv, out)

    # every type B action rejects e < 2 before it picks its work
    for action in ("basic-set", "a-values", "decomp"):
        for e in ("0", "1", "-4"):
            code, out, err = run_cli(capsys, "typeb", action, "--n", "3", f"--e={e}")
            assert code == 2 and out == "" and "e must be at least 2" in err, (action, e)


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
                        lambda mp, p: real(mp, p)._replace(rest=mp))
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
    # reference: each element through FockVector.__str__, every term formatted anew
    for p in GRID:
        for n in range(7):
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


def test_render_matrix_matches_per_cell_formatting():
    rows = (((3,), ()), ((2, 1), ()), ((1,), (1, 1)), ((), (1, 1, 1)))
    columns = rows[:3]
    for entries in (((1, 0, 0), (12, 1, 0), (0, 3, 1), (10, 0, 7)),
                    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)),
                    ((0, 0, 0),) * 4):
        for dual in (None, columns[::-1]):
            m = DecompositionMatrix(rows=rows, columns=columns, kleshchev_labels=dual,
                                    entries=entries, row_a_values=(0, 1, 2, 3),
                                    column_a_values=(0, 1, 2))
            lines = render_matrix(m).splitlines()
            assert lines[lines.index("rows:") + 1:] == _per_cell_rows(m)
    empty = DecompositionMatrix(rows=(), columns=(), kleshchev_labels=None, entries=(),
                                row_a_values=(), column_a_values=())
    assert render_matrix(empty) == "columns:\nrows:\n"


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
    code, out, _ = run_cli(capsys, "typeb", "a-values", "--n", "1", "--e", "2")
    assert code == 0 and "-,1: 1" in out and "1,-: 0" in out
    code, out, _ = run_cli(capsys, "typeb", "decomp", "--n", "2", "--e", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "kleshchev_columns" not in payload  # odd e has no dual labels


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


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 13
    assert all(VERIFY_LINE.match(line) for line in lines), lines


def test_fuzz_verify_arguments(capsys, monkeypatch):
    # unknown flags, stray positionals and values given to --quick exit 2
    # with a message before any check runs
    import ariki.verification as verification
    ran = []
    monkeypatch.setattr(verification, "run_all",
                        lambda *args, **kwargs: ran.append(args) or True)
    rng = random.Random(6)
    bad = ["--quick=1", "--quick=--", "--quick=", "--quick=0", "--slow", "--Quick",
           "--rank-cap", "-x", "-q", "extra", "1", "quick", "-", "--", "--d=2"]
    for _ in range(150):
        tokens = rng.sample(bad, rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            tokens.insert(rng.randint(0, len(tokens)), "--quick")
        argv = ["verify", *tokens]
        if rng.random() < 0.1:
            argv = [tokens[0], "verify", *tokens[1:]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "error" in err, (argv, err)
        assert "Traceback" not in err
        assert not ran, argv


def test_verify_quick_survives_python_O():
    # python -O strips assert statements; every check must still run and pass
    src = os.path.dirname(os.path.dirname(os.path.abspath(ariki.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ariki.cli", "verify", "--quick"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line]
    assert len(lines) == 13
    assert all(VERIFY_LINE.match(line) for line in lines), lines


def test_output_byte_identical_across_runs_and_threads():
    # keeps its old name; runs under PYTHONHASHSEED 0 and 1 must agree with
    # each other and with this process
    code = ("import sys\n"
            "from ariki.charge import ChargeParams\n"
            "from ariki.render import (render_canonical, render_crystal,\n"
            "                          render_decomp, render_typeb)\n"
            "p = ChargeParams(2, 4, (0, 1))\n"
            "sys.stdout.write(render_canonical(p, 4) + render_decomp(p, 4)\n"
            "                 + render_crystal(p, 4, 'flotw') + render_typeb(3, 3, 'decomp'))\n")
    p = ChargeParams(2, 4, (0, 1))
    here = (render_canonical(p, 4) + render_decomp(p, 4)
            + render_crystal(p, 4, "flotw") + render_typeb(3, 3, "decomp")).encode()
    assert hash_seed_outputs(code) == [here, here]


def test_json_round_trip_multipartitions(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--d", "3", "--n", "3",
                           "--format", "json")
    data = json.loads(out)
    from ariki._oracles import multipartition_from_json
    from ariki.partitions import enumerate_multipartitions
    assert [multipartition_from_json(mp) for mp in data] == \
        enumerate_multipartitions(3, 3)
