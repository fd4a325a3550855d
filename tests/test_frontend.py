import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from trisep import (
    Clause,
    ClauseSet,
    Constant,
    EngineConfig,
    Function,
    ProofTrace,
    RoundRecord,
    Variable,
    VerificationResult,
    clause_set,
    neg,
    parse_dimacs,
    parse_tptp_cnf,
    parse_trace_document,
    pos,
    prove,
    render_dimacs,
    render_tptp,
    render_trace,
    start,
    verify_trace,
)
from trisep.cli import main as cli_main
from trisep.errors import ArityError, ParseError
from trisep.logic import MAX_TERM_DEPTH
from trisep.render import parse_literal_text


# -- DIMACS -----------------------------------------------------------------------


def test_parse_dimacs_basic():
    s = parse_dimacs("p cnf 2 2\n1 0\n-1 2 0\n")
    assert s.is_propositional
    assert [[str(l) for l in c.literals] for c in s.clauses] == [["x1"], ["~x1", "x2"]]


def test_parse_dimacs_merges_duplicates():
    s = parse_dimacs("p cnf 1 1\n1 1 0\n")
    assert [str(l) for l in s.clauses[0].literals] == ["x1"]


def test_parse_dimacs_reads_each_distinct_token_once():
    # a repeated token is one Literal; -0 and 00 end a clause as 0 does, and
    # +2 reads as 2
    s = parse_dimacs("p cnf 3 4\n1 -2 0\n-2 3 -0\n+2 1 00\n1 0\n")
    first, second, third, fourth = s.clauses
    assert first.literals[0] is third.literals[1] is fourth.literals[0]
    assert first.literals[1] is second.literals[0]
    assert [[str(l) for l in c.literals] for c in s.clauses] == [
        ["x1", "~x2"], ["~x2", "x3"], ["x2", "x1"], ["x1"]]
    # an out-of-range literal fails at its first line, with the same message
    # each time it is read
    for text in ("p cnf 2 3\n1 0\n-3 2 0\n-3 0\n", "p cnf 2 3\n1 0\n-3 2 0\n1 -3 0\n"):
        with pytest.raises(ParseError, match=r"^literal -3 exceeds the declared 2 variables "
                                             r"\(line 3\)$"):
            parse_dimacs(text)


def test_parse_dimacs_comments_and_multiline_clauses():
    s = parse_dimacs("c header comment\np cnf 3 1\n1 -2\n3 0\n")
    assert len(s.clauses) == 1
    assert len(s.clauses[0]) == 3


def test_parse_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n2 0\n")      # literal exceeds declared count
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1\n")        # missing terminator
    with pytest.raises(ParseError):
        parse_dimacs("1 0\n")                 # clause before header


@pytest.mark.parametrize("text", ["p cnf 2 3\n1 0\n-2 0\n", "p cnf 1 1\n1 0\n-1 0\n",
                                  "p cnf 1 1\n"], ids=["fewer", "more", "none"])
def test_parse_dimacs_rejects_a_clause_count_other_than_the_headers(tmp_path, capsys, text):
    # a truncated file used to be read silently
    with pytest.raises(ParseError, match="header declares"):
        parse_dimacs(text)
    problem = tmp_path / "count.cnf"
    problem.write_text(text)
    assert cli_main(["prove", str(problem)]) == 2
    captured = capsys.readouterr()
    assert "header declares" in captured.err and "SZS status" not in captured.out


def test_parse_dimacs_ends_the_clause_data_at_the_satlib_trailer(tmp_path, capsys):
    # the trailer's 0 used to be read as an empty clause, so both the prover
    # and the oracle called this satisfiable set unsatisfiable
    text = "p cnf 2 1\n1 2 0\n%\n0\n"
    assert [[str(l) for l in c.literals] for c in parse_dimacs(text).clauses] == [["x1", "x2"]]
    problem = tmp_path / "satlib.cnf"
    problem.write_text(text)
    for command in ("prove", "oracle"):
        assert cli_main([command, str(problem)]) == 0
        assert "SZS status Satisfiable" in capsys.readouterr().out


def test_dimacs_round_trip(ex41):
    text = render_dimacs(ex41)
    again = parse_dimacs(text)
    # names differ (p1 -> x1) but shape is preserved and a second pass is stable
    assert render_dimacs(again) == render_dimacs(parse_dimacs(render_dimacs(again)))


def test_dimacs_round_trip_random():
    rng = random.Random(6)
    for _ in range(50):
        n_vars = rng.randint(1, 6)
        lists = [[(pos if rng.random() < 0.5 else neg)(f"x{rng.randint(1, n_vars)}")
                  for _ in range(rng.randint(1, 4))]
                 for _ in range(rng.randint(1, 8))]
        s = clause_set(lists)
        text = render_dimacs(s)
        again = parse_dimacs(text)
        assert [c.literal_set for c in again.clauses] == [c.literal_set for c in s.clauses]


# -- TPTP CNF ----------------------------------------------------------------------


def test_parse_tptp_clause():
    s = parse_tptp_cnf("cnf(c1, axiom, (p1(X) | ~p2(X, f(X)))).")
    clause = s.clauses[0]
    assert str(clause.literals[0]) == "p1(X)"
    assert str(clause.literals[1]) == "~p2(X,f(X))"
    assert s.mode == "first-order"


def test_parse_tptp_propositional_mode_inference():
    s = parse_tptp_cnf("cnf(a, axiom, (p | ~q)).\ncnf(b, axiom, q).")
    assert s.is_propositional


def test_parse_tptp_empty_clause_and_comments():
    s = parse_tptp_cnf("% a comment\ncnf(bad, axiom, $false).\n")
    assert s.clauses[0].is_empty()


def test_parse_tptp_rejects_every_defined_predicate_but_false(tmp_path, capsys):
    # ~$true used to read as an ordinary atom: "satisfiable" with $true false
    for body in ("~$true", "$true", "p | $true", "$false | ~$false", "$ite"):
        with pytest.raises(ParseError):
            parse_tptp_cnf(f"cnf(c1, axiom, {body}).")
    problem = tmp_path / "true.p"
    problem.write_text("cnf(c1, axiom, ~$true).\n")
    assert cli_main(["prove", str(problem)]) == 2
    assert "SZS status" not in capsys.readouterr().out


def test_parse_tptp_errors():
    with pytest.raises(ParseError):
        parse_tptp_cnf("include('Axioms/foo.ax').")
    with pytest.raises(ParseError):
        parse_tptp_cnf("cnf(c1, axiom, (p | )).")
    with pytest.raises(ArityError):
        parse_tptp_cnf("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, p(a, b)).")


@pytest.mark.parametrize("text, where", [
    ("cnf(a, axiom, a = b).", "line 1, column 17"),
    ("cnf(a, axiom, p(X) | f(X) != a).", "line 1, column 27"),
    ("cnf(a, axiom,\n    ~ X = Y).", "line 2, column 9"),
], ids=["equal", "not-equal", "variables"])
def test_parse_tptp_says_equality_is_unsupported_where_it_stands(tmp_path, capsys, text, where):
    # it used to read "expected ')', found '='"
    with pytest.raises(ParseError, match=re.escape(f"equality is not supported ({where})")):
        parse_tptp_cnf(text)
    problem = tmp_path / "equality.p"
    problem.write_text(text)
    assert cli_main(["prove", str(problem)]) == 2
    captured = capsys.readouterr()
    assert "SZS status" not in captured.out and "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["cnf(|, axiom, p).", "cnf((, axiom, p).", "cnf(c, |, p)."])
def test_parse_tptp_takes_only_names_as_clause_names_and_roles(text):
    # any token used to be read there, so each of these parsed as {p}
    with pytest.raises(ParseError):
        parse_tptp_cnf(text)


@pytest.mark.parametrize("text, where", [
    ("cnf(c1, axiom, p).\n  cnf(c2,  |, p).", "line 2, column 12"),
    ("cnf(c1, axiom, p(a b)).", "line 1, column 20"),
    ("cnf(c1, axiom, % a note\n   p(a b)).", "line 2, column 8"),
    ("cnf(c1, axiom, p).\n\tfof(c2, axiom, p).", "line 2, column 2"),
    ("cnf(c1, axiom, p(a, $oops#)).", "line 1, column 26"),
])
def test_parse_tptp_errors_name_where_the_offending_token_starts(text, where):
    with pytest.raises(ParseError, match=re.escape(f"({where})")):
        parse_tptp_cnf(text)


def test_neither_spelling_takes_the_others_liberties():
    # one reader reads both: a trace literal holds no blank, since it would
    # render back without it, and a TPTP name holds no '#', '@' or "'"
    for text in ("p( a)", "p(a, b)", "~ p", "p(?X )", "p (a)"):
        with pytest.raises(ParseError):
            parse_literal_text(text)
    assert str(parse_literal_text(" p(a,?X#1) ")) == "p(a,X#1)"
    for name in ("a#b", "a@b", "a'b"):
        with pytest.raises(ParseError):
            parse_tptp_cnf(f"cnf(c1, axiom, p({name})).")


def test_tptp_round_trip(ex51):
    text = render_tptp(ex51)
    again = parse_tptp_cnf(text)
    assert len(again.clauses) == len(ex51.clauses)
    assert render_tptp(again) == render_tptp(parse_tptp_cnf(render_tptp(again)))


def test_tptp_round_trip_random_first_order():
    rng = random.Random(9)
    consts = [Constant(c) for c in "abc"]

    def term(depth=0):
        roll = rng.random()
        if roll < 0.4 or depth >= 2:
            return rng.choice(consts)
        if roll < 0.7:
            return Variable(f"X{rng.randint(0, 3)}")
        return Function("f", (term(depth + 1),))

    for _ in range(40):
        clauses = []
        for i in range(rng.randint(1, 5)):
            lits = [(pos if rng.random() < 0.5 else neg)(
                rng.choice(["p", "q"]), term(), term())
                for _ in range(rng.randint(1, 3))]
            clauses.append(Clause(i + 1, lits))
        s = ClauseSet(clauses)
        again = parse_tptp_cnf(render_tptp(s))
        assert [c.literal_set for c in again.clauses] == [c.literal_set for c in s.clauses]


# -- trace documents ------------------------------------------------------------------

UNIT_PAIR_DIMACS = "p cnf 1 2\n1 0\n-1 0\n"
SINGLE_UNIT_DIMACS = "p cnf 1 1\n1 0\n"
# the machine section of the one-round refutation of {x1}, {~x1}
_UNIT_PAIR_COLUMNS = ("COL\t1\t1\tB\tx1\t-\tx1\tx1\t-", "COL\t2\t2\tC\t-\t-\t~x1\t~x1\t-")
_UNIT_PAIR_REFUTATION = ("ROUND\t1", *_UNIT_PAIR_COLUMNS, "BOUND\tx1", "CSC\t3\t-",
                         "VERDICT\tunsatisfiable")


def _trace_document(*records):
    return "".join(f"{line}\n" for line in ("TRACE\tBEGIN", *records, "TRACE\tEND"))


def _tampered(index, record):
    """The unit pair's refutation with one record replaced."""
    records = list(_UNIT_PAIR_REFUTATION)
    records[index] = record
    return records


def test_trace_document_round_trip_propositional(ex41):
    outcome, trace = prove(ex41, EngineConfig(time_budget=20.0))
    document = render_trace(trace, problem="ex41")
    reparsed = parse_trace_document(document)
    assert reparsed.verdict == trace.verdict
    assert len(reparsed.rounds) == len(trace.rounds)
    assert bool(verify_trace(ex41, reparsed)) == bool(verify_trace(ex41, trace))


def test_trace_document_round_trip_first_order(ex52):
    outcome, trace = prove(ex52, EngineConfig(time_budget=30.0))
    document = render_trace(trace, problem="ex52")
    reparsed = parse_trace_document(document)
    assert bool(verify_trace(ex52, reparsed))
    assert reparsed.rounds[0].clause_ids_used == trace.rounds[0].clause_ids_used


def test_trace_document_round_trip_satisfiable():
    s = clause_set([[pos("p1")], [neg("p1"), pos("p4")]])
    outcome, trace = prove(s, EngineConfig(time_budget=20.0))
    document = render_trace(trace, problem="sat")
    assert "model:" in document
    reparsed = parse_trace_document(document)
    assert reparsed.model == outcome.model
    assert verify_trace(s, reparsed)


def test_trace_document_tampering_is_caught(ex41):
    _, trace = prove(ex41, EngineConfig(time_budget=20.0))
    document = render_trace(trace, problem="ex41")
    lines = document.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("COL") and "\tx1;~x1\t" in line.replace("~x1;x4", "x4;~x1"):
            pass
    # delete one inside literal of the widest column record
    target = None
    for i, line in enumerate(lines):
        if line.startswith("COL\t"):
            fields = line.split("\t")
            if ";" in fields[7]:
                target = i
                fields[7] = fields[7].split(";", 1)[1]
                lines[i] = "\t".join(fields)
                break
    assert target is not None
    tampered = parse_trace_document("\n".join(lines))
    assert not verify_trace(ex41, tampered)
    # documents that make no claim do not parse at all
    for claimless in ("",
                      document.split("TRACE\tBEGIN")[0],
                      document.replace("TRACE\tEND\n", ""),
                      document.replace("VERDICT\tunsatisfiable\n", ""),
                      document.replace("VERDICT\tunsatisfiable", "VERDICT\tbogus"),
                      document.replace("VERDICT\tunsatisfiable",
                                       "VERDICT\tunsatisfiable\nMODEL\tp1=yes")):
        with pytest.raises(ParseError):
            parse_trace_document(claimless)


def test_trace_parser_rejects_a_round_that_opens_before_the_last_one_closes(tmp_path, capsys):
    # ROUND 1's column and ROUND 2's two columns used to merge into one round
    # numbered 2, which verify_trace accepted
    merged = _trace_document("ROUND\t1", _UNIT_PAIR_COLUMNS[0], "ROUND\t2", *_UNIT_PAIR_COLUMNS,
                             "CSC\t3\t-", "VERDICT\tunsatisfiable")
    unclosed = _trace_document("ROUND\t1", "VERDICT\tunknown")
    for document in (merged, unclosed):
        with pytest.raises(ParseError, match="ROUND"):
            parse_trace_document(document)
    problem, trace_path = tmp_path / "units.cnf", tmp_path / "merged.trace"
    problem.write_text(UNIT_PAIR_DIMACS)
    trace_path.write_text(merged)
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
    assert "verified" not in capsys.readouterr().out


def test_trace_parser_rejects_record_numbers_out_of_place(tmp_path, capsys):
    # a lone ROUND 7 with two COL 9 records used to verify, and rendered back
    # with COL 1 and COL 2; a swapped pair was read in file order
    columns_9 = [line.replace("COL\t1\t", "COL\t9\t").replace("COL\t2\t", "COL\t9\t")
                 for line in _UNIT_PAIR_COLUMNS]
    lone = ("ROUND\t7", *columns_9, "CSC\t3\t-", "VERDICT\tunsatisfiable")
    swapped = ("ROUND\t1", *_UNIT_PAIR_COLUMNS[::-1], "CSC\t3\t-", "VERDICT\tunsatisfiable")
    problem, trace_path = tmp_path / "units.cnf", tmp_path / "renumbered.trace"
    problem.write_text(UNIT_PAIR_DIMACS)
    for records, tag in ((lone, "ROUND 7"), (("ROUND\t1", *lone[1:]), "COL 9"),
                         (swapped, "COL 2")):
        document = _trace_document(*records)
        with pytest.raises(ParseError, match=tag):
            parse_trace_document(document)
        trace_path.write_text(document)
        assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
        assert "verified" not in capsys.readouterr().out


@pytest.mark.parametrize("records, message", [
    (_tampered(1, "COL\t1\t1\tX\tx1\t-\tx1\tx1\t-"), "column kind 'X'"),
    # used to parse, and rendered back as B
    (_tampered(1, "COL\t1\t1\tS\tx1\t-\tx1\tx1\t-"), "column kind 'S' with boundary 'x1'"),
    # used to parse as a stair, leaving the round without a closing column
    (_tampered(2, "COL\t2\t2\tB\t-\t-\t~x1\t~x1\t-"), "column kind 'B' with boundary '-'"),
    (_tampered(2, "COL\t2\t2\tC\t~x1\t-\t~x1\t~x1\t-"), "column kind 'C' with boundary '~x1'"),
    # used to be ignored
    (_tampered(3, "BOUND\t~x1"), "BOUND record other than"),
    (("BOUND\t-", *_UNIT_PAIR_REFUTATION), "BOUND record other than"),
    # render_trace writes one BOUND record per round, after its COL records;
    # a round without one used to verify
    ((*_UNIT_PAIR_REFUTATION[:3], *_UNIT_PAIR_REFUTATION[4:]),
     "CSC record without its round's BOUND record"),
    ((*_UNIT_PAIR_REFUTATION[:4], *_UNIT_PAIR_REFUTATION[3:]), "second BOUND record in round 1"),
    (("ROUND\t1", _UNIT_PAIR_COLUMNS[0], "BOUND\tx1", *_UNIT_PAIR_REFUTATION[2:]),
     "COL 2 after its round's BOUND record"),
    # a column substitution is the state's restricted to the column's own
    # variables: the last binding of ?X used to win, and a binding of a
    # variable held by another column used to act on that column
    (_tampered(1, "COL\t1\t1\tB\tp(?X)\t?X:=a;?X:=b\tp(?X)\tp(b)\t-"),
     "variable \\?X bound twice"),
    (_tampered(1, "COL\t1\t1\tB\tx1\t?X:=a\tx1\tx1\t-"),
     "\\?X is bound, but the column's source literals do not hold it"),
    # the second one used to win
    ((*_UNIT_PAIR_REFUTATION, "VERDICT\tunknown"), "second VERDICT record"),
    # the last value used to win, so both MODEL documents verified against
    # {x1} although they also claim x1=false
    (("VERDICT\tsatisfiable", "MODEL\tx1=false", "MODEL\tx1=true"), "second MODEL record"),
    (("VERDICT\tsatisfiable", "MODEL\tx1=false;x1=true"),
     "'x1' named twice in the MODEL record"),
    (("VERDICT\tunknown", "REASON\ttime budget exhausted",
      "REASON\tsaturation clause cap exceeded"), "second REASON record"),
], ids=["kind-X", "S-with-literal", "B-without-literal", "C-with-literal", "wrong-BOUND",
        "stray-BOUND", "no-BOUND", "second-BOUND", "COL-after-BOUND", "variable-bound-twice",
        "foreign-binding", "second-VERDICT", "second-MODEL", "predicate-twice-in-MODEL",
        "second-REASON"])
def test_trace_parser_rejects_records_that_would_render_back_differently(tmp_path, capsys,
                                                                         records, message):
    with pytest.raises(ParseError, match=message):
        parse_trace_document(_trace_document(*records))
    problem, trace_path = tmp_path / "units.cnf", tmp_path / "altered.trace"
    problem.write_text(UNIT_PAIR_DIMACS)
    trace_path.write_text(_trace_document(*records))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert "verified" not in captured.out and "Traceback" not in captured.err


def test_trace_parser_reads_a_repeated_literal_once_and_reports_a_bad_one_where_it_is():
    # the parser keeps each literal text it has read, per document: a text
    # read again is the same literal, and a text that fails to parse after
    # good ones names itself and its line
    parsed = parse_trace_document(_trace_document(*_UNIT_PAIR_REFUTATION))
    column = parsed.rounds[0].state.columns[0]
    assert column.boundary_source is column.source_literals[0]
    for index, record, bad in ((2, "COL\t2\t2\tC\t-\t-\t~x1\t~x1(\t-", "~x1("),
                               (3, "BOUND\tx1(", "x1(")):
        message = f"expected a name in '{bad}' at offset {len(bad)} (line {index + 2})"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_trace_document(_trace_document(*_tampered(index, record)))


SHARED_VARIABLE_TPTP = "cnf(c1, axiom, p(X)).\ncnf(c2, axiom, ~p(Y)).\n"


def _shared_variable_refutation(first_sigma):
    """A refutation of p(X), ~p(Y) whose two columns both hold ?X."""
    return _trace_document("ROUND\t1", f"COL\t1\t1\tB\tp(?X)\t{first_sigma}\tp(?X)\tp(a)\t-",
                           "COL\t2\t2\tC\t-\t?X:=a\t~p(?X)\t~p(a)\t-", "BOUND\tp(a)",
                           "CSC\t3\t-", "VERDICT\tunsatisfiable")


def test_trace_parser_rejects_columns_that_bind_a_shared_variable_differently(tmp_path, capsys):
    # the round's substitution let the last binding of ?X win, so check
    # verified column 1's p(a) although its own ?X:=b gives p(b)
    problem, trace_path = tmp_path / "shared.p", tmp_path / "shared.trace"
    problem.write_text(SHARED_VARIABLE_TPTP)
    trace_path.write_text(_shared_variable_refutation("?X:=b"))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert "COL 1 records ?X:=b, but its round's substitution gives ?X:=a (line 5)" in captured.err
    # columns that agree on the variable they share still verify
    trace_path.write_text(_shared_variable_refutation("?X:=a"))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0


CHAIN_TPTP = ("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | p(f(X))).\n"
              "cnf(c3, axiom, ~p(f(f(a)))).\n")


@pytest.mark.parametrize("sigma, message", [
    ("?X#3:=f(?X#3)", "malformed COL record: binding X#3 -> f(X#3) fails the occurs check"),
    ("?X#3:=?X#3", "BOUND record other than its round's boundary literals"),
], ids=["cyclic", "identity"])
def test_trace_parser_rejects_a_cyclic_binding_and_drops_an_identity_one(sigma, message):
    # an identity binding is no binding, so column 3's boundary literal stays
    # ~p(?X#3), which the BOUND record does not list
    document = render_trace(prove(parse_tptp_cnf(CHAIN_TPTP))[1])
    assert "\t?X#3:=f(a)\t" in document
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_trace_document(document.replace("\t?X#3:=f(a)\t", f"\t{sigma}\t"))


@pytest.mark.parametrize("column, message", [
    ("COL\t1\t1\tB\tp(?X)\t?X:=b;?X:=c\tp(?X)\tp(b)\t-", "variable ?X bound twice in '?X:=b;?X:=c'"),
    ("COL\t1\t1\tB\tp(?X\t-\tp(?X)\tp(?X)\t-", "expected ')' in 'p(?X' at offset 4"),
], ids=["sigma", "literal"])
def test_check_names_the_line_of_a_field_it_cannot_read(tmp_path, capsys, column, message):
    problem, trace_path = tmp_path / "shared.p", tmp_path / "unreadable.trace"
    problem.write_text(SHARED_VARIABLE_TPTP)
    trace_path.write_text(_trace_document("ROUND\t1", column))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
    assert f"{message} (line 3)" in capsys.readouterr().err


def test_trace_table_renders_empty_separation_marker(ex41):
    _, trace = prove(ex41, EngineConfig(time_budget=20.0))
    document = render_trace(trace, problem="ex41")
    assert "⊥" in document


def test_trace_renders_sigma_annotations(ex52):
    _, trace = prove(ex52, EngineConfig(time_budget=30.0))
    document = render_trace(trace, problem="ex52", verified=True)
    assert "s=" in document
    assert "verified" in document


# -- command line ----------------------------------------------------------------------


EX41_DIMACS = "c four clauses\np cnf 4 4\n1 0\n-1 4 0\n3 -4 0\n-1 -3 0\n"
SAT_DIMACS = "p cnf 4 2\n1 0\n-1 4 0\n"
EX51_TPTP = """
cnf(c1, axiom, (~p1(X11) | p2(X11))).
cnf(c2, axiom, (~p1(X21) | p3(X21))).
cnf(c3, axiom, (~p3(X31) | p4(X31) | p5(X31))).
cnf(c4, axiom, (~p4(X41) | p3(f(X41)))).
cnf(c5, axiom, p1(X51)).
cnf(c6, axiom, ~p5(X61)).
cnf(c7, axiom, ~p3(f(X71))).
"""


def _nested(depth):
    """A term of the given nesting depth: f(f(...f(a)...))."""
    return "f(" * (depth - 1) + "a" + ")" * (depth - 1)


def test_cli_prove_unsat(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    trace_path = tmp_path / "out.trace"
    code = cli_main(["prove", str(problem), "--trace", str(trace_path), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SZS status Unsatisfiable" in out
    assert trace_path.exists()


def test_cli_prove_sat_exit_zero(tmp_path, capsys):
    problem = tmp_path / "sat.cnf"
    problem.write_text(SAT_DIMACS)
    code = cli_main(["prove", str(problem), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SZS status Satisfiable" in out


def test_cli_prove_tptp_first_order(tmp_path, capsys):
    problem = tmp_path / "chain.p"
    problem.write_text(EX51_TPTP)
    code = cli_main(["prove", str(problem), "--format", "tptp-cnf", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SZS status Unsatisfiable" in out


def test_cli_prove_gave_up_exit_one(tmp_path, capsys):
    problem = tmp_path / "open.p"
    problem.write_text("cnf(c1, axiom, p(X)).\ncnf(c2, axiom, q(Y)).\n")
    code = cli_main(["prove", str(problem), "--timeout", "3", "--quiet"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SZS status GaveUp" in out


def test_cli_prove_with_a_zero_timeout_gives_up(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    code = cli_main(["prove", str(problem), "--timeout", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "SZS status GaveUp" in out and "REASON\ttime budget exhausted" in out


@pytest.mark.parametrize("timeout", ["nan", "-1", "ten"])
def test_cli_prove_rejects_a_timeout_that_is_not_a_number_of_seconds(tmp_path, capsys,
                                                                      timeout):
    problem = tmp_path / "sat.cnf"
    problem.write_text(SAT_DIMACS)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["prove", str(problem), f"--timeout={timeout}"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--timeout" in captured.err and "SZS status" not in captured.out


def test_cli_prove_has_no_mode_flag(tmp_path, capsys):
    problem = tmp_path / "sat.cnf"
    problem.write_text(SAT_DIMACS)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["prove", str(problem), "--mode", "sat"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--mode" in captured.err and "SZS status" not in captured.out


def test_cli_prove_has_no_width_threshold_flag(tmp_path, capsys):
    # the cap on a round's separated clause is always twice the widest input clause
    problem = tmp_path / "sat.cnf"
    problem.write_text(SAT_DIMACS)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["prove", "--nt", "3", str(problem)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "--nt" in captured.err and "SZS status" not in captured.out


def test_cli_prove_never_prints_a_verdict_its_own_check_rejected(tmp_path, capsys,
                                                                 monkeypatch):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    trace_path = tmp_path / "out.trace"
    monkeypatch.setattr("trisep.cli.verify_trace",
                        lambda *_: VerificationResult(False, "round 1: forced failure"))
    code = cli_main(["prove", str(problem), "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert f"% SZS status Error for {problem}" in out
    assert "forced failure" in out
    assert "Unsatisfiable" not in out and "SZS output" not in out
    assert not trace_path.exists()


@pytest.mark.parametrize("fault, diagnostic", [
    (("VERDICT\tunsatisfiable\n", ""), "the rendered trace does not parse: "),
    (("VERDICT\tunsatisfiable", "VERDICT\tsatisfiable"), "satisfiable verdict without a model"),
])
def test_cli_prove_certifies_the_document_it_prints(tmp_path, capsys, monkeypatch, fault,
                                                    diagnostic):
    # a rendering fault that the engine's own trace would not show: prove
    # verifies the machine section it prints, read back
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    trace_path = tmp_path / "out.trace"
    monkeypatch.setattr("trisep.cli.render_trace",
                        lambda *args, **kwargs: render_trace(*args, **kwargs).replace(*fault))
    code = cli_main(["prove", str(problem), "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 3
    assert f"% SZS status Error for {problem}" in out
    assert f"% verification failed: {diagnostic}" in out
    assert "Unsatisfiable" not in out and not trace_path.exists()


def test_cli_check_verifies_written_trace(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    trace_path = tmp_path / "out.trace"
    assert cli_main(["prove", str(problem), "--trace", str(trace_path), "--quiet"]) == 0
    capsys.readouterr()
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "verified" in out


def test_cli_check_fails_on_tampered_trace(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    trace_path = tmp_path / "out.trace"
    cli_main(["prove", str(problem), "--trace", str(trace_path), "--quiet"])
    text = trace_path.read_text().replace("VERDICT\tunsatisfiable",
                                          "VERDICT\tsatisfiable")
    trace_path.write_text(text)
    capsys.readouterr()
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 3
    # a bogus verdict or an empty file is an input error, never "verified"
    for claimless in (text.replace("VERDICT\tsatisfiable", "VERDICT\tbogus"), ""):
        trace_path.write_text(claimless)
        assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2
        assert "verified" not in capsys.readouterr().out


def test_cli_check_verifies_a_hand_written_refutation(tmp_path, capsys):
    problem, trace_path = tmp_path / "units.cnf", tmp_path / "out.trace"
    problem.write_text(UNIT_PAIR_DIMACS)
    trace_path.write_text(_trace_document(*_UNIT_PAIR_REFUTATION))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
    assert "verified: 1 round(s)" in capsys.readouterr().out


def test_cli_check_verifies_a_round_wider_than_the_recursion_limit(tmp_path, capsys):
    # the chain x1, ~x1 | x2, ..., ~x1099 | x1100, ~x1100, refuted in one round
    # of 1 101 columns: the oracle's tuple search must not recurse per column
    n = 1100
    problem, trace_path = tmp_path / "chain.cnf", tmp_path / "wide.trace"
    problem.write_text(f"p cnf {n} {n + 1}\n1 0\n"
                       + "".join(f"-{k} {k + 1} 0\n" for k in range(1, n)) + f"-{n} 0\n")
    columns = ["COL\t1\t1\tB\tx1\t-\tx1\tx1\t-"]
    columns += [f"COL\t{k + 1}\t{k + 1}\tB\tx{k + 1}\t-\t~x{k};x{k + 1}\tx{k + 1};~x{k}\t-"
                for k in range(1, n)]
    columns.append(f"COL\t{n + 1}\t{n + 1}\tC\t-\t-\t~x{n}\t~x{n}\t-")
    bound = ";".join(f"x{k}" for k in range(1, n + 1))
    trace_path.write_text(_trace_document("ROUND\t1", *columns, f"BOUND\t{bound}",
                                          f"CSC\t{n + 2}\t-", "VERDICT\tunsatisfiable"))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
    assert "verified: 1 round(s)" in capsys.readouterr().out


def test_cli_check_rejects_a_misplaced_wide_round_before_searching_it(tmp_path, capsys):
    # x1, k - 1 two-literal clauses on fresh atoms, and ~x1, with one round
    # whose middle columns hold their clauses whole as inside parts: the
    # contradiction search alone would try each of the 2^(k-1) tuples, so
    # the construction-order check must reject column 2 first
    k = 40
    problem, trace_path = tmp_path / "hostile.cnf", tmp_path / "hostile.trace"
    problem.write_text(f"p cnf {2 * k - 1} {k + 1}\n1 0\n"
                       + "".join(f"{2 * j} {2 * j + 1} 0\n" for j in range(1, k)) + "-1 0\n")
    columns = ["COL\t1\t1\tB\tx1\t-\tx1\tx1\t-"]
    columns += [f"COL\t{j + 1}\t{j + 1}\tB\tx{2 * j}\t-\tx{2 * j};x{2 * j + 1}"
                f"\tx{2 * j};x{2 * j + 1}\t-" for j in range(1, k)]
    columns.append(f"COL\t{k + 1}\t{k + 1}\tC\t-\t-\t~x1\t~x1\t-")
    bound = ";".join(["x1"] + [f"x{2 * j}" for j in range(1, k)])
    trace_path.write_text(_trace_document("ROUND\t1", *columns, f"BOUND\t{bound}",
                                          f"CSC\t{k + 2}\t-", "VERDICT\tunsatisfiable"))
    started = time.perf_counter()
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 3
    assert time.perf_counter() - started < 1.0
    assert ("verification failed: round 1: column 2 holds an inside literal that is neither "
            "its boundary literal nor the complement of an earlier one") in capsys.readouterr().out


@pytest.mark.parametrize("problem_text, records, diagnostic", [
    (UNIT_PAIR_DIMACS, _tampered(1, "COL\t1\t2\tB\tx1\t-\tx1\tx1\t-"),
     "round 1: column 1 is not a variant of clause 2"),
    (UNIT_PAIR_DIMACS, _tampered(1, "COL\t1\t1\tB\tx1\t-\tx1\tx1\tx1"),
     "round 1: column 1 partition overlaps"),
    (UNIT_PAIR_DIMACS, _tampered(1, "COL\t1\t1\tB\tx1\t-\tx1\t-\tx1"),
     "round 1: column 1 has an empty inside part"),
    # {x1} and {x2} are consistent: the columns are well formed, yet their
    # inside parts x1 and x2 contradict nothing; the closing column's x2
    # complements no boundary literal, so the order check rejects it before
    # the contradiction search runs, and no round that passes the order
    # check fails the search (see verify_trace)
    ("p cnf 2 2\n1 0\n2 0\n", _tampered(2, "COL\t2\t2\tC\t-\t-\tx2\tx2\t-"),
     "round 1: column 2 holds an inside literal that is neither its boundary literal nor the "
     "complement of an earlier one"),
    (UNIT_PAIR_DIMACS, _tampered(4, "CSC\t1\t-"), "round 1: separated clause id 1 already used"),
    (UNIT_PAIR_DIMACS, ["VERDICT\tunsatisfiable"],
     "verdict unsatisfiable with no rounds and no empty input clause"),
    ("cnf(c1, axiom, p(X)).\n", ["VERDICT\tsatisfiable", "MODEL\t-"],
     "satisfiable verdict on a first-order problem"),
    # the closing column written as a stair: the round has no closing column
    (UNIT_PAIR_DIMACS, _tampered(2, "COL\t2\t2\tS\t-\t-\t~x1\t~x1\t-"),
     "round 1: state is not closed"),
    (UNIT_PAIR_DIMACS, ["VERDICT\tunknown", "MODEL\tx1=true"], "a model with verdict unknown"),
    (UNIT_PAIR_DIMACS, (*_UNIT_PAIR_REFUTATION, "REASON\ttime budget exhausted"),
     "a reason with verdict unsatisfiable"),
    (SINGLE_UNIT_DIMACS, ["VERDICT\tsatisfiable", "REASON\ttime budget exhausted",
                          "MODEL\tx1=true"], "a reason with verdict satisfiable"),
    # the closing column placed before the boundary literal it complements:
    # the inside parts still contradict each other, but no construction
    # places the columns in this order
    (UNIT_PAIR_DIMACS, ["ROUND\t1", "COL\t1\t2\tC\t-\t-\t~x1\t~x1\t-",
                        "COL\t2\t1\tB\tx1\t-\tx1\tx1\t-", "BOUND\tx1", "CSC\t3\t-",
                        "VERDICT\tunsatisfiable"],
     "round 1: column 1 holds an inside literal that is neither its boundary literal nor the "
     "complement of an earlier one"),
], ids=["variant", "overlap", "empty-inside", "contradiction", "id-reused", "no-rounds",
        "first-order-sat", "no-closing-column", "unknown-with-model", "unsatisfiable-with-reason",
        "satisfiable-with-reason", "construction-order"])
def test_cli_check_reports_each_rejection(tmp_path, capsys, problem_text, records, diagnostic):
    problem, trace_path = tmp_path / "problem", tmp_path / "tampered.trace"
    problem.write_text(problem_text)
    trace_path.write_text(_trace_document(*records))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 3
    assert f"verification failed: {diagnostic}" in capsys.readouterr().out


def test_verify_trace_rejects_an_open_state():
    # a parsed round without its closing column fails the same way (see
    # test_cli_check_reports_each_rejection)
    s = clause_set([[pos("p")], [neg("p")]])
    opened = start(s.clauses[0], pos("p"))
    trace = ProofTrace((RoundRecord(opened, Clause(3, [pos("p")])),), "unknown")
    assert verify_trace(s, trace) == VerificationResult(False, "round 1: state is not closed")


def test_cli_oracle(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    assert cli_main(["oracle", str(problem)]) == 0
    assert "Unsatisfiable" in capsys.readouterr().out
    sat = tmp_path / "sat.cnf"
    sat.write_text(SAT_DIMACS)
    assert cli_main(["oracle", str(sat)]) == 0
    assert "Satisfiable" in capsys.readouterr().out


def test_cli_input_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf x y\n")
    assert cli_main(["prove", str(bad)]) == 2
    assert cli_main(["prove", str(tmp_path / "missing.cnf")]) == 2
    # nesting one level past the bound, in a term or in parentheses
    deeper = tmp_path / "deeper.p"
    deeper.write_text(f"cnf(c1, axiom, p({_nested(MAX_TERM_DEPTH + 1)})).\n"
                      "cnf(c2, axiom, ~p(X)).\n")
    assert cli_main(["prove", str(deeper)]) == 2
    deeper.write_text("cnf(c1, axiom, " + "(" * (MAX_TERM_DEPTH + 1) + "p"
                      + ")" * (MAX_TERM_DEPTH + 1) + ").\n")
    assert cli_main(["prove", str(deeper)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_cli_prove_on_a_directory_is_an_input_error(tmp_path, capsys):
    assert cli_main(["prove", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_check_with_a_directory_as_trace_is_an_input_error(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    assert cli_main(["check", str(problem), "--trace", str(tmp_path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_prove_writing_its_trace_to_a_directory_is_an_input_error(tmp_path, capsys):
    problem = tmp_path / "ex41.cnf"
    problem.write_text(EX41_DIMACS)
    assert cli_main(["prove", str(problem), "--trace", f"{tmp_path}/", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert "SZS status" not in captured.out


def test_cli_format_autodetection(tmp_path, capsys):
    tptp = tmp_path / "auto.p"
    tptp.write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n")
    assert cli_main(["prove", str(tptp), "--quiet"]) == 0
    assert "Unsatisfiable" in capsys.readouterr().out


def test_dimacs_comment_and_header_words_end_at_any_whitespace(tmp_path, capsys):
    # "c<TAB>..." and "p<TAB>cnf" used to select TPTP, so prove exited 2 with
    # "expected 'cnf'"
    from trisep import load_problem
    from trisep.problems import detect_format
    text = "c\tgenerated\np cnf 1 1\n1 0\n"
    assert load_problem(text).format == "dimacs"
    assert load_problem("p\tcnf 1 1\n1 0\n").format == "dimacs"
    assert detect_format("c\n% skipped\ncnf(c1, axiom, p).\n") == "tptp-cnf"
    assert load_problem("cnf(c1, axiom, p).\n").format == "tptp-cnf"
    problem = tmp_path / "tab.cnf"
    problem.write_text(text)
    assert cli_main(["prove", str(problem)]) == 0
    assert "SZS status Satisfiable" in capsys.readouterr().out


@pytest.mark.parametrize("first, comment", [
    ("c", True), ("c\tx", True), ("comment", False), ("cnf(c1, axiom, p).", False)])
def test_both_dimacs_readers_take_a_comment_to_be_the_word_c(tmp_path, capsys, first, comment):
    # parse_dimacs used to skip every line starting with c, so "comment" was
    # read as DIMACS under --format dimacs, yet selected TPTP under auto
    from trisep.problems import detect_format
    text = f"{first}\np cnf 1 1\n1 0\n"
    assert detect_format(text) == ("dimacs" if comment else "tptp-cnf")
    if comment:
        assert [str(c) for c in parse_dimacs(text).clauses] == ["x1"]
    else:
        with pytest.raises(ParseError, match="before the 'p cnf' header"):
            parse_dimacs(text)
    problem = tmp_path / "first-line.cnf"
    problem.write_text(text)
    for fmt in ("auto", "dimacs"):
        assert cli_main(["prove", str(problem), "--format", fmt, "--quiet"]) == (0 if comment else 2)
    capsys.readouterr()


def test_cli_term_at_the_depth_bound_proves_and_rechecks(tmp_path, capsys):
    problem = tmp_path / "deep.p"
    deep = _nested(MAX_TERM_DEPTH)
    problem.write_text(f"cnf(c1, axiom, p({deep})).\n"
                       "cnf(c2, axiom, ~p(X) | q(X)).\n"
                       f"cnf(c3, axiom, ~q({deep})).\n")
    trace_path = tmp_path / "deep.trace"
    assert cli_main(["prove", str(problem), "--trace", str(trace_path), "--quiet"]) == 0
    assert "SZS status Unsatisfiable" in capsys.readouterr().out
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
    assert "verified" in capsys.readouterr().out
    # one level deeper in the trace document is an input error
    text = trace_path.read_text()
    assert f":={deep}\t" in text  # the closing column's binding
    trace_path.write_text(text.replace(f":={deep}\t", f":=f({deep})\t"))
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 2


def test_console_entry_point_installed():
    result = subprocess.run([sys.executable, "-m", "trisep.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "prove" in result.stdout


# -- problem sources -----------------------------------------------------------------


def test_problem_source_carries_its_format_and_path(tmp_path):
    from trisep import load_problem, load_problem_file
    source = load_problem("p cnf 2 1\n1 -2 0\n")
    assert source.format == "dimacs"
    path = tmp_path / "q.p"
    path.write_text("cnf(c1, axiom, (p | ~q)).")
    source = load_problem_file(str(path))
    assert source.format == "tptp-cnf"
    assert source.path == str(path)


@pytest.mark.parametrize("text", ["cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n", UNIT_PAIR_DIMACS],
                         ids=["tptp", "dimacs"])
def test_a_byte_order_mark_before_a_problem_or_a_trace_is_dropped(tmp_path, capsys, text):
    # U+FEFF used to be read as the problem's first character, and as part of
    # a bare machine section's TRACE BEGIN record; both exited 2
    problem, trace_path = tmp_path / "bom.in", tmp_path / "bom.trace"
    problem.write_text("\ufeff" + text, encoding="utf-8")
    assert cli_main(["prove", str(problem), "--quiet", "--trace", str(trace_path)]) == 0
    assert "SZS status Unsatisfiable" in capsys.readouterr().out
    document = trace_path.read_text(encoding="utf-8")
    machine = document[document.index("TRACE\tBEGIN"):]
    trace_path.write_text("\ufeff" + machine, encoding="utf-8")
    assert cli_main(["check", str(problem), "--trace", str(trace_path)]) == 0
    assert "verified" in capsys.readouterr().out


def test_scripted_round_on_parsed_tptp_clauses():
    # transcribe the seven-clause chain, then reproduce the recorded round on
    # the parsed clauses: the separation comes out as p3(f(X)) | ~p3(X)
    from trisep import Substitution, close, extend, start
    from trisep.tptp import render_literal_tptp
    s = parse_tptp_cnf(EX51_TPTP)
    by_id = {c.id: c for c in s.clauses}
    x31 = Variable("X31")
    state = start(by_id[6], by_id[6].literals[0])
    state = extend(state, by_id[3], by_id[3].literals[1],
                   sigma=Substitution({"X61": x31}))
    state = close(state, by_id[7 - 3], sigma=Substitution({"X41": x31}))
    rendered = sorted(render_literal_tptp(l) for l in state.csc)
    assert rendered == ["p3(f(X31))", "~p3(X31)"]


def test_rendered_table_rows_match_the_recorded_layout(ex41):
    # the one-round refutation renders with complements row-aligned: each row
    # holds a boundary literal and every complement pulled against it
    _, trace = prove(ex41, EngineConfig(time_budget=20.0))
    table = render_trace(trace, problem="ex41")
    rows = [line for line in table.splitlines()
            if line and not line.startswith(("#", "=", "C", "-", "separated",
                                             "TRACE", "ROUND", "COL", "BOUND",
                                             "CSC", "VERDICT", "MODEL"))]
    cells = [set(row.split()) for row in rows if row.strip()]
    assert {"p3", "~p3"} in cells
    assert {"p4", "~p4"} in cells
    assert {"p1", "~p1"} in cells


# -- demos -------------------------------------------------------------------------------


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(demo.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
