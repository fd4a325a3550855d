"""Trace documents: tabular rendering plus a machine-readable section.

The table puts the latest-selected clause leftmost, one row per boundary
position (first selection at the bottom), complements row-aligned with their
boundary partner, and leftover literals in a band above the boundary rows.

The machine section is line-oriented UTF-8, one tab-separated record per
line (tags: ROUND, COL, BOUND, CSC, VERDICT, REASON when the outcome gives
one, and MODEL for satisfiable outcomes). It alone carries everything
verify_trace needs; variables are written with a '?' sigil so parsing never
depends on case conventions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .errors import ParseError
from .logic import (Clause, Constant, Literal, Variable, merge_duplicate_literals,
                    variable_names)
from .oracle import Column, ProofTrace, RoundRecord, _instantiate
from .tptp import TRACE_SPELLING, TermReader

SZS_BY_VERDICT = {
    "unsatisfiable": "Unsatisfiable",
    "satisfiable": "Satisfiable",
    "unknown": "GaveUp",
}


# -- machine-level term and literal syntax -----------------------------------


def format_term(term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    if isinstance(term, Constant):
        return term.name
    return f"{term.name}({','.join(format_term(a) for a in term.args)})"


def format_literal(lit: Literal) -> str:
    args = f"({','.join(map(format_term, lit.args))})" if lit.args else ""
    return f"{'' if lit.positive else '~'}{lit.predicate}{args}"


def parse_literal_text(text: str) -> Literal:
    reader = TermReader(text.strip(), TRACE_SPELLING)
    lit = Literal(not reader.eat("~"), reader.name(), reader.arguments(1))
    reader.end()
    return lit


def _format_literals(literals) -> str:
    return ";".join(format_literal(l) for l in literals) if literals else "-"


def _format_sigma(sigma, binding="?{}:={}", term=format_term, sep=";", empty="-") -> str:
    """A substitution (any mapping) as its bindings sorted by variable name,
    spelled as in a COL record unless told otherwise."""
    if not sigma:
        return empty
    return sep.join(binding.format(name, term(t)) for name, t in sorted(sigma.items()))


def _parse_sigma(field: str, names: frozenset) -> dict:
    """A column's substitution, which may bind only the variables in names;
    an identity binding is dropped, and a cyclic one rejected."""
    if field == "-":
        return {}
    bindings = {}
    for part in field.split(";"):
        if ":=" not in part or not part.startswith("?"):
            raise ParseError(f"malformed binding {part!r}")
        name, text = part.split(":=", 1)
        if name[1:] in bindings:
            raise ParseError(f"variable {name} bound twice in {field!r}")
        if name[1:] not in names:
            raise ParseError(f"{name} is bound, but the column's source literals do not hold it")
        reader = TermReader(text, TRACE_SPELLING)
        bindings[name[1:]] = reader.term()
        reader.end()
    for name, term in list(bindings.items()):
        if isinstance(term, Variable) and term.name == name:  # binds nothing
            del bindings[name]
        elif name in term.variable_names:
            raise ValueError(f"binding {name} -> {term} fails the occurs check")
    return bindings


# -- tabular rendering ---------------------------------------------------------


def _column_label(state, index) -> str:
    return f"C{state.columns[index].clause_id}"


def render_round_table(state) -> str:
    columns = list(range(len(state.columns)))
    bearers = [i for i in columns if state.columns[i].boundary_source is not None]
    boundary_position: Dict[int, int] = {i: position for position, i in enumerate(bearers)}
    band_height = max((len(state.d_plus(i)) for i in columns), default=0)
    n_rows = band_height + len(state.boundary)
    render_order = list(reversed(columns))
    grid = [["" for _ in render_order] for _ in range(n_rows)]

    def boundary_row(position: int) -> int:
        # position 0 (first selected) renders at the bottom
        return band_height + (len(state.boundary) - 1 - position)

    first_complement: Dict[Literal, int] = {}  # a boundary complement's first position
    for position, blit in enumerate(state.boundary):
        first_complement.setdefault(blit.complement(), position)
    for out_idx, i in enumerate(render_order):
        for r, lit in enumerate(reversed(state.d_plus(i))):
            grid[band_height - 1 - r][out_idx] = str(lit)
        own_position = boundary_position.get(i)
        for lit in state.d_minus(i):
            if own_position is not None and lit == state.boundary[own_position]:
                grid[boundary_row(own_position)][out_idx] = str(lit)
            elif lit in first_complement:
                grid[boundary_row(first_complement[lit])][out_idx] = str(lit)

    headers = [_column_label(state, i) for i in render_order]
    sigma_row = None
    if state.sigma or any(
            a for i in columns for l in state.columns[i].source_literals for a in l.args):
        sigma_row = ["s={" + _format_sigma(state.column_sigma(i), "{} -> {}", str, ", ", "") + "}"
                     for i in render_order]
    table_rows = [headers] + ([sigma_row] if sigma_row else []) + grid
    widths = [max(len(row[c]) for row in table_rows) for c in range(len(render_order))]
    lines = []
    for r, row in enumerate(table_rows):
        line = "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        lines.append(line)
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


# -- the full document ---------------------------------------------------------


def _column_kind(col: Column) -> str:
    if col.closing:
        return "C"
    return "B" if col.boundary_source is not None else "S"


def render_trace(trace: ProofTrace, problem: str = "", config_note: str = "",
                 verified: Optional[bool] = None) -> str:
    lines = []
    lines.append(f"# problem: {problem or '(unnamed)'}")
    if config_note:
        lines.append(f"# config: {config_note}")
    status = {True: "verified", False: "VERIFICATION FAILED", None: "unverified"}[verified]
    lines.append(f"# verdict: {trace.verdict} ({status})")
    lines.append("")
    for number, record in enumerate(trace.rounds, start=1):
        state = record.state
        lines.append(f"== round {number} "
                     f"(clauses {', '.join(str(c) for c in record.clause_ids_used)}) ==")
        lines.append(render_round_table(state))
        csc_text = " | ".join(str(l) for l in record.csc.literals) or "⊥"
        lines.append(f"separated clause {record.csc.id}: {csc_text}")
        lines.append("")
    if trace.verdict == "satisfiable" and trace.model is not None:
        body = ", ".join(f"{name}={'true' if value else 'false'}"
                         for name, value in sorted(trace.model.items()))
        lines.append(f"model: {body}")
        lines.append("")
    if trace.verdict == "unknown" and trace.reason:
        lines.append(f"reason: {trace.reason}")
        lines.append("")

    # machine-readable section
    lines.append("TRACE\tBEGIN")
    for number, record in enumerate(trace.rounds, start=1):
        state = record.state
        lines.append(f"ROUND\t{number}")
        for pos, col in enumerate(state.columns):
            boundary = (format_literal(col.boundary_source)
                        if col.boundary_source is not None else "-")
            lines.append("\t".join([
                "COL", str(pos + 1), str(col.clause_id), _column_kind(col), boundary,
                _format_sigma(state.column_sigma(pos)),
                _format_literals(col.source_literals),
                _format_literals(state.d_minus(pos)),
                _format_literals(state.d_plus(pos)),
            ]))
        lines.append("BOUND\t" + _format_literals(state.boundary))
        lines.append(f"CSC\t{record.csc.id}\t{_format_literals(record.csc.literals)}")
    lines.append(f"VERDICT\t{trace.verdict}")
    if trace.reason:
        lines.append(f"REASON\t{trace.reason}")
    if trace.model is not None:
        body = ";".join(f"{name}={'true' if value else 'false'}"
                        for name, value in sorted(trace.model.items()))
        lines.append(f"MODEL\t{body or '-'}")
    lines.append("TRACE\tEND")
    return "\n".join(lines) + "\n"


# -- machine-section parsing ----------------------------------------------------


class RawState:
    """A parsed round state: recorded partitions are authoritative, the
    contradiction and partition checks in verify_trace recompute the rest.
    The round's substitution merges the column substitutions (mappings from
    variable names to terms, kept as dicts), each of which must be that
    substitution restricted to its column's variables, as a rendered state's
    are; raises ParseError otherwise."""

    def __init__(self, columns, column_sigmas, d_minus_parts, d_plus_parts):
        self.columns = tuple(columns)
        self._column_sigmas = tuple(dict(sub.items()) for sub in column_sigmas)
        self._d_minus = tuple(d_minus_parts)
        self._d_plus = tuple(d_plus_parts)
        self.closed = sum(col.closing for col in self.columns) == 1
        self.sigma = {name: term for sub in self._column_sigmas for name, term in sub.items()}
        for pos, (col, sub) in enumerate(zip(self.columns, self._column_sigmas), start=1):
            merged = {name: self.sigma[name] for name in variable_names(col.source_literals)
                      if name in self.sigma}
            if merged != sub:  # two columns bind a variable they share differently
                raise ParseError(f"COL {pos} records {_format_sigma(sub)}, but its round's "
                                 f"substitution gives {_format_sigma(merged)}")
        self.boundary = _instantiate(self.sigma, (col.boundary_source for col in self.columns
                                                  if col.boundary_source is not None))

    def column_sigma(self, index) -> dict:
        return self._column_sigmas[index]

    def d_minus(self, index):
        return self._d_minus[index]

    def d_plus(self, index):
        return self._d_plus[index]

    @property
    def csc(self):
        return merge_duplicate_literals(l for part in self._d_plus for l in part)


def parse_trace_document(text: str) -> ProofTrace:
    """Read the machine section back. Raises ParseError when the document
    makes no claim: no complete TRACE BEGIN/END section, no VERDICT record,
    or a verdict or MODEL value outside the rendered vocabulary; and when it
    would render back differently: a ROUND or COL number out of place, a
    column kind other than B (with a boundary literal), S or C (with '-'), a
    COL sigma that binds a variable twice or one its column does not hold,
    or that disagrees with another column's on a variable both hold, a
    round without one BOUND record, after its COL records, that lists its
    boundary literals, a second VERDICT, REASON or MODEL record, or a
    predicate named twice in one MODEL record. A parsed round is closed when
    it holds exactly one C column."""
    read: Dict[str, Literal] = {}  # each literal text is parsed once per document

    def literal(text: str) -> Literal:
        lit = read.get(text)
        if lit is None:  # only a text that parses is kept
            lit = read[text] = parse_literal_text(text)
        return lit

    def literals(field: str) -> tuple:
        return () if field == "-" else tuple(map(literal, field.split(";")))

    in_section = ended = False
    rounds: List[RoundRecord] = []
    current_round = None
    state = None  # the current round's, made at its BOUND record
    columns: List[Column] = []
    sigmas: List[dict] = []
    d_minus_parts: List[tuple] = []
    d_plus_parts: List[tuple] = []
    verdict = None
    reason = None
    model = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("TRACE\tBEGIN"):
            in_section, ended = True, False
            continue
        if raw.startswith("TRACE\tEND"):
            in_section, ended = False, in_section
            continue
        if not in_section or not raw.strip():
            continue
        fields = raw.split("\t")
        tag = fields[0]
        try:
            if tag == "ROUND":
                if current_round is not None:  # would merge the two rounds' columns
                    raise ParseError(f"ROUND record inside round {current_round}", line=line_no)
                current_round = int(fields[1])
                if current_round != len(rounds) + 1:
                    raise ParseError(f"ROUND {current_round} where round {len(rounds) + 1} "
                                     "is next", line=line_no)
            elif tag == "COL":
                _, pos, clause_id, kind, boundary, sigma, sources, d_minus, d_plus = fields
                if int(pos) != len(columns) + 1:
                    raise ParseError(f"COL {pos} where column {len(columns) + 1} is next",
                                     line=line_no)
                if state is not None:
                    raise ParseError(f"COL {pos} after its round's BOUND record", line=line_no)
                if kind not in ("B", "S", "C") or (kind == "B") == (boundary == "-"):
                    raise ParseError(f"column kind {kind!r} with boundary {boundary!r}: B needs "
                                     "a literal, S and C need '-'", line=line_no)
                boundary_lit = None if boundary == "-" else literal(boundary)
                columns.append(Column(int(clause_id), literals(sources),
                                      boundary_lit, closing=kind == "C"))
                sigmas.append(_parse_sigma(sigma, variable_names(columns[-1].source_literals)))
                d_minus_parts.append(literals(d_minus))
                d_plus_parts.append(literals(d_plus))
            elif tag == "BOUND":  # redundant with the COL records, so it must agree
                if state is not None:
                    raise ParseError(f"second BOUND record in round {current_round}", line=line_no)
                state = RawState(columns, sigmas, d_minus_parts, d_plus_parts)
                if current_round is None or literals(fields[1]) != state.boundary:
                    raise ParseError("BOUND record other than its round's boundary literals",
                                     line=line_no)
            elif tag == "CSC":
                if state is None:
                    raise ParseError("CSC record without its round's BOUND record", line=line_no)
                csc = Clause(int(fields[1]), literals(fields[2]))
                rounds.append(RoundRecord(state, csc))
                columns, sigmas, d_minus_parts, d_plus_parts = [], [], [], []
                current_round = state = None
            elif tag == "VERDICT":
                if verdict is not None:
                    raise ParseError("second VERDICT record", line=line_no)
                verdict = fields[1]
                if verdict not in SZS_BY_VERDICT:
                    raise ParseError(f"unknown verdict {verdict!r}", line=line_no)
            elif tag == "REASON":
                if reason is not None:
                    raise ParseError("second REASON record", line=line_no)
                reason = raw.split("\t", 1)[1]
            elif tag == "MODEL":
                if model is not None:
                    raise ParseError("second MODEL record", line=line_no)
                model = {}
                if fields[1] != "-":
                    for part in fields[1].split(";"):
                        name, value = part.split("=")
                        if value not in ("true", "false"):
                            raise ParseError(f"model value {value!r} for {name!r} is "
                                             "neither true nor false", line=line_no)
                        if name in model:
                            raise ParseError(f"{name!r} named twice in the MODEL record",
                                             line=line_no)
                        model[name] = value == "true"
            else:
                raise ParseError(f"unknown record tag {tag!r}", line=line_no)
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed {tag} record: {exc}", line=line_no) from None
        except ParseError as exc:  # from reading a field: name the record's line
            if exc.line is not None:
                raise
            raise ParseError(str(exc), line=line_no) from None
    if not ended:
        raise ParseError("no TRACE BEGIN/TRACE END section")
    if verdict is None:
        raise ParseError("no VERDICT record")
    if columns or current_round is not None:
        raise ParseError("trailing ROUND or COL records without a CSC record")
    return ProofTrace(tuple(rounds), verdict, model=model, reason=reason)
