"""Column-by-column contradiction construction around a main boundary line.

A construction state is a sequence of columns, one per selected clause.
Each non-closing, non-stair column contributes one boundary literal; the
boundary may never contain a complementary pair. A column's literals split
into the part inside the contradiction (d_minus: the boundary literal plus
every complement of an earlier boundary literal the clause happens to hold)
and the leftovers above it (d_plus). Closing pulls a nonempty set of boundary
complements from the last clause; the union of all d_plus parts is the
separated clause the round derives.

One set of steps serves both logics. Columns keep their pre-instantiation
literals and the state carries one global substitution; start, extend and
close each take the column's unifier and compose it into that substitution.
One column step derives a column (its instantiation, boundary literal and
partition) from the boundary before it and extends the state's fields with
it; the constructor is the fold of that step over a state's columns. A step
appends: it derives only the new column, unless the unifier binds a variable
of the earlier columns' instantiated literals. Such a unifier re-instantiates
them, which is how backward-propagating substitutions are realized, and the
whole state is rebuilt by the constructor. Propositional input is the case
in which every unifier is empty, so its steps always append. The column
step is the only engine code that applies a state's substitution: callers
read the state's boundary and instantiated columns. Finding a unifier is the
caller's concern (trisep.fol.greedy_pull, which grows it against that
boundary), and so is when to stop growing a construction
(trisep.engine.should_stop asks the working set).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional

from .errors import ConstructionError
from .logic import Clause, Literal, merge_duplicate_literals, variable_names
from .oracle import Column
from .unify import EMPTY, Substitution, apply_literal, apply_literals, compose


def _derive_column(pos: int, col: Column, sigma: Substitution, complements, closed: bool):
    """Derive column pos (1-based) under sigma, given the complements of the
    boundary literals before it and whether a closing column came before it:
    (instantiated literals, boundary literal or None, d_minus, d_plus).
    Raises ConstructionError at the first broken invariant."""
    if sigma:
        lits = apply_literals(sigma, col.source_literals)
    else:  # nothing to substitute: the merged source literals
        lits = merge_duplicate_literals(col.source_literals)
    blit = None
    if col.boundary_source is not None:
        if col.closing:
            raise ConstructionError(f"column {pos}: closing column carries a boundary literal")
        blit = apply_literal(sigma, col.boundary_source)
        if blit not in lits:
            raise ConstructionError(f"column {pos}: boundary literal {blit} not in the clause")
        if blit in complements:
            raise ConstructionError(
                f"column {pos}: boundary literal {blit} completes a complementary pair")
        d_minus = (blit,) + tuple(l for l in lits if l in complements and l != blit)
        d_plus = tuple(l for l in lits if l != blit and l not in complements)
    else:
        if closed and col.closing:
            raise ConstructionError(f"column {pos}: second closing column")
        d_minus = tuple(l for l in lits if l in complements)
        if not d_minus:
            kind = "closing" if col.closing else "stair"
            raise ConstructionError(
                f"column {pos}: {kind} column holds no complement of a boundary literal")
        d_plus = tuple(l for l in lits if l not in complements)
        if not col.closing and d_plus:
            raise ConstructionError(
                f"column {pos}: stair column leaves literals outside the contradiction")
    return lits, blit, d_minus, d_plus


class Triangle:
    """Immutable construction state; every operation returns a new one.

    A state is what its column steps make: _plus derives one column and
    extends every field with it, and Triangle(columns, sigma) folds _plus
    over the columns. Besides the columns and sigma, a state carries its
    closedness (it holds its closing column), boundary, partitions,
    instantiated literals, boundary complements, leftovers (the union of the
    d_plus parts, duplicate-free, in column order: the csc once closed) and
    the variables of its instantiated literals.
    """

    __slots__ = ("columns", "sigma", "closed", "boundary", "parts", "_instantiated",
                 "boundary_complements", "leftovers", "_free")

    def __init__(self, columns: Iterable[Column], sigma: Substitution = EMPTY):
        self._set((), sigma, False, (), (), (), frozenset(), (), frozenset())
        state = self
        for col in columns:
            state = state._plus(col, sigma)
        self._set(*(getattr(state, name) for name in self.__slots__))

    def _set(self, *fields):
        """Fill the slots with fields, in __slots__ order."""
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _plus(self, col: Column, sigma: Substitution) -> "Triangle":
        """This state plus col, derived under sigma. The earlier columns are
        taken as they are, so sigma must not re-instantiate them."""
        lits, blit, d_minus, d_plus = _derive_column(
            len(self.columns) + 1, col, sigma, self.boundary_complements, self.closed)
        complements, leftovers = self.boundary_complements, self.leftovers
        state = object.__new__(Triangle)
        state._set(self.columns + (col,), sigma, self.closed or col.closing,
                   self.boundary if blit is None else self.boundary + (blit,),
                   self.parts + ((d_minus, d_plus),), self._instantiated + (lits,),
                   complements if blit is None else complements | {blit.complement()},
                   leftovers + tuple(l for l in d_plus if l not in leftovers),
                   self._free | variable_names(lits))
        return state

    def _append(self, col: Column, unifier: Substitution) -> "Triangle":
        """This open state plus col, under unifier composed into sigma: one
        step, unless the unifier binds a variable of the instantiated columns
        (backward propagation) and the whole state is re-derived."""
        sigma = compose(unifier, self.sigma)
        if not self._free.isdisjoint(unifier.domain):
            return Triangle(self.columns + (col,), sigma)
        return self._plus(col, sigma)

    def __setattr__(self, name, value):
        raise AttributeError("Triangle is immutable")

    # -- views -------------------------------------------------------------

    def instantiated(self, index: int) -> tuple:
        return self._instantiated[index]

    def d_minus(self, index: int) -> tuple:
        return self.parts[index][0]

    def d_plus(self, index: int) -> tuple:
        return self.parts[index][1]

    @property
    def csc(self) -> Optional[tuple]:
        """The separated clause's literals once closed, else None."""
        return self.leftovers if self.closed else None

    @property
    def closing_index(self) -> Optional[int]:
        for i, col in enumerate(self.columns):
            if col.closing:
                return i
        return None

    def column_sigma(self, index: int) -> Substitution:
        """The global substitution restricted to this column's own variables."""
        return self.sigma.restrict(variable_names(self.columns[index].source_literals))

    def holds_variable(self, name: str) -> bool:
        """Whether the variable name is free in the instantiated literals or
        bound by sigma. In a state grown by the construction steps, these are
        exactly the variables of its columns' source literals (a pruned
        state's sigma may also bind those of dropped columns)."""
        return name in self._free or self.sigma.get(name) is not None

    def clause_ids(self) -> tuple:
        return tuple(col.clause_id for col in self.columns)

    def is_stair(self, index: int) -> bool:
        col = self.columns[index]
        return col.boundary_source is None and not col.closing

    def __str__(self):
        bits = []
        for i, col in enumerate(self.columns):
            d_minus, d_plus = self.parts[i]
            tag = "closing" if col.closing else ("stair" if self.is_stair(i) else str(d_minus[0]))
            bits.append(f"[{col.clause_id}:{tag} -| {','.join(map(str, d_minus))}"
                        f" |+ {','.join(map(str, d_plus))}]")
        state = "closed" if self.closed else "open"
        return f"Triangle({state}; " + " ".join(bits) + ")"


# -- construction steps --------------------------------------------------------

EMPTY_STATE = Triangle(())  # every construction grows from here


def start(first_clause: Clause, boundary_literal: Literal,
          sigma: Substitution = EMPTY) -> Triangle:
    """Open a construction with one clause and its boundary literal."""
    return extend(EMPTY_STATE, first_clause, boundary_literal, sigma)


def extend(state: Triangle, clause: Clause, boundary_literal: Optional[Literal],
           sigma: Substitution = EMPTY) -> Triangle:
    """Add a clause under the unifier sigma. boundary_literal None adds a stair
    column, which is only legal when every literal of the instantiated clause
    complements an earlier boundary literal."""
    if state.closed:
        raise ConstructionError("cannot extend a closed state")
    if boundary_literal is not None and boundary_literal not in clause.literals:
        raise ConstructionError(f"literal {boundary_literal} is not in clause {clause.id}")
    return state._append(Column(clause.id, clause.literals, boundary_literal), sigma)


def close(state: Triangle, last_clause: Clause, sigma: Substitution = EMPTY) -> Triangle:
    """Close the construction under the unifier sigma; the instantiated clause
    must hold a boundary complement."""
    if state.closed:
        raise ConstructionError("state is already closed")
    return state._append(Column(last_clause.id, last_clause.literals, None, closing=True),
                         sigma)


# -- deduction-preserving transformations ------------------------------------


def normalize_stairs(state: Triangle) -> Triangle:
    """Move stair columns to the leftmost region of the rendered table (the
    end of the selection order). The separated clause is unchanged."""
    if not state.closed:
        raise ConstructionError("normalize_stairs expects a closed state")
    stairs = [col for i, col in enumerate(state.columns) if state.is_stair(i)]
    if not stairs:
        return state
    rest = [col for i, col in enumerate(state.columns) if not state.is_stair(i)]
    return Triangle(tuple(rest) + tuple(stairs), state.sigma)


def prune_redundant_columns(state: Triangle) -> Triangle:
    """Drop columns that carry no deductive weight.

    A column survives exactly when it is not a stair and is either the
    closing column or a boundary column whose boundary literal's complement
    is held by a surviving later column; every other one is removed. One
    right-to-left pass decides each column from the survivors after it, and
    the kept columns are rebuilt once. That is the fixpoint of removing, pass
    after pass, every stair and every boundary column whose complement no
    later column holds: a removal only shrinks what later columns hold, so
    a column removed on some pass also fails against the final survivors,
    and a column that survives every pass holds against them. The surviving
    columns keep their partitions, since no surviving column holds the
    complement of a removed boundary literal, and the separated clause
    loses exactly the pruned columns' leftovers. So the pruned state is
    assembled from the surviving columns' fields under the same sigma, not
    derived again.
    """
    if not state.closed:
        raise ConstructionError("prune_redundant_columns expects a closed state")
    held = set()  # the instantiated literals of the surviving later columns
    kept = []
    for i in range(len(state.columns) - 1, -1, -1):
        col = state.columns[i]
        if col.closing or (col.boundary_source is not None
                           and state.d_minus(i)[0].complement() in held):
            kept.append(i)
            held.update(state.instantiated(i))
    if len(kept) == len(state.columns):
        return state
    kept.reverse()
    lits = [state.instantiated(i) for i in kept]
    boundary = tuple(state.d_minus(i)[0] for i in kept
                     if state.columns[i].boundary_source is not None)
    pruned = object.__new__(Triangle)
    pruned._set(tuple(state.columns[i] for i in kept), state.sigma, True, boundary,
                tuple(state.parts[i] for i in kept), tuple(lits),
                frozenset(b.complement() for b in boundary),
                tuple(dict.fromkeys(l for i in kept for l in state.d_plus(i))),
                variable_names(chain.from_iterable(lits)))
    return pruned
