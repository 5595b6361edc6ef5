"""A small CDCL SAT solver: watched literals, first-UIP learning, restarts.

The public interface uses the DIMACS convention — variable ``v`` is the
positive literal ``v`` and its negation is ``-v``; variables are
allocated densely from 1 via :meth:`CdclSolver.new_var`.  The solver is
incremental: clauses may be added between :meth:`CdclSolver.solve`
calls, and each call takes an optional assumption list, so one miter
encoding serves every output port of an equivalence check while learned
clauses carry over.

The implementation is the textbook MiniSat loop — two-watched-literal
propagation, first-UIP conflict analysis with non-recursive clause
minimization, VSIDS branching with phase saving, and Luby restarts —
kept deliberately compact: the instances this repository solves are
mapping miters of a few thousand clauses, not competition benchmarks.

Internally every literal is a *code*: ``v`` is ``2v`` and ``-v`` is
``2v + 1``, so negation is ``c ^ 1`` and the variable is ``c >> 1``.
Clauses, watch lists, the trail and the value array all hold codes;
DIMACS literals are converted only at the API boundary.

The VSIDS heap stores each distinct ``(-activity, var)`` entry once and
counts in ``_heap_copies`` how many copies of it the textbook heap (one
push per bump and per unassignment) would hold.  Identical tuples are
interchangeable in pop order, so branching — and with it the whole
search — is exactly that of the textbook heap, activity rescales
included, without its churn of stale duplicates.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SatError

_VAR_DECAY = 0.95
_RESCALE_LIMIT = 1e100
_RESTART_BASE = 128


def luby(i: int) -> int:
    """The i-th term (1-indexed) of the Luby restart sequence."""
    if i < 1:
        raise SatError("luby index must be >= 1, got %d" % i)
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


class SolverStats:
    """Cumulative work counters of one solver instance."""

    __slots__ = (
        "solves",
        "decisions",
        "propagations",
        "conflicts",
        "learned",
        "restarts",
    )

    def __init__(self) -> None:
        self.solves = 0
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.learned = 0
        self.restarts = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class CdclSolver:
    """Conflict-driven clause learning over a growable variable set."""

    def __init__(self) -> None:
        self.stats = SolverStats()
        self.ok = True
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._num_problem_clauses = 0
        # Indexed by literal code: +1 true, -1 false, 0 unassigned.
        self._values: List[int] = [0, 0]
        # Indexed by variable.  A reason is only meaningful while its
        # variable is assigned; the saved phase is a literal code.
        self._levels: List[int] = [0]
        self._reasons: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [1]
        self._seen = bytearray(1)
        # Indexed by literal code: clause indices watching that literal.
        self._watches: List[List[int]] = [[], []]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []
        self._heap_copies: Dict[Tuple[float, int], int] = {}
        self._var_inc = 1.0
        self._model: List[int] = []

    # -- problem construction ---------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return self._num_problem_clauses

    @property
    def num_learned(self) -> int:
        return len(self._clauses) - self._num_problem_clauses

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its positive literal."""
        self._num_vars += 1
        var = self._num_vars
        self._values += (0, 0)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._phase.append((var << 1) | 1)  # first branch: negative
        self._seen.append(0)
        self._watches.append([])
        self._watches.append([])
        entry = (0.0, var)
        self._heap_copies[entry] = 1
        heappush(self._heap, entry)
        return var

    def _code(self, lit: int) -> int:
        """The internal code of a DIMACS literal, after validating it."""
        if isinstance(lit, bool) or not isinstance(lit, int) or lit == 0:
            raise SatError("literals must be non-zero ints, got %r" % (lit,))
        if abs(lit) > self._num_vars:
            raise SatError(
                "literal %d references variable beyond %d allocated"
                % (lit, self._num_vars)
            )
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became unsatisfiable.

        Tautologies and level-0-satisfied clauses are dropped, duplicate
        and level-0-false literals removed.  Must not be called while a
        model from a previous :meth:`solve` is still being read — adding
        clauses backtracks all search state.
        """
        if not self.ok:
            return False
        self._backtrack(0)
        values = self._values
        seen = set()
        out: List[int] = []
        for raw in lits:
            code = self._code(raw)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            val = values[code]
            if val > 0:
                return True  # already true at level 0
            if val < 0:
                continue  # already false at level 0: drop the literal
            seen.add(code)
            out.append(code)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._assign(out[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        ci = len(self._clauses)
        self._clauses.append(out)
        self._num_problem_clauses += 1
        self._watches[out[0]].append(ci)
        self._watches[out[1]].append(ci)
        return True

    # -- assignment plumbing ----------------------------------------------

    def _assign(self, code: int, reason: Optional[int]) -> None:
        """Make ``code`` true at the current decision level.

        The hot loops inline this; it serves the cold paths.
        """
        self._values[code] = 1
        self._values[code ^ 1] = -1
        var = code >> 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(code)

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        mark = trail_lim[level]
        trail = self._trail
        values = self._values
        phase = self._phase
        activity = self._activity
        heap = self._heap
        copies = self._heap_copies
        for code in trail[mark:]:
            var = code >> 1
            values[code] = 0
            values[code ^ 1] = 0
            phase[var] = code
            # The textbook heap pushes (-activity, var) here; count the
            # copy instead when an identical entry is already queued.
            entry = (-activity[var], var)
            count = copies.get(entry)
            if count:
                copies[entry] = count + 1
            else:
                copies[entry] = 1
                heappush(heap, entry)
        del trail[mark:]
        del trail_lim[level:]
        self._qhead = mark

    # -- propagation -------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        clauses = self._clauses
        values = self._values
        levels = self._levels
        reasons = self._reasons
        watches = self._watches
        trail = self._trail
        level = len(self._trail_lim)
        start = qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            # Rebuild the watch list in order: a clause stays unless its
            # watch moves to a non-false literal.
            pending = iter(watches[false_lit])
            kept: List[int] = []
            watches[false_lit] = kept
            keep = kept.append
            for ci in pending:
                clause = clauses[ci]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if values[first] > 0:
                    keep(ci)
                    continue
                k = 2
                n = len(clause)
                while k < n:
                    other = clause[k]
                    if values[other] >= 0:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(ci)
                        break
                    k += 1
                else:
                    keep(ci)
                    if values[first] < 0:
                        kept.extend(pending)  # keep the unvisited watchers
                        self.stats.propagations += qhead - start
                        self._qhead = len(trail)
                        return ci
                    values[first] = 1
                    values[first ^ 1] = -1
                    var = first >> 1
                    levels[var] = level
                    reasons[var] = ci
                    trail.append(first)
        self.stats.propagations += qhead - start
        self._qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _rescale(self) -> None:
        """Shrink every activity; queued heap keys keep their old values."""
        inv = 1.0 / _RESCALE_LIMIT
        activity = self._activity
        for v in range(1, self._num_vars + 1):
            activity[v] *= inv
        self._var_inc *= inv

    def _analyze(self, confl: int) -> Tuple[List[int], int]:
        """First-UIP learned clause and its backjump level.

        Every variable met is bumped: its activity grows by the current
        increment and a fresh heap entry is queued for it.
        """
        learnt: List[int] = [0]  # slot 0 becomes the asserting literal
        clauses = self._clauses
        seen = self._seen
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        activity = self._activity
        heap = self._heap
        copies = self._heap_copies
        var_inc = self._var_inc
        limit = _RESCALE_LIMIT
        level = len(self._trail_lim)
        counter = 0
        p = -1  # no literal yet: take every conflict literal
        index = len(trail) - 1
        clause = clauses[confl]
        while True:
            for code in clause:
                if code == p:
                    continue
                var = code >> 1
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    act = activity[var] + var_inc
                    activity[var] = act
                    if act > limit:
                        self._rescale()
                        act = activity[var]
                        var_inc = self._var_inc
                    entry = (-act, var)
                    count = copies.get(entry)
                    if count:
                        copies[entry] = count + 1
                    else:
                        copies[entry] = 1
                        heappush(heap, entry)
                    if levels[var] >= level:
                        counter += 1
                    else:
                        learnt.append(code)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            counter -= 1
            seen[p >> 1] = 0
            if counter == 0:
                learnt[0] = p ^ 1
                break
            reason = reasons[p >> 1]
            assert reason is not None
            clause = clauses[reason]

        # Non-recursive minimization: a kept literal is redundant when
        # its reason clause is entirely inside the learned clause.
        kept = [learnt[0]]
        for code in learnt[1:]:
            reason = reasons[code >> 1]
            if reason is None:
                kept.append(code)
                continue
            true_lit = code ^ 1
            for other in clauses[reason]:
                var = other >> 1
                if other != true_lit and not seen[var] and levels[var] > 0:
                    kept.append(code)
                    break
        for code in learnt[1:]:
            seen[code >> 1] = 0

        if len(kept) == 1:
            return kept, 0
        # Move the deepest remaining literal to the watch slot.
        widest = 1
        for k in range(2, len(kept)):
            if levels[kept[k] >> 1] > levels[kept[widest] >> 1]:
                widest = k
        kept[1], kept[widest] = kept[widest], kept[1]
        return kept, levels[kept[1] >> 1]

    def _learn(self, learnt: List[int]) -> None:
        self.stats.learned += 1
        if len(learnt) == 1:
            self._assign(learnt[0], None)
            return
        ci = len(self._clauses)
        self._clauses.append(learnt)
        self._watches[learnt[0]].append(ci)
        self._watches[learnt[1]].append(ci)
        self._assign(learnt[0], ci)

    # -- branching ---------------------------------------------------------

    def _pick_branch(self) -> int:
        """The saved-phase code of the most active free variable, or -1.

        Popping a counted entry consumes one copy when it is returned
        and every copy when it is discarded — the textbook heap would
        pop the remaining identical copies back to back and discard
        each, since their variable is already assigned.
        """
        heap = self._heap
        copies = self._heap_copies
        values = self._values
        while heap:
            entry = heappop(heap)
            count = copies.pop(entry)
            var = entry[1]
            if values[var << 1] == 0:
                if count > 1:
                    copies[entry] = count - 1
                    heappush(heap, entry)
                return self._phase[var]
        return -1

    # -- the search loop ---------------------------------------------------

    def solve(
        self,
        assumptions: Iterable[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> bool:
        """True when satisfiable under ``assumptions``.

        Raises :class:`SatError` when ``max_conflicts`` is exhausted
        before a verdict — callers treating SAT results as proofs must
        never silently accept a budget blowout as either answer.
        """
        assumed = [self._code(a) for a in assumptions]
        stats = self.stats
        stats.solves += 1
        if not self.ok:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return False

        values = self._values
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        trail_lim = self._trail_lim
        propagate = self._propagate
        restart_round = 0
        budget = _RESTART_BASE * luby(1)
        conflicts_here = 0
        total_conflicts = 0
        while True:
            confl = propagate()
            if confl is not None:
                stats.conflicts += 1
                conflicts_here += 1
                total_conflicts += 1
                if max_conflicts is not None and total_conflicts > max_conflicts:
                    self._backtrack(0)
                    raise SatError(
                        "conflict budget %d exhausted" % max_conflicts
                    )
                if not trail_lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(confl)
                self._backtrack(back_level)
                self._learn(learnt)
                self._var_inc /= _VAR_DECAY
                continue
            if conflicts_here >= budget:
                stats.restarts += 1
                restart_round += 1
                budget = _RESTART_BASE * luby(restart_round + 1)
                conflicts_here = 0
                self._backtrack(0)
                continue
            decision = -1
            for code in assumed:
                val = values[code]
                if val < 0:
                    # Forced false by level-0 facts and earlier
                    # assumptions alone: unsatisfiable under assumptions.
                    self._backtrack(0)
                    return False
                if val == 0:
                    decision = code
                    break
            if decision < 0:
                decision = self._pick_branch()
                if decision < 0:
                    self._model = list(values)
                    self._backtrack(0)
                    return True
            stats.decisions += 1
            trail_lim.append(len(trail))
            values[decision] = 1
            values[decision ^ 1] = -1
            var = decision >> 1
            levels[var] = len(trail_lim)
            reasons[var] = None
            trail.append(decision)

    # -- model access ------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        """The last model's value of a literal (False when unassigned)."""
        if not self._model:
            raise SatError("no model: the last solve() did not return SAT")
        return self._model[self._code(lit)] > 0
