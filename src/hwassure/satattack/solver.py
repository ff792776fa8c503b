"""Incremental CDCL SAT solver.

Small but complete: two-watched-literal propagation, first-UIP clause
learning, VSIDS-style activities with phase saving, Luby restarts, and
solving under assumptions so the attack loop can reuse one solver while
clauses accrue. Everything is deterministic: no randomness is used.

The decision order is an indexed binary heap of variables, as in MiniSat
(Een & Sorensson, SAT 2003): ``heap`` lists variables and ``heap_pos[v]``
gives the slot of ``v``, or -1 when ``v`` is not in the heap. The heap
puts the higher activity first and breaks ties on the lower variable
index, so a decision takes the most active unassigned variable and, among
equals, the lowest-numbered one. Each variable is in the heap at most once:
a bump sifts it up in place, backtracking re-inserts only the variables
that are missing, and a decision pops assigned variables off the top
until it finds an unassigned one.

Literals use the DIMACS convention externally (+v / -v); internally a
literal is encoded as 2*v (positive) or 2*v+1 (negative), and
``value[lit]`` is 1 when the literal is true, 0 when it is false and 2
while its variable is unassigned.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .cnf import CnfFormula, to_dimacs

_UNDEF = 2


class SolverBudgetExceeded(Exception):
    """Raised when a conflict or wall-clock budget runs out mid-solve, or
    before the search when the wall-clock budget is zero or less."""


def _luby(i: int) -> int:
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i = i % size
    return 1 << seq


class CdclSolver:
    def __init__(self):
        self.nvars = 0
        self.clauses: List[List[int]] = []
        self.learnts: List[List[int]] = []
        self.watches: List[List[List[int]]] = [[], []]
        self.value = bytearray([_UNDEF, _UNDEF])
        self.level = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.polarity = bytearray([0])
        self.activity = [0.0]
        self.seen = bytearray([0])
        self.heap: List[int] = []
        self.heap_pos = [-1]
        self.var_inc = 1.0
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.ok = True
        self.model: Optional[List[Optional[bool]]] = None
        self.max_learnts = 8000
        self.conflicts_total = 0

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.value.extend((_UNDEF, _UNDEF))
        self.level.append(0)
        self.reason.append(None)
        self.polarity.append(0)
        self.activity.append(0.0)
        self.seen.append(0)
        self.watches.append([])
        self.watches.append([])
        self.heap_pos.append(-1)
        self._heap_insert(self.nvars)
        return self.nvars

    def ensure_vars(self, n: int) -> None:
        while self.nvars < n:
            self.new_var()

    # -- clause management -----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause (external literals); returns False if the formula
        became trivially unsatisfiable. Must be called at decision level 0."""
        if self.trail_lim:
            raise RuntimeError("add_clause requires decision level 0")
        if not self.ok:
            return False
        enc = {}
        out: List[int] = []
        for l in lits:
            v = abs(l)
            if v == 0:
                raise ValueError("0 is not a literal")
            self.ensure_vars(v)
            e = (v << 1) | (l < 0)
            if (e ^ 1) in enc:
                return True  # tautology
            if e in enc:
                continue
            enc[e] = True
            a = self.value[e]
            if a != _UNDEF:
                if a:
                    return True  # satisfied at level 0
                continue  # false at level 0: drop the literal
            out.append(e)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            return True
        self.clauses.append(out)
        self.watches[out[0]].append(out)
        self.watches[out[1]].append(out)
        return True

    # -- decision heap ---------------------------------------------------------

    def _heap_up(self, i: int) -> None:
        """Move the variable in slot ``i`` towards the root to its place."""
        heap = self.heap
        pos = self.heap_pos
        activity = self.activity
        v = heap[i]
        act = activity[v]
        while i:
            parent = (i - 1) >> 1
            u = heap[parent]
            au = activity[u]
            if au > act or (au == act and u < v):
                break
            heap[i] = u
            pos[u] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _heap_down(self, i: int) -> None:
        """Move the variable in slot ``i`` towards the leaves to its place."""
        heap = self.heap
        pos = self.heap_pos
        activity = self.activity
        n = len(heap)
        v = heap[i]
        act = activity[v]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            u = heap[child]
            au = activity[u]
            right = child + 1
            if right < n:
                w = heap[right]
                aw = activity[w]
                if aw > au or (aw == au and w < u):
                    child, u, au = right, w, aw
            if act > au or (act == au and v < u):
                break
            heap[i] = u
            pos[u] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _heap_insert(self, v: int) -> None:
        self.heap_pos[v] = len(self.heap)
        self.heap.append(v)
        self._heap_up(len(self.heap) - 1)

    def _heap_pop(self) -> int:
        heap = self.heap
        top = heap[0]
        last = heap.pop()
        self.heap_pos[top] = -1
        if heap:
            heap[0] = last
            self._heap_down(0)
        return top

    # -- assignment ------------------------------------------------------------

    def _enqueue(self, e: int, reason: Optional[List[int]]) -> None:
        v = e >> 1
        self.value[e] = 1
        self.value[e ^ 1] = 0
        self.polarity[v] = (e & 1) ^ 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(e)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        lim = self.trail_lim[lvl]
        trail = self.trail
        value = self.value
        reason = self.reason
        heap_pos = self.heap_pos
        for k in range(len(trail) - 1, lim - 1, -1):
            e = trail[k]
            value[e] = value[e ^ 1] = _UNDEF
            v = e >> 1
            reason[v] = None
            if heap_pos[v] < 0:
                self._heap_insert(v)
        del trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = lim

    # -- propagation -------------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        value = self.value
        polarity = self.polarity
        level = self.level
        reason = self.reason
        watches = self.watches
        trail = self.trail
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            falsified = p ^ 1
            ws = watches[falsified]
            if not ws:
                continue
            j = 0
            for i, c in enumerate(ws):
                first = c[0]
                if first == falsified:
                    first = c[1]
                    c[0] = first
                    c[1] = falsified
                a0 = value[first]
                if a0 == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if value[lk]:  # true or unassigned
                        c[1] = lk
                        c[k] = falsified
                        watches[lk].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if a0 == 0:
                        # first is false too: conflict; the clauses not yet
                        # visited keep their watch
                        del ws[j:i + 1]
                        self.qhead = qhead
                        return c
                    value[first] = 1
                    value[first ^ 1] = 0
                    v = first >> 1
                    polarity[v] = (first & 1) ^ 1
                    level[v] = cur_level
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    # -- learning ---------------------------------------------------------------

    def _bump(self, v: int) -> None:
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            activity = self.activity
            for i in range(1, self.nvars + 1):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
            # scaling keeps the order but can turn near-equal activities
            # into ties, which the index then breaks: restore the heap
            for i in range(len(self.heap) // 2 - 1, -1, -1):
                self._heap_down(i)
        elif self.heap_pos[v] >= 0:
            self._heap_up(self.heap_pos[v])

    def _analyze(self, confl: List[int]) -> tuple:
        learnt = [0]
        seen = self.seen
        level = self.level
        cur_level = len(self.trail_lim)
        path = 0
        p = -1
        index = len(self.trail) - 1
        cleared = []
        while True:
            start = 0 if p == -1 else 1
            for k in range(start, len(confl)):
                q = confl[k]
                v = q >> 1
                lv = level[v]
                if not seen[v] and lv > 0:
                    seen[v] = 1
                    cleared.append(v)
                    self._bump(v)
                    if lv >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            v = p >> 1
            confl = self.reason[v]
            seen[v] = 0
            path -= 1
            index -= 1
            if path <= 0:
                break
        learnt[0] = p ^ 1
        for v in cleared:
            seen[v] = 0
        if len(learnt) == 1:
            back = 0
        else:
            # move the highest-level remaining literal to the watch slot
            best = 1
            for k in range(2, len(learnt)):
                if level[learnt[k] >> 1] > level[learnt[best] >> 1]:
                    best = k
            learnt[1], learnt[best] = learnt[best], learnt[1]
            back = level[learnt[1] >> 1]
        self.var_inc /= 0.95
        return learnt, back

    def _reduce_db(self) -> None:
        """Drop the longest half of the learnt clauses and rebuild watches."""
        keep: List[List[int]] = []
        candidates: List[List[int]] = []
        for c in self.learnts:
            v0 = c[0] >> 1
            if len(c) <= 2 or self.reason[v0] is c:
                keep.append(c)
            else:
                candidates.append(c)
        candidates.sort(key=len)
        cut = len(candidates) // 2
        keep.extend(candidates[:cut])
        self.learnts = keep
        for ws in self.watches:
            ws.clear()
        for c in self.clauses:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        for c in self.learnts:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        self.qhead = 0
        self.max_learnts = int(self.max_learnts * 1.3)

    # -- search -------------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        # every unassigned variable is in the heap, so an empty heap means
        # a full assignment
        heap = self.heap
        value = self.value
        while heap:
            v = self._heap_pop()
            if value[v << 1] == _UNDEF:
                return v
        return None

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> bool:
        """Solve under assumptions. True: self.model holds an assignment.
        False: unsatisfiable under the assumptions (self.model is None).
        A conflict or time budget of zero or less raises
        SolverBudgetExceeded at once."""
        self.model = None
        if max_conflicts is not None and max_conflicts <= 0:
            raise SolverBudgetExceeded(f"conflict budget {max_conflicts} is not positive")
        if time_budget_s is not None and time_budget_s <= 0:
            raise SolverBudgetExceeded(f"time budget {time_budget_s} s is not positive")
        self._cancel_until(0)
        if not self.ok:
            return False
        assumps = [(abs(l) << 1) | (l < 0) for l in assumptions]
        for l in assumptions:
            self.ensure_vars(abs(l))
        conflicts_here = 0
        restart_num = 1
        restart_limit = 100 * _luby(restart_num)
        since_restart = 0
        deadline = None if time_budget_s is None else time.monotonic() + time_budget_s

        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts_here += 1
                self.conflicts_total += 1
                since_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.learnts.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                if max_conflicts is not None and conflicts_here >= max_conflicts:
                    self._cancel_until(0)
                    raise SolverBudgetExceeded(f"conflict budget {max_conflicts} exhausted")
                if deadline is not None and conflicts_here % 256 == 0:
                    if time.monotonic() > deadline:
                        self._cancel_until(0)
                        raise SolverBudgetExceeded("time budget exhausted")
                if since_restart >= restart_limit:
                    restart_num += 1
                    restart_limit = 100 * _luby(restart_num)
                    since_restart = 0
                    self._cancel_until(0)
                continue

            if len(self.learnts) > self.max_learnts:
                self._cancel_until(0)
                self._reduce_db()
                continue

            lvl = len(self.trail_lim)
            if lvl < len(assumps):
                a = assumps[lvl]
                st = self.value[a]
                if st != _UNDEF:
                    if st:
                        self.trail_lim.append(len(self.trail))
                        continue
                    self._cancel_until(0)
                    return False
                self.trail_lim.append(len(self.trail))
                self._enqueue(a, None)
                continue

            v = self._pick_branch()
            if v is None:
                self.model = [None] + [self.value[i << 1] == 1 for i in range(1, self.nvars + 1)]
                self._cancel_until(0)
                return True
            self.trail_lim.append(len(self.trail))
            self._enqueue((v << 1) | (self.polarity[v] ^ 1), None)


def make_solver(spec: str) -> Union[CdclSolver, "DimacsSolver"]:
    """The solver named by ``spec``: 'builtin' for :class:`CdclSolver`, or
    'dimacs:<path>' for an external DIMACS solver binary. Both offer
    ``new_var``, ``add_clause``, ``solve`` and ``model``."""
    if spec == "builtin":
        return CdclSolver()
    if isinstance(spec, str) and spec.startswith("dimacs:") and len(spec) > len("dimacs:"):
        return DimacsSolver(spec[len("dimacs:"):])
    raise ValueError(f"unknown solver spec {spec!r}; expected 'builtin' or 'dimacs:PATH'")


def solve(
    formula: CnfFormula,
    assumptions: Sequence[int] = (),
    solver: str = "builtin",
    max_conflicts: Optional[int] = None,
    time_budget_s: Optional[float] = None,
) -> Optional[List[Optional[bool]]]:
    """One-shot satisfiability check on the solver named by ``solver`` (see
    :func:`make_solver`). Returns a model indexed by variable (entry 0
    unused) or None when unsatisfiable."""
    s = make_solver(solver)
    for _ in range(formula.num_variables):
        s.new_var()
    for clause in formula.clauses:
        s.add_clause(clause)
    if s.solve(assumptions, max_conflicts=max_conflicts, time_budget_s=time_budget_s):
        return s.model
    return None


class DimacsSolver:
    """External solver speaking the SAT-competition format, behind the
    interface of :class:`CdclSolver`. It is not incremental: clauses accrue
    here, and each ``solve`` writes all of them, with the assumptions as
    unit clauses, and runs the binary once."""

    def __init__(self, path: str):
        self.path = path
        self.nvars = 0
        self.clauses: List[Tuple[int, ...]] = []
        self.model: Optional[List[Optional[bool]]] = None

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def add_clause(self, lits: Iterable[int]) -> bool:
        clause = tuple(lits)
        self.nvars = max([self.nvars] + [abs(l) for l in clause])
        self.clauses.append(clause)
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        time_budget_s: Optional[float] = None,
    ) -> bool:
        """True: self.model holds an assignment. False: unsatisfiable under
        the assumptions. The time budget bounds the external process."""
        self.model = None
        if max_conflicts is not None:
            raise ValueError("an external solver takes no conflict budget")
        work = CnfFormula(
            max([self.nvars] + [abs(l) for l in assumptions]),
            self.clauses + [(l,) for l in assumptions],
        )
        with tempfile.NamedTemporaryFile("w", suffix=".cnf", delete=False) as fh:
            fh.write(to_dimacs(work))
            path = fh.name
        try:
            proc = subprocess.run(
                [self.path, path],
                capture_output=True,
                text=True,
                timeout=time_budget_s,
            )
        except subprocess.TimeoutExpired as exc:
            raise SolverBudgetExceeded("external solver hit the time budget") from exc
        finally:
            os.unlink(path)
        out = proc.stdout
        if "s UNSATISFIABLE" in out or proc.returncode == 20:
            return False
        if "s SATISFIABLE" not in out and proc.returncode != 10:
            raise RuntimeError(
                f"external solver gave no verdict (rc={proc.returncode}): {out[:200]}"
            )
        model: List[Optional[bool]] = [None] + [False] * work.num_variables
        for line in out.splitlines():
            if line.startswith("v ") or line.startswith("v\t"):
                for tok in line[1:].split():
                    lit = int(tok)
                    if lit == 0:
                        continue
                    if abs(lit) <= work.num_variables:
                        model[abs(lit)] = lit > 0
        self.model = model
        return True
