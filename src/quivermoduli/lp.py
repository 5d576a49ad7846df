"""Exact linear programming over the rationals.

A two-phase simplex on a condensed integer tableau: only the nonbasic
columns and the right-hand side are stored, each basic column being the
implicit unit column scaled by the common denominator (the previous pivot).
Pivots follow the fraction-free Bareiss rule, so every division is exact and
the inner loops are pure int arithmetic; the leaving variable's column takes
the entering one's slot.  Most pivots are unit steps, whose pivot element p
equals the denominator den.  There the Bareiss update (a*p - f*b) // den of
an entry a, with f the row's entry in the pivot column and b the pivot row's
entry, is a - f*b // den: den divides a*p - f*b, as every Bareiss
quotient is exact, and a*p = a*den, so den divides f*b.  A unit step
therefore leaves rows with f = 0 alone and touches the others only where the
pivot row is nonzero.

Constraints given as ints enter the tableau as they are, a row holding a
Fraction is scaled to integers, and only the results (witness and optimal
value) are Fractions.  Entering columns follow the steepest coefficient at
first and Bland's rule after a fixed pivot budget, which rules out cycling;
every tie goes to the lowest variable index, so the pivot sequence does not
depend on the order of the slots.

Each constraint enters the starting tableau as one `TableauRow`: scaled to
integers, negated when its right-hand side is negative, and carrying its
own slack entry.  Such a row depends on its constraint alone, so
`simplex_maximize` prepares its rows on every call, while a caller that
solves many systems over the same constraints (the chamber walk, see
`chambers._Space` and `chambers._Arrangement`) prepares each row once and
hands the prepared rows to `strict_interior_point`.  Both go through one
tableau builder, `_start`, which only lays the rows out, puts the slack
entries in place and sums the artificial rows into the phase-1 objective;
so a prepared row gives the same tableau entries, variable numbers and
pivots as the same constraint given as numbers.

Strict inequality systems are decided by maximizing an auxiliary slack
bounded away from zero: the open system {g_k . x > h_k} has a solution iff
max{s : g_k . x - s >= h_k} is positive.

When it has none, the final tableau holds a Farkas certificate.  The final
objective row gives den times the reduced costs, and the reduced cost of an
inequality's slack column is minus that inequality's dual multiplier.  So
the inequalities whose slack has a nonzero reduced cost are the support of
an optimal dual solution.  Restricted to those rows, the equalities and
x >= 0, the same dual solution stays feasible and keeps its value, so the
smaller system is empty as well: phase 1 still ends above zero, and phase 2
still caps the slack at zero.  This support is the system's *core*.

When it has one, the final tableau also decides whether the witness is
the only optimum.  Every feasible point y has objective value
z + sum d_j y_j, with z the optimum and d_j <= 0 the reduced cost of
nonbasic variable j, so the optimal face is the feasible set with y_j = 0
wherever d_j < 0.  On that face the basic variables are fixed by the free
nonbasic ones, those of the set J0 where d_j = 0, through the rows
x_B = b - A y_J0 >= 0 (b >= 0), and the witness is y_J0 = 0.  The face is
that point alone iff the cone {y_J0 >= 0 : A_D y_J0 <= 0}, over the rows D
where b is zero, is {0}: a nonzero y in the cone gives the face point t y
for small t > 0, as the other rows have room, and a nonzero face point
lies in the cone.  `_optimum_is_a_point` maximizes the sum of the J0
variables over that cone, a copy of the rows D restricted to J0 with the
basic variables as slacks.  The maximum is 0 (OPTIMAL) iff the cone is
{0}, and unbounded otherwise; every pivot is degenerate, and Bland's rule
keeps it from cycling.  With J0 empty (a dual-nondegenerate tableau) no
pivot is needed.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Optional, Sequence

from .projline import _scaled

ZERO = Fraction(0)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_DANTZIG_PIVOT_BUDGET = 64


class _Tableau:
    """Integer tableau over the nonbasic columns; true entries are M/den.

    rows[i] holds basic row i at the nonbasic columns, then its right-hand
    side, and obj holds den times the reduced costs the same way.  cols[s]
    is the variable of slot s and basis[i] the basic variable of row i,
    whose own column (den in row i, 0 elsewhere and in obj) is left out.
    """

    __slots__ = ("rows", "obj", "den", "basis", "cols")

    def __init__(self, rows, basis, cols):
        self.rows = rows
        self.obj = [0] * (len(cols) + 1)
        self.den = 1
        self.basis = basis
        self.cols = cols

    def pivot(self, r, s):
        """Exchange basic row r with the variable of slot s (Bareiss step).

        The leaving variable's column takes slot s: the old den in row r and
        -f in every other row, f being that row's entry at slot s.

        A unit step (pivot element p equal to den) turns the update
        (a*p - f*b) // den into a - f*b // den, exact because den divides
        a*p - f*b and a*p, hence f*b.  So a row with f == 0 stays as it is,
        and any other row, obj included, changes only where the pivot row is
        nonzero; those entries are updated in place.  Other steps rewrite
        every row."""
        rows = self.rows
        den = self.den
        prow = rows[r]
        p = prow[s]
        if p == den:
            nonzero = [(j, b) for j, b in enumerate(prow) if b and j != s]
            # chain, not a new tuple of the rows per pivot: CPython keeps up
            # to 2000 freed tuples of each length below 20, holding memory
            for row in chain(rows, (self.obj,)):
                f = row[s]
                if f and row is not prow:
                    for j, b in nonzero:
                        row[j] -= f * b // den
                    row[s] = -f
            self.basis[r], self.cols[s] = self.cols[s], self.basis[r]
            return
        for i, row in enumerate(rows):
            if i != r:
                f = row[s]
                if f:
                    row = [(a * p - f * b) // den for a, b in zip(row, prow)]
                    row[s] = -f
                    rows[i] = row
                elif den != 1:
                    rows[i] = [(a * p) // den for a in row]
                elif p != 1:
                    rows[i] = [a * p for a in row]
        obj = self.obj
        f = obj[s]
        if f:
            obj = [(a * p - f * b) // den for a, b in zip(obj, prow)]
            obj[s] = -f
        elif den != 1:
            obj = [(a * p) // den for a in obj]
        elif p != 1:
            obj = [a * p for a in obj]
        prow[s] = den
        self.obj = obj
        self.den = p
        self.basis[r], self.cols[s] = self.cols[s], self.basis[r]
        if p < 0:
            # keep the denominator positive so sign tests read directly
            self.den = -p
            for i, row in enumerate(rows):
                rows[i] = [-v for v in row]
            self.obj = [-v for v in obj]

    def optimize(self):
        """Maximize the carried objective.  Returns OPTIMAL or UNBOUNDED.

        Entering: the largest reduced cost, ties to the lowest variable,
        then after the budget the lowest variable with a positive one.
        Leaving: the least ratio, ties to the lowest basic variable."""
        rows, basis, cols = self.rows, self.basis, self.cols
        slots = range(len(cols))
        pivots = 0
        while True:
            obj = self.obj
            entering = -1
            if pivots < _DANTZIG_PIVOT_BUDGET:
                best = 0
                for s in slots:
                    v = obj[s]
                    if v > best or (v == best and v and cols[s] < cols[entering]):
                        best = v
                        entering = s
            else:
                for s in slots:
                    if obj[s] > 0 and (entering < 0 or cols[s] < cols[entering]):
                        entering = s
            if entering < 0:
                return OPTIMAL
            leaving = -1
            lb = lv = 0  # current best ratio = lb / lv
            for i, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    b = row[-1]
                    if leaving < 0:
                        leaving, lb, lv = i, b, a
                    else:
                        d = b * lv - lb * a
                        if d < 0 or (d == 0 and basis[i] < basis[leaving]):
                            leaving, lb, lv = i, b, a
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
            pivots += 1

    def set_objective(self, cost):
        """Install integer costs, indexed by variable, as den * (reduced
        costs) for the basis."""
        obj = [cost[j] * self.den for j in self.cols] + [0]
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb:
                obj = [a - cb * b for a, b in zip(obj, self.rows[i])]
        self.obj = obj

    def drop_from(self, first):
        """Delete every variable numbered `first` or higher, with the rows
        where such a variable is basic."""
        keep = [k for k, j in enumerate(self.cols) if j < first] + [-1]
        self.rows = [
            [row[k] for k in keep]
            for row, bi in zip(self.rows, self.basis)
            if bi < first
        ]
        self.basis = [bi for bi in self.basis if bi < first]
        self.cols = [j for j in self.cols if j < first]


class TableauRow(tuple):
    """One constraint as it enters the starting tableau: its integer
    coefficients over the structural variables, its own slack's entry, then
    its right-hand side, which is never negative.

    The slack entry is 1 for an a_ub row whose slack starts basic, -1 for an
    a_ub row negated to make its right-hand side nonnegative (its slack
    starts nonbasic and an artificial is basic) and 0 for an equality row
    (an artificial is basic)."""

    __slots__ = ()


def _prepare(coeffs, rhs, slack) -> TableauRow:
    """The row of coeffs . x (<= or =) rhs; `slack` is 1 or 0.  All-integer
    rows keep their entries, and a row holding a Fraction is scaled to
    integers over its least common denominator."""
    _, row = _scaled((*coeffs, rhs))
    if row[-1] < 0:
        return TableauRow((*(-v for v in row[:-1]), -slack, -row[-1]))
    return TableauRow((*row[:-1], slack, row[-1]))


def strict_row(g: Sequence[Rational], h: Rational) -> TableauRow:
    """The row of g . x > h in the max-slack LP of `strict_interior_point`:
    -g . x + s <= -h, with s the slack variable of that LP."""
    return _prepare((*(-v for v in g), 1), -h, 1)


def equality_row(g: Sequence[Rational], h: Rational) -> TableauRow:
    """The row of g . x = h in the max-slack LP of `strict_interior_point`."""
    return _prepare((*g, 0), h, 0)


def _start(n, ub, eq):
    """The starting tableau of prepared a_ub rows `ub` and equality rows
    `eq` over n structural variables, carrying the phase-1 objective, and
    the number of artificials.

    Variables are x, then one slack per a_ub row, then one artificial per
    row that starts with one (negated a_ub rows, then equality rows, in
    order).  The slack of a negated row starts nonbasic next to x, and the
    phase-1 objective, maximizing minus the sum of the artificials, is the
    sum of the artificials' rows."""
    first_art = n + len(ub)
    slots = [n + i for i, row in enumerate(ub) if row[n] < 0]
    pad = (0,) * len(slots)
    rows = []
    basis = []
    art = []
    s = n
    for i, prow in enumerate(ub):
        row = [*prow[:n], *pad, prow[-1]]
        if prow[n] < 0:
            row[s] = -1
            s += 1
            basis.append(first_art + len(art))
            art.append(row)
        else:
            basis.append(n + i)
        rows.append(row)
    for prow in eq:
        row = [*prow[:n], *pad, prow[-1]]
        basis.append(first_art + len(art))
        art.append(row)
        rows.append(row)
    tab = _Tableau(rows, basis, [*range(n), *slots])
    if art:
        tab.obj = [sum(col) for col in zip(*art)]
    return tab, len(art)


def _dual_support(tab, first_slack, first_art):
    """The a_ub rows whose slack has a nonzero reduced cost, ascending."""
    return sorted(
        j - first_slack
        for j, v in zip(tab.cols, tab.obj)
        if v and first_slack <= j < first_art
    )


def simplex_maximize(
    c: Sequence[Rational],
    a_ub: Sequence[Sequence[Rational]],
    b_ub: Sequence[Rational],
    a_eq: Sequence[Sequence[Rational]] = (),
    b_eq: Sequence[Rational] = (),
):
    """Maximize c . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Entries are ints or Fractions.  Returns (status, x, value); x and value
    are None unless status is OPTIMAL.
    """
    ub = [_prepare(row, b, 1) for row, b in zip(a_ub, b_ub)]
    eq = [_prepare(row, b, 0) for row, b in zip(a_eq, b_eq)]
    return _solve(c, ub, eq)


def _solve(c, ub, eq, support=None, final=None):
    """`simplex_maximize` over prepared rows.  A `support` list receives,
    when the status is INFEASIBLE or OPTIMAL, the indices of the ub rows
    whose slack has a nonzero reduced cost in the last objective row (phase
    1's when infeasible): the support of an optimal dual solution.  A
    `final` list receives, when the status is OPTIMAL, the final tableau,
    for `_optimum_is_a_point`."""
    n = len(c)
    first_art = n + len(ub)
    tab, nart = _start(n, ub, eq)

    if nart:
        status = tab.optimize()
        if status != OPTIMAL:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        if any(bi >= first_art and row[-1] for bi, row in zip(tab.basis, tab.rows)):
            if support is not None:
                support.extend(_dual_support(tab, n, first_art))
            return INFEASIBLE, None, None
        # pivot lingering zero-valued artificials out of the basis, each on
        # its lowest nonzero non-artificial column
        for i in range(len(tab.basis)):
            if tab.basis[i] >= first_art:
                row, cols = tab.rows[i], tab.cols
                nonzero = [s for s, j in enumerate(cols) if j < first_art and row[s]]
                if nonzero:
                    tab.pivot(i, min(nonzero, key=cols.__getitem__))
        tab.drop_from(first_art)

    mden, cost = _scaled(c)
    tab.set_objective(cost + [0] * len(ub))
    status = tab.optimize()
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    if support is not None:
        support.extend(_dual_support(tab, n, first_art))
    if final is not None:
        final.append(tab)
    x = [ZERO] * n
    den = tab.den
    for bi, row in zip(tab.basis, tab.rows):
        if bi < n:
            x[bi] = Fraction(row[-1], den)
    # obj[-1] is -den * mden * (c . x)
    return OPTIMAL, x, Fraction(-tab.obj[-1], den * mden)


def _optimum_is_a_point(tab) -> bool:
    """Whether the optimum of a bounded LP's final tableau is its basic
    solution alone: whether the sum of the nonbasic variables with reduced
    cost zero stays bounded over their cone (see the module docstring)."""
    obj = tab.obj
    free = [s for s, v in enumerate(obj[:-1]) if not v]
    if not free:
        return True
    degenerate = [(bi, row) for bi, row in zip(tab.basis, tab.rows) if not row[-1]]
    cone = _Tableau(
        [[row[s] for s in free] + [0] for _, row in degenerate],
        [bi for bi, _ in degenerate],
        [tab.cols[s] for s in free],
    )
    cone.den = tab.den
    cone.obj = [tab.den] * len(free) + [0]
    return cone.optimize() == OPTIMAL


def strict_interior_point(
    nvars: int,
    strict_ge: Sequence[tuple[Sequence[Rational], Rational]],
    eqs: Sequence[tuple[Sequence[Rational], Rational]] = (),
    tweak: Optional[Sequence[Rational]] = None,
    core: Optional[list[int]] = None,
    unique: Optional[list[bool]] = None,
) -> Optional[list[Fraction]]:
    """A point x >= 0 with g . x > h for every (g, h) in strict_ge and the
    given equalities, or None if the open system is empty.

    Any row of strict_ge may instead be given as `strict_row(g, h)` and any
    equality as `equality_row(g, h)`, prepared once for many systems.  The
    system must be bounded (ours always carry box constraints).  `tweak`
    picks a different witness of the same region by re-optimizing tweak . x
    with the slack pinned to at least half its maximum.  When the system is
    empty, a `core` list receives the ascending indices of strict_ge rows
    that, with the equalities and x >= 0 alone, already make it empty.
    When it is not empty and there is no `tweak`, a `unique` list receives
    whether the witness is the only point where the slack is maximal
    (`_optimum_is_a_point`); the test runs only then, so an empty system
    pays nothing for it.
    """
    c = [0] * nvars + [1]
    ub = [row if type(row) is TableauRow else strict_row(*row) for row in strict_ge]
    eq = [row if type(row) is TableauRow else equality_row(*row) for row in eqs]
    support = None if core is None else []
    final = None if unique is None or tweak is not None else []
    status, x, _ = _solve(c, ub, eq, support, final)
    if status == UNBOUNDED:
        raise RuntimeError("strict feasibility system is unbounded; missing box constraints")
    if status != OPTIMAL or x[nvars] <= 0:
        if core is not None:
            core.extend(support)
        return None
    if tweak is None:
        if final is not None:
            unique.append(_optimum_is_a_point(final[0]))
        return x[:nvars]
    floor_row = _prepare((0,) * nvars + (-1,), -x[nvars] / 2, 1)
    status, x2, _ = _solve([*tweak, 0], [*ub, floor_row], eq)
    if status != OPTIMAL or x2[nvars] <= 0:
        return x[:nvars]
    return x2[:nvars]
