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
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Rational
from typing import Optional, Sequence

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


def _int_rows(mat, rhs):
    """Each constraint row followed by its right-hand side, in integers.

    All-integer rows pass through; a row holding a Fraction is scaled by
    the lcm of its denominators."""
    out = []
    for row, b in zip(mat, rhs):
        row = (*row, b)
        if Fraction in map(type, row):
            m = lcm(*(v.denominator for v in row))
            row = tuple(v.numerator * (m // v.denominator) for v in row)
        out.append(row)
    return out


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
    support: Optional[list[int]] = None,
):
    """Maximize c . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Entries are ints or Fractions.  Returns (status, x, value); x and value
    are None unless status is OPTIMAL.  A `support` list receives, when the
    status is INFEASIBLE or OPTIMAL, the indices of the a_ub rows whose
    slack has a nonzero reduced cost in the last objective row (phase 1's
    when infeasible): the support of an optimal dual solution.
    """
    n = len(c)
    m_ub = len(a_ub)
    first_art = n + m_ub  # variables: x, then one slack per a_ub row, then artificials
    scaled = _int_rows(list(a_ub) + list(a_eq), list(b_ub) + list(b_eq))

    # A row with a negative right-hand side is negated, and an a_ub row whose
    # slack then reads -1 starts with an artificial basic, as does every
    # a_eq row; those slacks start nonbasic next to x.
    flipped = [i for i in range(m_ub) if scaled[i][-1] < 0]
    slot_of = {i: n + k for k, i in enumerate(flipped)}
    cols = list(range(n)) + [n + i for i in flipped]
    rows = []
    basis = []
    nart = 0
    for i, srow in enumerate(scaled):
        b = srow[-1]
        row = [*srow[:-1], *([0] * len(flipped)), b]
        if i in slot_of:
            row[slot_of[i]] = 1
        if b < 0:
            row = [-v for v in row]
        if i < m_ub and b >= 0:
            basis.append(n + i)
        else:
            basis.append(first_art + nart)
            nart += 1
        rows.append(row)

    tab = _Tableau(rows, basis, cols)

    if nart:
        tab.set_objective([0] * first_art + [-1] * nart)
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

    mden = lcm(*(v.denominator for v in c)) if c else 1
    cost = [v.numerator * (mden // v.denominator) for v in c] + [0] * m_ub
    tab.set_objective(cost)
    status = tab.optimize()
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    if support is not None:
        support.extend(_dual_support(tab, n, first_art))
    x = [ZERO] * n
    den = tab.den
    for bi, row in zip(tab.basis, tab.rows):
        if bi < n:
            x[bi] = Fraction(row[-1], den)
    # obj[-1] is -den * mden * (c . x)
    return OPTIMAL, x, Fraction(-tab.obj[-1], den * mden)


def strict_interior_point(
    nvars: int,
    strict_ge: Sequence[tuple[Sequence[Rational], Rational]],
    eqs: Sequence[tuple[Sequence[Rational], Rational]] = (),
    tweak: Optional[Sequence[Rational]] = None,
    core: Optional[list[int]] = None,
) -> Optional[list[Fraction]]:
    """A point x >= 0 with g . x > h for every (g, h) in strict_ge and the
    given equalities, or None if the open system is empty.

    The system must be bounded (ours always carry box constraints).  `tweak`
    picks a different witness of the same region by re-optimizing tweak . x
    with the slack pinned to at least half its maximum.  When the system is
    empty, a `core` list receives the ascending indices of strict_ge rows
    that, with the equalities and x >= 0 alone, already make it empty.
    """
    c = [0] * nvars + [1]
    a_ub = []
    b_ub = []
    for g, h in strict_ge:
        a_ub.append([-v for v in g] + [1])
        b_ub.append(-h)
    a_eq = [[*g, 0] for g, _ in eqs]
    b_eq = [h for _, h in eqs]
    if core is None:
        status, x, _ = simplex_maximize(c, a_ub, b_ub, a_eq, b_eq)
    else:
        support: list[int] = []
        status, x, _ = simplex_maximize(c, a_ub, b_ub, a_eq, b_eq, support=support)
    if status == UNBOUNDED:
        raise RuntimeError("strict feasibility system is unbounded; missing box constraints")
    if status != OPTIMAL or x[nvars] <= 0:
        if core is not None:
            core.extend(support)
        return None
    slack = x[nvars]
    if tweak is None:
        return x[:nvars]
    floor_row = [0] * nvars + [-1]
    status, x2, _ = simplex_maximize(
        [*tweak, 0],
        list(a_ub) + [floor_row],
        list(b_ub) + [-slack / 2],
        a_eq,
        b_eq,
    )
    if status != OPTIMAL or x2[nvars] <= 0:
        return x[:nvars]
    return x2[:nvars]
