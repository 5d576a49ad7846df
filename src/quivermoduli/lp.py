"""Exact linear programming over the rationals.

A dense two-phase simplex using integer pivoting: the tableau is an integer
matrix together with a common denominator (the previous pivot), updated by
the Bareiss rule so every division is exact.  Entries stay integers, the
inner loops are pure int arithmetic, and all results are exact rationals.
Entering columns follow the steepest coefficient at first and Bland's rule
after a fixed pivot budget, which rules out cycling.

Strict inequality systems are decided by maximizing an auxiliary slack
bounded away from zero: the open system {g_k . x > h_k} has a solution iff
max{s : g_k . x - s >= h_k} is positive.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_DANTZIG_PIVOT_BUDGET = 64


class _Tableau:
    """Integer tableau M with denominator den > 0; true entries are M/den."""

    __slots__ = ("rows", "obj", "den", "basis")

    def __init__(self, rows, obj, basis):
        self.rows = rows
        self.obj = obj
        self.den = 1
        self.basis = basis

    def pivot(self, r, c):
        rows = self.rows
        den = self.den
        p = rows[r][c]
        prow = rows[r]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                if f:
                    rows[i] = [(a * p - f * b) // den for a, b in zip(row, prow)]
                elif den != 1:
                    rows[i] = [(a * p) // den for a in row]
                elif p != 1:
                    rows[i] = [a * p for a in row]
        f = self.obj[c]
        if f:
            self.obj = [(a * p - f * b) // den for a, b in zip(self.obj, prow)]
        elif den != 1:
            self.obj = [(a * p) // den for a in self.obj]
        elif p != 1:
            self.obj = [a * p for a in self.obj]
        self.den = p
        self.basis[r] = c
        if self.den < 0:
            # keep the denominator positive so sign tests read directly
            self.den = -self.den
            self.rows = [[-v for v in row] for row in self.rows]
            self.obj = [-v for v in self.obj]

    def optimize(self):
        """Maximize the carried objective.  Returns OPTIMAL or UNBOUNDED."""
        rows = self.rows
        ncols = len(self.obj) - 1
        pivots = 0
        while True:
            obj = self.obj
            entering = -1
            if pivots < _DANTZIG_PIVOT_BUDGET:
                best = 0
                for j in range(ncols):
                    v = obj[j]
                    if v > best:
                        best = v
                        entering = j
            else:
                for j in range(ncols):
                    if obj[j] > 0:
                        entering = j
                        break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            lb = lv = 0  # current best ratio = lb / lv
            basis = self.basis
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

    def set_objective(self, obj_int):
        """Install integer costs as den * (reduced costs) for the basis."""
        obj = [v * self.den for v in obj_int] + [0]
        for i, bi in enumerate(self.basis):
            cb = obj_int[bi]
            if cb:
                row = self.rows[i]
                obj = [a - cb * b for a, b in zip(obj, row)]
        self.obj = obj


def _int_rows(mat, rhs):
    """Scale each rational constraint row to integers."""
    out = []
    for row, b in zip(mat, rhs):
        fr = [v if isinstance(v, Fraction) else Fraction(v) for v in (*row, b)]
        m = lcm(*(f.denominator for f in fr))
        out.append([f.numerator * (m // f.denominator) for f in fr])
    return out


def simplex_maximize(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
):
    """Maximize c . x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    Returns (status, x, value); x and value are None unless status is OPTIMAL.
    """
    n = len(c)
    m_ub, m_eq = len(a_ub), len(a_eq)
    m = m_ub + m_eq
    nslack = m_ub

    scaled = _int_rows(list(a_ub) + list(a_eq), list(b_ub) + list(b_eq))
    rows = []
    slack_ok = []
    for i in range(m):
        core, b = scaled[i][:-1], scaled[i][-1]
        row = core + [0] * nslack + [b]
        if i < m_ub:
            row[n + i] = 1
        if b < 0:
            row = [-v for v in row]
            slack_ok.append(False)
        else:
            slack_ok.append(i < m_ub)
        rows.append(row)

    basis = [-1] * m
    art_rows = [i for i in range(m) if not slack_ok[i]]
    nart = len(art_rows)
    width = n + nslack + nart
    for i in range(m):
        rhs = rows[i].pop()
        rows[i].extend([0] * nart)
        rows[i].append(rhs)
    for k, i in enumerate(art_rows):
        rows[i][n + nslack + k] = 1
        basis[i] = n + nslack + k
    for i in range(m):
        if slack_ok[i]:
            basis[i] = n + i

    tab = _Tableau(rows, [0] * (width + 1), basis)

    if nart:
        phase1 = [0] * width
        for j in range(n + nslack, width):
            phase1[j] = -1
        tab.set_objective(phase1)
        status = tab.optimize()
        if status != OPTIMAL:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        if any(
            tab.basis[i] >= n + nslack and tab.rows[i][-1] != 0 for i in range(m)
        ):
            return INFEASIBLE, None, None
        # pivot lingering zero-valued artificials out of the basis
        for i in range(m):
            if tab.basis[i] >= n + nslack:
                col = next((j for j in range(n + nslack) if tab.rows[i][j] != 0), None)
                if col is not None:
                    tab.pivot(i, col)
        keep = [i for i in range(m) if tab.basis[i] < n + nslack]
        tab.rows = [tab.rows[i][: n + nslack] + [tab.rows[i][-1]] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        width = n + nslack

    cf = [Fraction(v) for v in c]
    mden = lcm(*(f.denominator for f in cf)) if cf else 1
    obj_int = [int(f * mden) for f in cf] + [0] * (width - n)
    tab.set_objective(obj_int)
    status = tab.optimize()
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    x = [ZERO] * n
    den = tab.den
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = Fraction(tab.rows[i][-1], den)
    value = sum(ci * xi for ci, xi in zip(cf, x))
    return OPTIMAL, x, value


def strict_interior_point(
    nvars: int,
    strict_ge: Sequence[tuple[Sequence[Fraction], Fraction]],
    eqs: Sequence[tuple[Sequence[Fraction], Fraction]] = (),
    tweak: Optional[Sequence[Fraction]] = None,
) -> Optional[list[Fraction]]:
    """A point x >= 0 with g . x > h for every (g, h) in strict_ge and the
    given equalities, or None if the open system is empty.

    The system must be bounded (ours always carry box constraints).  `tweak`
    picks a different witness of the same region by re-optimizing tweak . x
    with the slack pinned to at least half its maximum.
    """
    c = [ZERO] * nvars + [ONE]
    a_ub = []
    b_ub = []
    for g, h in strict_ge:
        a_ub.append([-Fraction(v) for v in g] + [ONE])
        b_ub.append(-Fraction(h))
    a_eq = [list(g) + [ZERO] for g, _ in eqs]
    b_eq = [h for _, h in eqs]
    status, x, value = simplex_maximize(c, a_ub, b_ub, a_eq, b_eq)
    if status == UNBOUNDED:
        raise RuntimeError("strict feasibility system is unbounded; missing box constraints")
    if status != OPTIMAL:
        return None
    slack = x[nvars]
    if slack <= 0:
        return None
    if tweak is None:
        return x[:nvars]
    floor_row = [ZERO] * nvars + [-ONE]
    status, x2, _ = simplex_maximize(
        list(tweak) + [ZERO],
        list(a_ub) + [floor_row],
        list(b_ub) + [-slack / 2],
        a_eq,
        b_eq,
    )
    if status != OPTIMAL or x2[nvars] <= 0:
        return x[:nvars]
    return x2[:nvars]
