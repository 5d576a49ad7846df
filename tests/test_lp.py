import copy
import random
from collections import Counter
from fractions import Fraction
from fractions import Fraction as F
from math import lcm

import pytest

from quivermoduli import lp
from quivermoduli.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_maximize, strict_interior_point


class _DenseTableau:
    """The full integer tableau (every column, basic ones included) with the
    Bareiss update; the condensed tableau in `lp` must pivot exactly as this
    one does."""

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
            self.den = -self.den
            self.rows = [[-v for v in row] for row in self.rows]
            self.obj = [-v for v in self.obj]

    def optimize(self):
        rows = self.rows
        ncols = len(self.obj) - 1
        pivots = 0
        while True:
            obj = self.obj
            entering = -1
            if pivots < lp._DANTZIG_PIVOT_BUDGET:
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
            lb = lv = 0
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
        obj = [v * self.den for v in obj_int] + [0]
        for i, bi in enumerate(self.basis):
            cb = obj_int[bi]
            if cb:
                row = self.rows[i]
                obj = [a - cb * b for a, b in zip(obj, row)]
        self.obj = obj


def dense_maximize(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """The dense integer-pivoting simplex that `lp.simplex_maximize`
    replaced, kept as the reference for its results and pivot sequence."""
    n = len(c)
    m_ub, m_eq = len(a_ub), len(a_eq)
    m = m_ub + m_eq
    nslack = m_ub

    scaled = []
    for row, b in zip(list(a_ub) + list(a_eq), list(b_ub) + list(b_eq)):
        fr = [Fraction(v) for v in (*row, b)]
        den = lcm(*(f.denominator for f in fr))
        scaled.append([f.numerator * (den // f.denominator) for f in fr])
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

    tab = _DenseTableau(rows, [0] * (width + 1), basis)

    if nart:
        phase1 = [0] * width
        for j in range(n + nslack, width):
            phase1[j] = -1
        tab.set_objective(phase1)
        status = tab.optimize()
        assert status == OPTIMAL
        if any(
            tab.basis[i] >= n + nslack and tab.rows[i][-1] != 0 for i in range(m)
        ):
            return INFEASIBLE, None, None
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
    x = [Fraction(0)] * n
    den = tab.den
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = Fraction(tab.rows[i][-1], den)
    value = sum(ci * xi for ci, xi in zip(cf, x))
    return OPTIMAL, x, value


@pytest.fixture
def pivot_log(monkeypatch):
    """Record (leaving, entering) variables of every pivot of both tableaus."""
    log = {"dense": [], "condensed": []}
    dense_pivot = _DenseTableau.pivot
    condensed_pivot = lp._Tableau.pivot

    def dense(self, r, c):
        log["dense"].append((self.basis[r], c))
        dense_pivot(self, r, c)

    def condensed(self, r, s):
        log["condensed"].append((self.basis[r], self.cols[s]))
        condensed_pivot(self, r, s)

    monkeypatch.setattr(_DenseTableau, "pivot", dense)
    monkeypatch.setattr(lp._Tableau, "pivot", condensed)
    return log


def reference_maximize(c, a_ub, b_ub, a_eq=(), b_eq=()):
    """Plain Fraction-tableau two-phase simplex with Bland's rule, kept
    independent of the integer-pivoting implementation."""
    n = len(c)
    m_ub, m_eq = len(a_ub), len(a_eq)
    rows = []
    slack_ok = []
    for i in range(m_ub):
        row = [F(v) for v in a_ub[i]] + [F(0)] * m_ub + [F(b_ub[i])]
        row[n + i] = F(1)
        rows.append(row)
        slack_ok.append(True)
    for i in range(m_eq):
        rows.append([F(v) for v in a_eq[i]] + [F(0)] * m_ub + [F(b_eq[i])])
        slack_ok.append(False)
    m = len(rows)
    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
            slack_ok[i] = False
    basis = []
    art = 0
    for i in range(m):
        if slack_ok[i]:
            basis.append(n + i)
        else:
            basis.append(None)
            art += 1
    width = n + m_ub + art
    k = 0
    for i in range(m):
        rhs = rows[i].pop()
        rows[i].extend([F(0)] * art)
        if basis[i] is None:
            rows[i][n + m_ub + k] = F(1)
            basis[i] = n + m_ub + k
            k += 1
        rows[i].append(rhs)

    def pivot(r, cidx):
        p = rows[r][cidx]
        rows[r] = [v / p for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][cidx] != 0:
                f = rows[i][cidx]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        basis[r] = cidx

    def solve(obj, ncols):
        while True:
            red = list(obj) + [F(0)]
            for i, bi in enumerate(basis):
                if obj[bi] != 0:
                    red = [a - obj[bi] * b for a, b in zip(red, rows[i])]
            entering = next((j for j in range(ncols) if red[j] > 0), None)
            if entering is None:
                return OPTIMAL
            leaving, best = None, None
            for i in range(m):
                a = rows[i][entering]
                if a > 0:
                    ratio = rows[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best, leaving = ratio, i
            if leaving is None:
                return UNBOUNDED
            pivot(leaving, entering)

    if art:
        phase1 = [F(0)] * width
        for j in range(n + m_ub, width):
            phase1[j] = F(-1)
        solve(phase1, width)
        if any(basis[i] >= n + m_ub and rows[i][-1] != 0 for i in range(m)):
            return INFEASIBLE, None, None
        for i in range(m):
            if basis[i] >= n + m_ub:
                col = next((j for j in range(n + m_ub) if rows[i][j] != 0), None)
                if col is not None:
                    pivot(i, col)
    obj = [F(v) for v in c] + [F(0)] * (width - n)
    # artificial columns stay out of the running in the second phase
    status = solve(obj, n + m_ub)
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    x = [F(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = rows[i][-1]
    return OPTIMAL, x, sum(F(ci) * xi for ci, xi in zip(c, x))


def test_known_optimum():
    st, x, v = simplex_maximize([F(3), F(2)], [[F(1), F(1)], [F(1), F(0)]], [F(4), F(2)])
    assert (st, x, v) == (OPTIMAL, [F(2), F(2)], F(10))


def test_infeasible_and_equality():
    st, _, _ = simplex_maximize([F(1)], [[F(1)]], [F(-1)])
    assert st == INFEASIBLE
    st, x, v = simplex_maximize([F(1), F(1)], [], [], [[F(1), F(2)]], [F(3)])
    assert st == OPTIMAL and v == F(3)


def test_unbounded():
    st, _, _ = simplex_maximize([F(1)], [], [])
    assert st == UNBOUNDED


def _random_program(rng):
    n = rng.randint(1, 3)
    m = rng.randint(1, 4)
    me = rng.randint(0, 1)
    c = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    a_ub = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
    b_ub = [F(rng.randint(-2, 5)) for _ in range(m)]
    a_eq = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(me)]
    b_eq = [F(rng.randint(0, 3)) for _ in range(me)]
    return c, a_ub, b_ub, a_eq, b_eq


def test_matches_reference_on_random_programs(pivot_log):
    rng = random.Random(20260809)
    agree = 0
    for _ in range(400):
        c, a_ub, b_ub, a_eq, b_eq = _random_program(rng)
        got = simplex_maximize(c, a_ub, b_ub, a_eq, b_eq)
        want = reference_maximize(c, a_ub, b_ub, a_eq, b_eq)
        assert got == dense_maximize(c, a_ub, b_ub, a_eq, b_eq), (c, a_ub, b_ub, a_eq, b_eq)
        assert pivot_log["condensed"] == pivot_log["dense"], (c, a_ub, b_ub, a_eq, b_eq)
        assert got[0] == want[0], (c, a_ub, b_ub, a_eq, b_eq)
        if got[0] == OPTIMAL:
            assert got[2] == want[2], (c, a_ub, b_ub, a_eq, b_eq, got, want)
            # the witness must satisfy every constraint exactly
            x = got[1]
            for row, b in zip(a_ub, b_ub):
                assert sum(r * v for r, v in zip(row, x)) <= b
            for row, b in zip(a_eq, b_eq):
                assert sum(r * v for r, v in zip(row, x)) == b
            assert all(v >= 0 for v in x)
            agree += 1
    assert agree > 100


@pytest.mark.parametrize("budget", [2, 0])
def test_matches_dense_pivots_under_blands_rule(pivot_log, monkeypatch, budget):
    # a smaller Dantzig budget hands the same programs to Bland's rule
    monkeypatch.setattr(lp, "_DANTZIG_PIVOT_BUDGET", budget)
    rng = random.Random(20260809)
    for _ in range(400):
        prog = _random_program(rng)
        assert simplex_maximize(*prog) == dense_maximize(*prog), prog
        assert pivot_log["condensed"] == pivot_log["dense"], prog


def test_strict_interior_point_none_on_empty():
    # x > 0 and x < 0 simultaneously is empty
    out = strict_interior_point(
        1,
        [((F(1),), F(0)), ((F(-1),), F(0))],
    )
    assert out is None


def test_strict_interior_point_tweak_stays_inside():
    rows = [((F(1),), F(0)), ((F(-1),), F(-1))]  # 0 < x < 1
    base = strict_interior_point(1, rows)
    tweaked = strict_interior_point(1, rows, tweak=[F(1)])
    assert base is not None and tweaked is not None
    assert 0 < tweaked[0] < 1
    assert tweaked[0] >= base[0]


def _random_strict_system(rng):
    """A bounded open system in integers: a box 0 < x_i < 3, random rows
    g . x > h and at most one equality."""
    n = rng.randint(1, 4)
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append((tuple(e), 0))
        e[i] = -1
        rows.append((tuple(e), -3))
    for _ in range(rng.randint(0, 5)):
        rows.append((tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-3, 3)))
    eqs = [
        (tuple(rng.randint(0, 2) for _ in range(n)), rng.randint(1, 4))
        for _ in range(rng.randint(0, 1))
    ]
    tweak = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n)]
    return n, rows, eqs, tweak if rng.random() < 0.5 else None


def _as_fractions(rows):
    return [(tuple(F(v) for v in g), F(h)) for g, h in rows]


def dense_strict_interior_point(nvars, strict_ge, eqs=(), tweak=None):
    """The max-slack LP of `lp.strict_interior_point` and its tweak re-solve,
    built from the constraint rows as a_ub and a_eq lists and solved on the
    dense tableau."""
    c = [0] * nvars + [1]
    a_ub = [[-v for v in g] + [1] for g, _ in strict_ge]
    b_ub = [-h for _, h in strict_ge]
    a_eq = [[*g, 0] for g, _ in eqs]
    b_eq = [h for _, h in eqs]
    status, x, _ = dense_maximize(c, a_ub, b_ub, a_eq, b_eq)
    if status != OPTIMAL or x[nvars] <= 0:
        return None
    if tweak is None:
        return x[:nvars]
    floor_row = [0] * nvars + [-1]
    status, x2, _ = dense_maximize(
        [*tweak, 0], a_ub + [floor_row], b_ub + [-x[nvars] / 2], a_eq, b_eq
    )
    if status != OPTIMAL or x2[nvars] <= 0:
        return x[:nvars]
    return x2[:nvars]


def test_strict_interior_point_int_and_fraction_rows_match_dense(pivot_log):
    # the strict path builds its tableau from prepared rows, not through
    # simplex_maximize, so its pivots are compared with the dense tableau
    # solving the same LPs built from the constraint rows
    rng = random.Random(20261018)
    cases = [_random_strict_system(rng) for _ in range(300)]
    got_int = [strict_interior_point(n, rows, eqs, tweak) for n, rows, eqs, tweak in cases]
    got_fr = [
        strict_interior_point(n, _as_fractions(rows), _as_fractions(eqs), tweak)
        for n, rows, eqs, tweak in cases
    ]
    got_prepared = [
        strict_interior_point(
            n,
            [lp.strict_row(g, h) for g, h in _as_fractions(rows)],
            [lp.equality_row(g, h) for g, h in eqs],
            tweak,
        )
        for n, rows, eqs, tweak in cases
    ]
    want = [dense_strict_interior_point(n, rows, eqs, tweak) for n, rows, eqs, tweak in cases]
    assert got_int == want
    assert got_fr == want
    assert got_prepared == want
    assert pivot_log["condensed"] == pivot_log["dense"] * 3
    assert all(v is None or all(type(t) is F for t in v) for v in got_int)
    assert sum(v is not None for v in want) > 50


def test_equalities_with_negative_right_hand_sides_match_dense(pivot_log):
    # the seeded programs and strict systems above, each equality written
    # with both sides negated: the row is negated back when it is prepared
    rng = random.Random(20260809)
    for _ in range(400):
        c, a_ub, b_ub, a_eq, b_eq = _random_program(rng)
        a_eq = [[-v for v in row] for row in a_eq]
        b_eq = [-v for v in b_eq]
        prog = (c, a_ub, b_ub, a_eq, b_eq)
        assert simplex_maximize(*prog) == dense_maximize(*prog), prog
    rng = random.Random(20261018)
    for _ in range(300):
        n, rows, eqs, tweak = _random_strict_system(rng)
        eqs = [(tuple(-v for v in g), -h) for g, h in eqs]
        want = dense_strict_interior_point(n, rows, eqs, tweak)
        assert strict_interior_point(n, rows, eqs, tweak) == want, (n, rows, eqs)
    assert pivot_log["condensed"] == pivot_log["dense"]


def test_core_of_an_empty_strict_system_is_empty_on_its_own():
    # the seeded systems of the test above; their first 2n rows are the box
    rng = random.Random(20261018)
    empty = 0
    for _ in range(300):
        n, rows, eqs, tweak = _random_strict_system(rng)
        core = []
        x = strict_interior_point(n, rows, eqs, tweak, core=core)
        if x is not None:
            assert core == []
            continue
        empty += 1
        assert core == sorted(set(core))
        assert all(0 <= i < len(rows) for i in core), (rows, core)
        alone = rows[: 2 * n] + [rows[i] for i in core if i >= 2 * n]
        assert strict_interior_point(n, alone, eqs) is None, (rows, eqs, core)
    assert empty > 50


def test_core_reads_both_phases():
    # 0 < x < 1 with x > 2: phase 1 finds the closed system infeasible
    core = []
    assert strict_interior_point(1, [((1,), 0), ((-1,), -1), ((1,), 2)], core=core) is None
    assert core == [1, 2]
    # x > 1 and x < 1 with 0 < x < 3: the closed system is the point x = 1,
    # so phase 2 caps the slack at zero
    core = []
    rows = [((1,), 0), ((-1,), -3), ((1,), 1), ((-1,), -1)]
    assert strict_interior_point(1, rows, core=core) is None
    assert core == [2, 3]


def test_unique_certificate_on_a_vertex_and_on_a_tied_edge():
    # 0 < x < 1: the slack peaks at x = 1/2 alone, and no reduced cost of
    # the final tableau is zero
    unique = []
    assert strict_interior_point(1, [((1,), 0), ((-1,), -1)], unique=unique) == [F(1, 2)]
    assert unique == [True]
    # 0 < x1 < 1 and 0 < x2 < 3: the slack peaks at 1/2 all along the edge
    # x1 = 1/2, 1/2 <= x2 <= 5/2, so the optimum is not unique
    rows = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -3)]
    unique = []
    x = strict_interior_point(2, rows, unique=unique)
    assert x[0] == F(1, 2) and F(1, 2) <= x[1] <= F(5, 2)
    assert unique == [False]
    # nothing is reported for an empty system or a tweaked witness
    unique = []
    assert strict_interior_point(1, [((1,), 0), ((-1,), 0)], unique=unique) is None
    assert strict_interior_point(1, [((1,), 0), ((-1,), -1)], tweak=[F(1)], unique=unique)
    assert unique == []


def test_thin_box_optimum_is_a_segment():
    # 0 < x < 10 and 0 < y < 1: the slack peaks at 1/2 all along the segment
    # y = 1/2, 1/2 <= x <= 19/2
    rows = [((1, 0), 0), ((-1, 0), -10), ((0, 1), 0), ((0, -1), -1)]
    unique = []
    x = strict_interior_point(2, rows, unique=unique)
    assert x[1] == F(1, 2) and F(1, 2) <= x[0] <= F(19, 2)
    assert unique == [False]
    assert _optimal_ranges(2, rows, [], x) == [(F(1, 2), F(19, 2)), (F(1, 2), F(1, 2))]


def _optimal_ranges(n, rows, eqs, x):
    """The range (min, max) of each coordinate over the optimal face of the
    max-slack LP of `strict_interior_point` with witness x: the slack pinned
    at its optimum, each coordinate minimized and maximized by
    `simplex_maximize`."""
    slack = min(sum(a * b for a, b in zip(g, x)) - h for g, h in rows)
    a_ub = [[-v for v in g] + [1] for g, _ in rows] + [[0] * n + [-1]]
    b_ub = [-h for _, h in rows] + [-slack]
    a_eq = [[*g, 0] for g, _ in eqs]
    b_eq = [h for _, h in eqs]
    ranges = []
    for i in range(n):
        ends = []
        for sign in (-1, 1):
            c = [0] * (n + 1)
            c[i] = sign
            status, _, value = simplex_maximize(c, a_ub, b_ub, a_eq, b_eq)
            assert status == OPTIMAL
            ends.append(sign * value)
        ranges.append(tuple(ends))
    return ranges


@pytest.fixture
def reduced_costs(monkeypatch):
    """The objective rows (den times the nonbasic reduced costs) of the
    final tableaus that the face test reads."""
    seen = []
    point = lp._optimum_is_a_point

    def spy(tab):
        seen.append(tab.obj[:-1])
        return point(tab)

    monkeypatch.setattr(lp, "_optimum_is_a_point", spy)
    return seen


# The max-slack LP of the qn 6 chamber -++++++++++-++++++-+++-++ as the
# chamber walk poses it: 0 < theta_i < 1, sum theta_i = 2, and the wall rows
# that `chambers._region_witness` keeps, side J on sign s read as
# s (sum_J theta_i - 1) > 0.
_QN6_KEPT_SIDES = (
    ((0, 1), -1), ((0, 1, 2), 1), ((0, 1, 3), 1), ((0, 1, 4), 1), ((0, 2), -1), ((0, 2, 3), 1),
    ((0, 2, 4), 1), ((0, 3), -1), ((0, 3, 4), 1), ((0, 4), -1), ((0, 5), 1),
)


def test_dual_degenerate_unique_vertex_is_certified(reduced_costs):
    n = 6
    rows = []
    for i in range(n):
        e = tuple(int(k == i) for k in range(n))
        rows += [(e, 0), (tuple(-v for v in e), -1)]
    rows += [(tuple(s * (k in side) for k in range(n)), s) for side, s in _QN6_KEPT_SIDES]
    eqs = [((1,) * n, 2)]
    unique = []
    x = strict_interior_point(n, rows, eqs, unique=unique)
    assert x == [F(2, 3), *[F(2, 9)] * 4, F(4, 9)]
    # a nonbasic column has reduced cost zero, so the tableau is not
    # dual-nondegenerate, and still the optimum is the vertex alone
    assert 0 in reduced_costs[0]
    assert unique == [True]
    assert _optimal_ranges(n, rows, eqs, x) == [(v, v) for v in x]


def test_certified_witness_is_the_only_optimum(reduced_costs):
    # the seeded strict systems: the face test certifies the witness exactly
    # when every coordinate is constant over the max-slack LP's optimal face
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(300):
        n, rows, eqs, _ = _random_strict_system(rng)
        unique = []
        x = strict_interior_point(n, rows, eqs, unique=unique)
        if x is None:
            continue
        point = all(a == b for a, b in _optimal_ranges(n, rows, eqs, x))
        assert unique == [point], (rows, eqs)
        seen[point, 0 in reduced_costs[-1]] += 1
    # unique vertices with and without a zero reduced cost, and faces that
    # are not points
    assert seen[True, False] > 40 and seen[True, True] > 20 and seen[False, True] > 30, seen


@pytest.fixture
def pivot_kinds(monkeypatch):
    """Count the pivots of lp._Tableau by kind: unit steps (pivot element
    equal to den) with den 1 or den > 1, and the other steps."""
    kinds = Counter()
    pivot = lp._Tableau.pivot

    def counted(self, r, s):
        p = self.rows[r][s]
        kinds["other" if p != self.den else "unit, den 1" if p == 1 else "unit, den > 1"] += 1
        pivot(self, r, s)

    monkeypatch.setattr(lp._Tableau, "pivot", counted)
    return kinds


def test_solvers_leave_their_inputs_unmodified(pivot_kinds):
    # the seeded programs and strict systems of the tests above; the unit
    # steps update the tableau rows in place, and those rows must never be
    # the caller's lists
    rng = random.Random(20260809)
    for _ in range(400):
        prog = _random_program(rng)
        before = copy.deepcopy(prog)
        simplex_maximize(*prog)
        assert prog == before
    rng = random.Random(20261018)
    for _ in range(300):
        case = _random_strict_system(rng)
        before = copy.deepcopy(case)
        strict_interior_point(*case)
        assert case == before
        # the same system handed to simplex_maximize as lists of ints
        n, rows, eqs, _ = case
        prog = (
            [0] * n + [1],
            [[-v for v in g] + [1] for g, _ in rows],
            [-h for _, h in rows],
            [[*g, 0] for g, _ in eqs],
            [h for _, h in eqs],
        )
        before = copy.deepcopy(prog)
        simplex_maximize(*prog)
        assert prog == before
    assert set(pivot_kinds) == {"unit, den 1", "unit, den > 1", "other"}, pivot_kinds
