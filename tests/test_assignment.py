from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mcmot import assignment
from mcmot.assignment import INFEASIBLE, Matching, gate, iou_matching, matching_cascade, solve_assignment


def perm_brute_force_cost(cost):
    """Minimum total cost over all maximum-cardinality matchings of an
    all-finite matrix, by exhaustive permutation enumeration."""
    c = np.asarray(cost, dtype=float)
    if c.shape[0] > c.shape[1]:
        c = c.T
    n_rows, n_cols = c.shape
    perms = np.array(list(permutations(range(n_cols), n_rows)))
    return c[np.arange(n_rows)[None, :], perms].sum(axis=1).min()


def feasible_brute_force(cost):
    """Exhaustive (cardinality, cost) optimum over matchings that avoid
    INFEASIBLE pairs; rows may stay unmatched."""
    c = np.asarray(cost, dtype=float)
    n_rows, n_cols = c.shape
    best = (-1, float("inf"))

    def rec(row, used, card, total):
        nonlocal best
        if row == n_rows:
            if card > best[0] or (card == best[0] and total < best[1]):
                best = (card, total)
            return
        rec(row + 1, used, card, total)
        for col in range(n_cols):
            if col not in used and c[row, col] < INFEASIBLE:
                rec(row + 1, used | {col}, card + 1, total + c[row, col])

    rec(0, frozenset(), 0, 0.0)
    return best


def total_cost(cost, matching):
    return sum(cost[r][c] for r, c in matching.pairs)


def check_matching_shape(m, n_rows, n_cols):
    rows = [r for r, _ in m.pairs] + list(m.unmatched_rows)
    cols = [c for _, c in m.pairs] + list(m.unmatched_cols)
    assert sorted(rows) == list(range(n_rows))
    assert sorted(cols) == list(range(n_cols))


class TestSolveAssignment:
    def test_single_cell(self):
        m = solve_assignment(np.array([[0.0]]))
        assert m.pairs == ((0, 0),)
        assert m.unmatched_rows == () and m.unmatched_cols == ()

    def test_two_by_two_diagonal(self):
        # Brute force: identity permutation costs 2, the swap costs 4.
        m = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert set(m.pairs) == {(0, 0), (1, 1)}
        assert total_cost([[1, 2], [2, 1]], m) == 2

    def test_two_by_two_antidiagonal(self):
        m = solve_assignment(np.array([[4.0, 1.0], [1.0, 4.0]]))
        assert set(m.pairs) == {(0, 1), (1, 0)}
        assert total_cost([[4, 1], [1, 4]], m) == 2

    def test_all_infeasible(self):
        m = solve_assignment(np.full((2, 3), INFEASIBLE))
        assert m.pairs == ()
        assert m.unmatched_rows == (0, 1)
        assert m.unmatched_cols == (0, 1, 2)

    def test_empty_dimensions(self):
        m = solve_assignment(np.zeros((0, 3)))
        assert m.pairs == () and m.unmatched_cols == (0, 1, 2)
        m = solve_assignment(np.zeros((3, 0)))
        assert m.pairs == () and m.unmatched_rows == (0, 1, 2)

    def test_matches_brute_force_on_random_finite(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            shape = rng.integers(1, 7, 2)
            c = rng.uniform(0, 10, shape)
            m = solve_assignment(c)
            check_matching_shape(m, *shape)
            assert len(m.pairs) == min(shape)
            assert total_cost(c, m) == pytest.approx(perm_brute_force_cost(c), abs=1e-12)

    def test_matches_brute_force_with_infeasible(self):
        rng = np.random.default_rng(12)
        for _ in range(150):
            shape = rng.integers(1, 5, 2)
            c = rng.uniform(0, 10, shape)
            c[rng.random(tuple(shape)) < 0.4] = INFEASIBLE
            m = solve_assignment(c)
            check_matching_shape(m, *shape)
            card, cost = feasible_brute_force(c)
            assert len(m.pairs) == card
            assert total_cost(c, m) == pytest.approx(cost, abs=1e-12)

    def test_scale_invariance_of_selected_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            c = rng.uniform(0, 10, (5, 5))
            base = solve_assignment(c).pairs
            for k in (0.1, 3.0, 1000.0):
                assert solve_assignment(k * c).pairs == base

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        c = rng.uniform(0, 10, (6, 4))
        assert solve_assignment(c) == solve_assignment(c.copy())


def scipy_matching(cost):
    """The reference: scipy's solver on the surrogate matrix that
    solve_assignment builds, with infeasible pairs dropped."""
    c = np.asarray(cost, dtype=float)
    n_rows, n_cols = c.shape
    feasible = c < INFEASIBLE
    if not feasible.any():
        return Matching((), tuple(range(n_rows)), tuple(range(n_cols)))
    big = np.abs(c[feasible]).sum() + 1.0
    rows, cols = linear_sum_assignment(np.where(feasible, c, big))
    pairs = tuple((int(r), int(col)) for r, col in zip(rows, cols) if feasible[r, col])
    matched_rows, matched_cols = {r for r, _ in pairs}, {col for _, col in pairs}
    return Matching(
        pairs,
        tuple(r for r in range(n_rows) if r not in matched_rows),
        tuple(col for col in range(n_cols) if col not in matched_cols),
    )


@st.composite
def cost_matrices(draw):
    """1x1 to 8x8 costs: lattice values (exact ties) or continuous ones,
    negatives included, with INFEASIBLE cells at densities 0 to 0.9 and
    optionally NaN cells."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = n_rows * n_cols
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.0, 0.5, 0.25]))
        values = [v * step for v in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
    else:
        values = draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n))
    c = np.array(values).reshape(n_rows, n_cols)
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    cells = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)
    c[np.array(draw(cells)).reshape(c.shape) < density] = INFEASIBLE
    if draw(st.booleans()):
        c[np.array(draw(cells)).reshape(c.shape) < 0.2] = np.nan
    return c


class TestScipyOracle:
    """solve_assignment picks exactly the pairs scipy's linear_sum_assignment
    picks on the same surrogate matrix, ties included."""

    @settings(max_examples=600, deadline=None)
    @given(cost=cost_matrices())
    def test_same_matching_as_scipy(self, cost):
        assert solve_assignment(cost) == scipy_matching(cost)

    def test_same_matching_on_dense_ties_and_wide_shapes(self):
        rng = np.random.default_rng(17)
        for k in range(1500):
            shape = rng.integers(1, 31 if k % 10 == 0 else 9, 2)
            c = rng.integers(0, 3, shape).astype(float) if k % 2 else rng.normal(0, 1, shape)
            c[rng.random(tuple(shape)) < rng.uniform(0, 0.9)] = INFEASIBLE
            assert solve_assignment(c) == scipy_matching(c)

    def test_same_errors_as_scipy(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            c = rng.integers(0, 3, rng.integers(1, 6, 2)).astype(float)
            c[rng.random(c.shape) < 0.4] = np.inf
            try:
                want = linear_sum_assignment(c)
            except ValueError as e:
                with pytest.raises(ValueError, match=str(e)):
                    assignment._linear_sum_assignment(c)
            else:
                got = assignment._linear_sum_assignment(c)
                assert got == (want[0].tolist(), want[1].tolist())

    def test_forced_pairs_skip_the_solver(self, monkeypatch):
        def fail(cost):
            raise AssertionError("solver called")

        monkeypatch.setattr(assignment, "_linear_sum_assignment", fail)
        c = np.full((4, 5), INFEASIBLE)
        c[0, 3], c[2, 0], c[3, 4] = 0.5, -2.0, 0.5
        m = solve_assignment(c)
        assert m == Matching(((0, 3), (2, 0), (3, 4)), (1,), (1, 2))
        assert m == scipy_matching(c)

    @pytest.mark.parametrize("shared_row", [False, True], ids=["forced", "solved"])
    def test_negative_infinity_rejected(self, shared_row):
        c = np.array([[-np.inf, INFEASIBLE], [INFEASIBLE, 1.0]])
        if shared_row:
            c[0, 1] = 1.0
        with pytest.raises(ValueError, match="invalid numeric entries"):
            solve_assignment(c)


class TestGate:
    def test_all_true_is_identity(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(gate(c, np.ones((2, 2), bool)), c)

    def test_all_false_unmatches_everything(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        gated = gate(c, np.zeros((2, 2), bool))
        assert np.all(gated == INFEASIBLE)
        assert solve_assignment(gated).pairs == ()

    def test_partial_gate_reroutes_assignment(self):
        # Excluding (0,0) forces the anti-diagonal matching at cost 4.
        c = np.array([[1.0, 2.0], [2.0, 1.0]])
        mask = np.array([[False, True], [True, True]])
        m = solve_assignment(gate(c, mask))
        assert set(m.pairs) == {(0, 1), (1, 0)}
        assert total_cost(c, m) == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gate(np.zeros((2, 2)), np.ones((2, 3), bool))


def cascade_reference(cost, ages, max_depth, threshold):
    """The matching cascade as a plain loop: for each age 1..max_depth in
    ascending order, one solve_assignment of the rows of that age against
    the columns no earlier level matched."""
    n_rows, n_cols = cost.shape
    unmatched = list(range(n_cols))
    pairs = []
    for age in range(1, max_depth + 1):
        rows = [i for i in range(n_rows) if ages[i] == age]
        if not rows or not unmatched:
            continue
        sub = np.array([[cost[i, j] for j in unmatched] for i in rows])
        m = solve_assignment(np.where(sub > threshold, INFEASIBLE, sub))
        pairs += [(rows[r], unmatched[c]) for r, c in m.pairs]
        taken = {c for _, c in m.pairs}
        unmatched = [j for c, j in enumerate(unmatched) if c not in taken]
    matched = {r for r, _ in pairs}
    return Matching(
        tuple(sorted(pairs)), tuple(r for r in range(n_rows) if r not in matched), tuple(unmatched)
    )


@st.composite
def cascade_cases(draw):
    """Ages 0 to max_depth + 2 (ties likely), lattice or continuous costs on
    both sides of the threshold with INFEASIBLE cells, and zero-row or
    zero-column shapes."""
    max_depth = draw(st.integers(1, 4))
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    ages = draw(st.lists(st.integers(0, max_depth + 2), min_size=n_rows, max_size=n_rows))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, INFEASIBLE]) | st.floats(0.0, 2.0)
    cells = draw(st.lists(value, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    cost = np.array(cells, dtype=float).reshape(n_rows, n_cols)
    return cost, np.array(ages, dtype=np.int64), max_depth, draw(st.sampled_from([0.5, 1.0]))


class TestMatchingCascade:
    def test_recency_priority(self):
        # One detection equidistant to both tracks goes to the fresher track.
        m = matching_cascade(np.full((2, 1), 0.5), [3, 1], max_depth=5, threshold=1.0)
        assert m.pairs == ((1, 0),)
        assert m.unmatched_rows == (0,)

    def test_no_detections(self):
        m = matching_cascade(np.zeros((2, 0)), [1, 2], 5, 1.0)
        assert m.pairs == ()
        assert m.unmatched_rows == (0, 1)

    def test_threshold_gates(self):
        m = matching_cascade(np.array([[2.0]]), [1], 5, threshold=1.0)
        assert m.pairs == ()

    def test_single_depth_equals_plain_solve(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n_tracks, n_dets = rng.integers(1, 6, 2)
            c = rng.uniform(0, 2, (n_tracks, n_dets))
            threshold = 1.0
            got = matching_cascade(c, np.ones(n_tracks, dtype=np.int64), 5, threshold)
            want = solve_assignment(np.where(c > threshold, INFEASIBLE, c))
            assert set(got.pairs) == set(want.pairs)

    def test_depth_beyond_max_never_matches(self):
        m = matching_cascade(np.zeros((1, 1)), [9], max_depth=5, threshold=1.0)
        assert m.pairs == ()

    @settings(max_examples=400, deadline=None)
    @given(case=cascade_cases())
    @example(case=(np.zeros((3, 0)), np.array([1, 1, 2]), 2, 1.0))
    @example(case=(np.full((3, 2), 0.5), np.array([2, 0, 2]), 2, 1.0))
    def test_equals_loop_reference(self, case):
        cost, ages, max_depth, threshold = case
        got = matching_cascade(cost, ages, max_depth, threshold)
        assert got == cascade_reference(cost, ages, max_depth, threshold)
        check_matching_shape(got, *cost.shape)

    def test_ages_must_match_rows(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            matching_cascade(np.zeros((2, 1)), [1], 5, 1.0)


class TestIouMatching:
    def test_identical_box_matches_at_zero_cost(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]])
        m = iou_matching(boxes, boxes, 0.7)
        assert m.pairs == ((0, 0),)

    def test_disjoint_unmatched(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[100.0, 100.0, 10.0, 10.0]])
        m = iou_matching(a, b, 0.7)
        assert m.pairs == ()

    def test_matches_brute_force(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            ta = rng.uniform(0, 50, (3, 4)) + [0, 0, 5, 5]
            tb = rng.uniform(0, 50, (3, 4)) + [0, 0, 5, 5]
            from mcmot.geometry import iou_matrix

            cost = 1.0 - iou_matrix(ta, tb)
            cost_gated = np.where(cost > 0.9, INFEASIBLE, cost)
            got = iou_matching(ta, tb, 0.9)
            card, best = feasible_brute_force(cost_gated)
            assert len(got.pairs) == card
            assert total_cost(cost_gated, got) == pytest.approx(best, abs=1e-12)

    def test_empty_inputs(self):
        m = iou_matching(np.zeros((0, 4)), np.array([[0.0, 0.0, 5.0, 5.0]]), 0.7)
        assert m.unmatched_cols == (0,)
