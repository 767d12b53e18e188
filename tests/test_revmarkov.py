import math
import warnings

import numpy as np
import pytest

from commtest import (
    DegenerateInputError,
    DiscreteRV,
    ValidationError,
    brute_force_revmarkov,
    guarantee,
    reverse_markov_best,
    revmarkov,
    revmarkov_objective,
    tightness_instance,
)


def loop_top(rv, out_size):
    """(nus, achieved) of the grid through the D-1 atoms of largest
    value * mass, ties to the larger value, the top level repeated."""
    ranked = sorted(((float(v * m), float(v)) for v, m in zip(rv.values, rv.masses)),
                    reverse=True)
    levels = sorted(v for s, v in ranked[:out_size - 1] if s > 0)
    nus = tuple(levels + [levels[-1]] * (out_size - 1 - len(levels))) + (rv.beta,)
    return nus, revmarkov_objective(rv, nus)


def loop_geometric(rv, out_size):
    """(nus, achieved) of the candidate-by-candidate doubling-grid search,
    first strict best wins."""
    positive = rv.values[(rv.values > 0) & (rv.masses > 0)]
    best = None
    for x in sorted({float(v) / 2.0 ** t for v in positive for t in range(out_size)}):
        nus = tuple(min(rv.beta, x * 2.0 ** j) for j in range(out_size - 1)) + (rv.beta,)
        val = revmarkov_objective(rv, nus)
        if best is None or val > best[1]:
            best = (nus, val)
    return best


def loop_best(rv, out_size):
    """The reference for reverse_markov_best: the better of `loop_top` and
    `loop_geometric`, ties to the top-atom grid."""
    top, geo = loop_top(rv, out_size), loop_geometric(rv, out_size)
    return top if top[1] >= geo[1] else geo


def geometric_case(rng, kind):
    """Random RV with zero-mass atoms; kind 1 has dyadic values, so that
    candidates x * 2^j tie exactly, kind 2 values near 1e-300, kind 3 a
    single positive atom and kind 4 an atom at 0."""
    k = int(rng.integers(1, 13))
    beta = 1.0
    if kind == 0:
        vals = rng.uniform(0.0, 1.0, k)
    elif kind == 1:
        vals = rng.integers(1, 64, k) / 64.0
    elif kind == 2:
        vals, beta = 1e-300 * rng.uniform(1.0, 1e3, k), 2e-297
    elif kind == 3:
        vals = np.array([0.0, rng.uniform(0.0, 1.0)])[int(rng.integers(0, 2)):]
    else:
        vals = np.concatenate(([0.0], rng.uniform(0.0, 1.0, k)))
    vals = np.unique(vals)
    masses = rng.dirichlet(np.ones(vals.size))
    masses[rng.random(vals.size) < 0.3] = 0.0
    masses[-1] += 0.1  # the largest value is positive, so the mean is too
    return DiscreteRV(vals, masses / masses.sum(), beta)


def random_rv(rng, k_max=10):
    k = int(rng.integers(1, k_max + 1))
    vals = np.unique(rng.uniform(0.0, 1.0, k))
    return DiscreteRV(vals, rng.dirichlet(np.ones(vals.size)), 1.0)


class TestDiscreteRV:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DiscreteRV([0.5, 0.2], [0.5, 0.5], 1.0)  # not increasing
        with pytest.raises(ValidationError):
            DiscreteRV([0.5, 1.0], [0.5, 0.5], 1.0)  # value >= beta
        with pytest.raises(ValidationError):
            DiscreteRV([0.2, 0.5], [0.5, 0.4], 1.0)  # bad mass sum
        with pytest.raises(ValidationError):
            DiscreteRV([0.2], [0.5, 0.5], 1.0)  # length mismatch

    def test_mean_and_support(self):
        rv = DiscreteRV([0.0, 0.2, 0.6], [0.2, 0.4, 0.4], 1.0)
        assert rv.mean() == pytest.approx(0.32)
        assert rv.support_size() == 3

    def test_json_round_trip(self):
        rv = DiscreteRV([0.1, 0.4], [0.25, 0.75], 0.5)
        rv2 = DiscreteRV.from_json(rv.to_json())
        assert np.array_equal(rv.values, rv2.values)
        assert np.array_equal(rv.masses, rv2.masses)
        assert rv2.beta == 0.5


class TestObjective:
    def test_hand_computed(self):
        rv = DiscreteRV([0.2, 0.6], [0.5, 0.5], 1.0)
        # F = 0.2 * P([0.2, 0.6)) + 0.6 * P([0.6, 1)) = 0.2*0.5 + 0.6*0.5
        assert revmarkov_objective(rv, [0.2, 0.6, 1.0]) == pytest.approx(0.4)
        # a single level at 0.6 only catches the top atom
        assert revmarkov_objective(rv, [0.6, 1.0]) == pytest.approx(0.3)

    def test_grid_validation(self):
        rv = DiscreteRV([0.2], [1.0], 1.0)
        with pytest.raises(ValidationError):
            revmarkov_objective(rv, [0.5])  # fewer than two levels
        with pytest.raises(ValidationError):
            revmarkov_objective(rv, [0.5, 0.9])  # last level != beta
        with pytest.raises(ValidationError):
            revmarkov_objective(rv, [0.7, 0.2, 1.0])  # unsorted


class TestStrategies:
    def test_guarantee_holds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rv = random_rv(rng)
            if rv.mean() <= 0:
                continue
            for d in (2, 4, 8):
                grid = reverse_markov_best(rv, d)
                assert grid.achieved >= guarantee(rv, d) - 1e-15
                assert grid.nus[-1] == rv.beta
                assert len(grid.nus) == d

    def test_oracle_dominates_and_matches_when_loose(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rv = random_rv(rng, k_max=6)
            if rv.mean() <= 0:
                continue
            for d in (2, 4, 8):
                best = reverse_markov_best(rv, d)
                brute = brute_force_revmarkov(rv, d)
                assert brute.achieved >= best.achieved - 1e-12
                if d - 1 >= rv.support_size():
                    assert best.achieved == pytest.approx(brute.achieved, abs=1e-12)

    def test_top_vs_geometric_both_feasible(self):
        rv = DiscreteRV([0.1, 0.3, 0.8], [0.3, 0.3, 0.4], 1.0)
        top = revmarkov._top_row(rv.values.tolist(), rv.masses.tolist(), rv.beta, 3)
        geo = next(revmarkov._doubling_rows(rv.values, rv.masses, rv.beta, 3, top))[1:]
        assert revmarkov_objective(rv, top) == loop_top(rv, 3)[1]
        for nus in geo:
            revmarkov_objective(rv, nus)  # a valid grid
        grid = reverse_markov_best(rv, 3)
        assert revmarkov_objective(rv, grid.nus) == pytest.approx(grid.achieved)

    def test_degenerate_zero_mean(self):
        rv = DiscreteRV([0.0], [1.0], 1.0)
        with pytest.raises(DegenerateInputError):
            reverse_markov_best(rv, 2)
        with pytest.raises(DegenerateInputError):
            guarantee(rv, 2)

    def test_out_size_validation(self):
        rv = DiscreteRV([0.2], [1.0], 1.0)
        with pytest.raises(ValidationError):
            reverse_markov_best(rv, 1)
        with pytest.raises(ValidationError):
            brute_force_revmarkov(rv, 1)

    def test_brute_force_large_instance_is_exact(self):
        vals = np.linspace(0.01, 0.99, 60)
        rv = DiscreteRV(vals, np.full(60, 1.0 / 60.0), 1.0)
        grid = brute_force_revmarkov(rv, 9)  # C(60, 8) grids: beyond enumeration
        assert grid.achieved >= reverse_markov_best(rv, 9).achieved
        assert len(grid.nus) == 9


class TestGeometricSearch:
    def test_matches_candidate_loop(self):
        rng = np.random.default_rng(1303)
        for i in range(2100):
            rv = geometric_case(rng, i % 5)
            d = 2 + (i // 5) % 7
            grid = reverse_markov_best(rv, d)
            assert (grid.nus, grid.achieved) == loop_best(rv, d)

    def test_matches_candidate_loop_on_long_grids(self):
        # numpy sums rows of 8 or more in another order than np.dot, and at
        # D = 700 the 2100 candidates span 23 blocks
        rng = np.random.default_rng(1304)
        for i in range(60):
            rv = geometric_case(rng, i % 5)
            d = (9, 12, 17, 33)[i % 4]
            grid = reverse_markov_best(rv, d)
            assert (grid.nus, grid.achieved) == loop_best(rv, d)
        rv = DiscreteRV([0.1, 0.3, 0.7], [0.2, 0.5, 0.3], 1.0)
        grid = reverse_markov_best(rv, 700)
        assert (grid.nus, grid.achieved) == loop_best(rv, 700)
        # 300 atoms below 0.01 push the best doubling grid, near x = 0.5, into
        # the second of five blocks, and it beats the top-atom grid
        values = np.concatenate((np.linspace(1e-4, 1e-2, 300), np.linspace(0.5, 0.99, 200)))
        masses = np.concatenate((np.full(300, 0.01 / 300), np.full(200, 0.99 / 200)))
        rv = DiscreteRV(values, masses, 1.0)
        grid = reverse_markov_best(rv, 23)
        assert (grid.nus, grid.achieved) == loop_best(rv, 23) == loop_geometric(rv, 23)
        assert grid.achieved > loop_top(rv, 23)[1]

    @pytest.mark.parametrize("d", [1024, 1025, 1026, 1100, 2000])
    def test_grids_past_2_to_the_1023(self, d):
        # 2.0 ** j is inf from j = 1024: a candidate v / inf read 0 and its
        # levels 0 * inf = NaN, and a NaN block hid the top-atom grid (0.345)
        rv = DiscreteRV([0.1, 0.3, 0.7], [0.2, 0.5, 0.3], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = reverse_markov_best(rv, d)
        assert grid.achieved == pytest.approx(0.38, abs=1e-12)
        assert revmarkov_objective(rv, grid.nus) == grid.achieved

    @pytest.mark.parametrize("d", [2, 3, 40, 1024])
    def test_doubling_grids_keep_the_power_of_two_floats(self, d):
        # where 2.0 ** arange(D) is finite, ldexp gives the floats of
        # v / 2^t and x * 2^j, with zero, subnormal and large atoms and betas
        for values, beta in (([0.0, 5e-324, 1e-310, 0.3, 0.7], 1.0),
                             ([1e-300, 0.5, 1e300], 1.7e308)):
            rv = DiscreteRV(values, [0.2] * 5 if len(values) == 5 else [0.2, 0.3, 0.5], beta)
            xs = np.unique(np.array([v for v in values if v > 0])[:, None] / 2.0 ** np.arange(d))
            with np.errstate(over="ignore"):
                levels = np.minimum(beta, xs[:, None] * 2.0 ** np.arange(d - 1))
            want = np.hstack((levels, np.full((xs.size, 1), beta)))
            top = [0.0] * (d - 1) + [beta]  # the first block's first row
            blocks = list(revmarkov._doubling_rows(rv.values, rv.masses, beta, d, top))
            assert blocks[0][0].tolist() == top
            got = np.vstack(blocks)[1:]
            assert got.tobytes() == want.tobytes(), beta

    def test_tie_goes_to_smaller_x(self):
        # with D = 2, x = 0.25 and x = 0.5 both score exactly 0.25, and the
        # top-atom grid, through 0.75, scores 0.1875
        rv = DiscreteRV([0.25, 0.5, 0.75], [0.5, 0.25, 0.25], 1.0)
        grid = reverse_markov_best(rv, 2)
        assert grid.nus == (0.25, 1.0)
        assert grid.achieved == 0.25
        assert revmarkov_objective(rv, (0.5, 1.0)) == 0.25
        assert loop_top(rv, 2) == ((0.75, 1.0), 0.1875)

    def test_tie_goes_to_the_top_atom_grid(self):
        # with D = 2, the top-atom grid through 0.5 and the doubling grid
        # through x = 0.25 both score exactly 0.25
        rv = DiscreteRV([0.25, 0.5], [0.5, 0.5], 1.0)
        grid = reverse_markov_best(rv, 2)
        assert grid.nus == (0.5, 1.0)
        assert grid.achieved == 0.25
        assert revmarkov_objective(rv, (0.25, 1.0)) == 0.25


class TestTightnessInstance:
    def test_identities(self):
        for rho in (1e-3, 1e-4, 1e-5):
            rv = tightness_instance(rho)
            k = rv.support_size()
            r = 1.0 / (2.0 * (2.0**k - 1.0))
            assert rv.masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert rv.mean() == pytest.approx(r * k, abs=1e-15)
            assert 0.5 * rho <= rv.mean() <= 10.0 * rho
            assert rv.beta == 1.0
            # values are the dyadic points 2^-k ... 2^-1
            assert rv.values[-1] == pytest.approx(0.5)
            assert np.allclose(rv.values[1:] / rv.values[:-1], 2.0)

    def test_rho_range(self):
        with pytest.raises(ValidationError):
            tightness_instance(0.3)
        with pytest.raises(ValidationError):
            tightness_instance(0.0)
