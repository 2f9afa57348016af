import csv
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waterweights.consensus import ConsensusSnapshot
from waterweights.errors import InvariantError, UndefinedMetricError
from waterweights.metrics import (
    BLOCK_CELLS,
    GuessingTrace,
    JointDistribution,
    estimate_joint_analytic,
    group_diversity,
    guessing_entropy,
    joint_from_csv,
    joint_to_csv,
    shannon_entropy,
    uniformity_degree,
)
from conftest import make_relay, traced_peak, vector_of

# the worked three-guard / two-exit instance used as the golden fixture
GOLDEN_P = np.array(
    [
        [1 / 6, 1 / 18],
        [5 / 18, 1 / 3],
        [1 / 24, 1 / 8],
    ]
)


def golden_joint():
    return JointDistribution(("g1", "g2", "g3"), ("e1", "e2"), GOLDEN_P)


def exhaustive_greedy_g(p_fractions):
    """All final g values reachable by a greedy adversary, branching on ties.

    Independent oracle: seeds from every maximal cell and follows every
    maximal marginal choice, in exact fractions.
    """
    rows = len(p_fractions)
    cols = len(p_fractions[0])
    outcomes = set()

    def gains(picked_g, picked_e):
        out = []
        for x in range(rows):
            if x not in picked_g:
                out.append(("G", x, sum(p_fractions[x][y] for y in picked_e)))
        for y in range(cols):
            if y not in picked_e:
                out.append(("E", y, sum(p_fractions[x][y] for x in picked_g)))
        return out

    def step(picked_g, picked_e, q):
        options = gains(picked_g, picked_e)
        if not options:
            outcomes.add(sum((i + 1) * v for i, v in enumerate(q)))
            return
        top = max(gain for _, _, gain in options)
        for side, idx, gain in options:
            if gain == top:
                ng = picked_g | {idx} if side == "G" else picked_g
                ne = picked_e | {idx} if side == "E" else picked_e
                step(ng, ne, q + [gain])

    peak = max(max(row) for row in p_fractions)
    for i in range(rows):
        for j in range(cols):
            if p_fractions[i][j] == peak:
                step({i}, {j}, [Fraction(0), peak])
    return outcomes


def reference_trace(p):
    """The greedy trace with a masked copy of each side's gains per step.

    The oracle for ``guessing_entropy``: same seed cell, same tie rule (guard
    side first, then the lowest index), same order of float additions.
    Returns (picks, q, g).
    """
    n_guards, n_exits = p.shape
    guard_picked = np.zeros(n_guards, dtype=bool)
    exit_picked = np.zeros(n_exits, dtype=bool)
    guard_gain = np.zeros(n_guards)
    exit_gain = np.zeros(n_exits)
    picks, q = [], []

    def argmax_unpicked(gain, picked):
        if picked.all():
            return -1, -1.0
        masked = np.where(picked, -np.inf, gain)
        idx = int(np.argmax(masked))
        return idx, float(masked[idx])

    def take(side, idx, gain):
        picks.append((side, int(idx)))
        q.append(float(gain))
        if side == "G":
            guard_picked[idx] = True
            exit_gain[:] += p[idx, :]
        else:
            exit_picked[idx] = True
            guard_gain[:] += p[:, idx]

    seed_guard, seed_exit = np.unravel_index(int(np.argmax(p)), p.shape)
    take("G", seed_guard, 0.0)
    take("E", seed_exit, exit_gain[seed_exit])
    for _ in range(n_guards + n_exits - 2):
        best_g, gain_g = argmax_unpicked(guard_gain, guard_picked)
        best_e, gain_e = argmax_unpicked(exit_gain, exit_picked)
        if best_g >= 0 and (best_e < 0 or gain_g >= gain_e):
            take("G", best_g, gain_g)
        else:
            take("E", best_e, gain_e)
    gains = np.asarray(q)
    return tuple(picks), gains, float((np.arange(1, len(gains) + 1) * gains).sum())


@st.composite
def joints(draw):
    """Random joints: small integer cells (many ties) or floats, with some
    rows and columns zeroed, in every shape up to 7 x 7 (1 x k and k x 1
    included)."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.floats(0, 1, allow_subnormal=False),
    ]))
    p = np.array(draw(st.lists(cell, min_size=n * k, max_size=n * k))).reshape(n, k)
    p[draw(st.lists(st.integers(0, n - 1), max_size=n - 1)), :] = 0.0
    p[:, draw(st.lists(st.integers(0, k - 1), max_size=k - 1))] = 0.0
    if p.sum() == 0:
        p[draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))] = 1.0
    return JointDistribution(
        tuple(f"g{i}" for i in range(n)), tuple(f"e{j}" for j in range(k)), p / p.sum()
    )


class TestGuessingEntropy:
    def test_golden_instance_trace(self):
        trace = guessing_entropy(golden_joint())
        assert trace.picks == (("G", 1), ("E", 1), ("E", 0), ("G", 0), ("G", 2))
        expected_q = [0, 1 / 3, 5 / 18, 2 / 9, 1 / 6]
        assert np.allclose(trace.q, expected_q, atol=1e-12)
        assert abs(trace.g - 29 / 9) < 1e-12

    def test_golden_instance_matches_exhaustive_oracle(self):
        cells = [
            [Fraction(1, 6), Fraction(1, 18)],
            [Fraction(5, 18), Fraction(1, 3)],
            [Fraction(1, 24), Fraction(1, 8)],
        ]
        outcomes = exhaustive_greedy_g(cells)
        assert outcomes == {Fraction(29, 9)}
        assert abs(guessing_entropy(golden_joint()).g - 29 / 9) < 1e-12

    def test_single_cell_needs_both_nodes(self):
        jd = JointDistribution(("g1",), ("e1",), np.array([[1.0]]))
        trace = guessing_entropy(jd)
        assert np.allclose(trace.q, [0.0, 1.0])
        assert trace.g == 2.0

    def test_uniform_two_by_two_matches_oracle(self):
        jd = JointDistribution(("g1", "g2"), ("e1", "e2"), np.full((2, 2), 0.25))
        quarter = Fraction(1, 4)
        outcomes = exhaustive_greedy_g([[quarter, quarter], [quarter, quarter]])
        assert outcomes == {Fraction(13, 4)}  # every greedy-consistent order agrees
        assert abs(guessing_entropy(jd).g - 3.25) < 1e-12

    def test_bounds_with_full_support(self, rng):
        for _ in range(50):
            n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            p = rng.uniform(0.05, 1.0, size=(n, k))
            jd = JointDistribution(
                tuple(f"g{i}" for i in range(n)),
                tuple(f"e{j}" for j in range(k)),
                p / p.sum(),
            )
            trace = guessing_entropy(jd)
            assert 2.0 - 1e-12 <= trace.g <= n + k + 1e-12
            assert abs(trace.q.sum() - 1.0) < 1e-9  # full support: all mass covered
            cumulative = np.cumsum(trace.q)
            assert (np.diff(cumulative) >= -1e-15).all()

    def test_g_equals_two_iff_single_cell(self):
        concentrated = np.zeros((3, 2))
        concentrated[1, 0] = 1.0
        jd = JointDistribution(("g1", "g2", "g3"), ("e1", "e2"), concentrated)
        assert guessing_entropy(jd).g == 2.0
        spread = guessing_entropy(golden_joint())
        assert spread.g > 2.0

    def test_trace_invariants_enforced(self):
        with pytest.raises(InvariantError):
            GuessingTrace(picks=(("G", 0),), q=np.array([0.5]), g=0.5)

    @pytest.mark.parametrize("picks,q,g,message", [
        ((("G", 0), ("E", 0)), [0.0, 1.0], 5.0, "not sum"),
        ((("G", 0), ("E", 0)), [0.0, 1.0], np.nan, "not sum"),
        ((("G", 0), ("E", 0)), [0.0, 1.0], 2.0 + 1e-6, "not sum"),
        ((("G", 0), ("E", 0), ("G", 1)), [0.0, 1.0], 2.0, "3 picks but 2"),
        ((("G", 0),), [0.0, 1.0], 2.0, "1 picks but 2"),
        ((), [], 0.0, "non-empty"),
    ])
    def test_trace_must_be_consistent(self, picks, q, g, message):
        with pytest.raises(InvariantError, match=message):
            GuessingTrace(picks=picks, q=np.array(q), g=g)

    def test_trace_g_within_tolerance_is_accepted(self):
        trace = GuessingTrace(picks=(("G", 0), ("E", 0)), q=np.array([0.0, 1.0]), g=2.0 + 1e-12)
        assert trace.g == 2.0 + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_trace_rejects_non_finite_gain(self, bad):
        with pytest.raises(InvariantError, match="non-finite"):
            GuessingTrace(picks=(("G", 0), ("E", 0)), q=np.array([0.0, bad]), g=bad)

    @settings(max_examples=400, deadline=None)
    @given(joints())
    def test_matches_masked_copy_reference(self, jd):
        picks, q, g = reference_trace(jd.p)
        trace = guessing_entropy(jd)
        assert trace.picks == picks
        assert np.array_equal(trace.q, q)
        assert trace.g == g

    def test_ties_go_to_the_guard_side(self):
        # after the seed cell (g0, e0), g1 and e1 both add 1/4
        trace = guessing_entropy(JointDistribution(("g0", "g1"), ("e0", "e1"), np.full((2, 2), 0.25)))
        assert trace.picks == (("G", 0), ("E", 0), ("G", 1), ("E", 1))


class TestJointDistribution:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, bad):
        with pytest.raises(InvariantError, match="^non-finite cell probability$"):
            JointDistribution(("a", "b"), ("x", "y"), [[bad, 0.5], [0.25, 0.25]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_checked_before_negative(self, bad):
        with pytest.raises(InvariantError, match="^non-finite cell probability$"):
            JointDistribution(("a", "b"), ("x", "y"), [[-0.25, 0.5], [0.5, bad]])

    def test_negative_cell_rejected(self):
        with pytest.raises(InvariantError, match="^negative cell probability$"):
            JointDistribution(("a", "b"), ("x", "y"), [[-0.25, 0.5], [0.5, 0.25]])

    def test_negative_zero_is_not_negative(self):
        jd = JointDistribution(("a",), ("x", "y"), [[-0.0, 1.0]])
        assert jd.p[0, 1] == 1.0

    @pytest.mark.parametrize("guards,exits", [((), ()), ((), ("x", "y")), (("a",), ())])
    def test_empty_matrix_reaches_the_sum_check(self, guards, exits):
        with pytest.raises(InvariantError, match="^cell probabilities sum to 0.0, not 1$"):
            JointDistribution(guards, exits, np.zeros((len(guards), len(exits))))


class TestUniformityDegree:
    def test_uniform_matrix_is_one(self):
        jd = JointDistribution(
            tuple(f"g{i}" for i in range(4)),
            tuple(f"e{j}" for j in range(4)),
            np.full((4, 4), 1 / 16),
        )
        assert uniformity_degree(jd) == pytest.approx(1.0)

    def test_point_mass_is_zero(self):
        p = np.zeros((4, 4))
        p[2, 3] = 1.0
        jd = JointDistribution(
            tuple(f"g{i}" for i in range(4)),
            tuple(f"e{j}" for j in range(4)),
            p,
        )
        assert uniformity_degree(jd) == 0.0

    def test_skewed_sender_distribution(self):
        # 1025 cells: one at 1/2, the rest at 1/2048 each; entropy 6 bits
        p = np.full((1, 1025), 1 / 2048)
        p[0, 0] = 1 / 2
        jd = JointDistribution(
            ("g1",), tuple(f"e{j}" for j in range(1025)), p
        )
        degree = uniformity_degree(jd)
        assert degree == pytest.approx(6.0 / np.log2(1025))
        assert abs(degree - 0.6) < 1e-3

    def test_single_cell_undefined(self):
        jd = JointDistribution(("g1",), ("e1",), np.array([[1.0]]))
        with pytest.raises(UndefinedMetricError):
            uniformity_degree(jd)

    def test_permutation_invariance(self, rng):
        p = rng.uniform(0, 1, size=(5, 4))
        p /= p.sum()
        jd = JointDistribution(
            tuple(f"g{i}" for i in range(5)), tuple(f"e{j}" for j in range(4)), p
        )
        shuffled = p[rng.permutation(5)][:, rng.permutation(4)]
        jd2 = JointDistribution(jd.guards, jd.exits, shuffled)
        assert uniformity_degree(jd) == pytest.approx(uniformity_degree(jd2), abs=1e-12)

    def test_scale_free_through_csv(self):
        jd = golden_joint()
        text = joint_to_csv(jd)
        scaled = "\n".join(
            line if i == 0 else
            ",".join([line.split(",")[0]] + [repr(7.0 * float(v)) for v in line.split(",")[1:]])
            for i, line in enumerate(text.strip().splitlines())
        )
        jd2 = joint_from_csv(scaled)
        assert uniformity_degree(jd) == pytest.approx(uniformity_degree(jd2), abs=1e-12)
        assert guessing_entropy(jd).picks == guessing_entropy(jd2).picks


class TestEstimateJoint:
    def analytic_fixture(self, conflict):
        relays = [
            make_relay("g1", 10, "g", subnet="1.1"),
            make_relay("g2", 10, "g", subnet="2.2"),
            make_relay("e1", 10, "e", subnet="1.1" if conflict else "3.3"),
            make_relay("e2", 10, "e", subnet="4.4"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        entry = vector_of(snap, ("g1", "g2"), [0.5, 0.5])
        exit_ = vector_of(snap, ("e1", "e2"), [0.5, 0.5])
        return snap, entry, exit_

    def test_independent_outer_product(self):
        jd = estimate_joint_analytic(*self.analytic_fixture(conflict=False))
        assert np.allclose(jd.p, 0.25)

    def test_conflicting_subnet_zeroed_and_renormalized(self):
        jd = estimate_joint_analytic(*self.analytic_fixture(conflict=True))
        # oracle: enumerate the four pairs, drop (g1, e1), renormalize
        weights = {("g1", "e1"): 0.0, ("g1", "e2"): 0.25, ("g2", "e1"): 0.25, ("g2", "e2"): 0.25}
        total = sum(weights.values())
        for (g, e), raw in weights.items():
            cell = jd.p[jd.guards.index(g), jd.exits.index(e)]
            assert cell == pytest.approx(raw / total)

    def test_vectors_of_another_table_rejected(self):
        # an equal snapshot built apart holds an equal table, not the same one
        snap, entry, exit_ = self.analytic_fixture(conflict=False)
        twin, twin_entry, twin_exit = self.analytic_fixture(conflict=False)
        assert twin == snap and twin.table is not snap.table
        for vectors in ((twin_entry, exit_), (entry, twin_exit), (twin_entry, twin_exit)):
            with pytest.raises(ValueError, match="another snapshot's table"):
                estimate_joint_analytic(snap, *vectors)
        for key in ("country", "as"):
            with pytest.raises(ValueError, match="another snapshot's table"):
                group_diversity(snap, twin_entry, key)
        assert np.allclose(estimate_joint_analytic(twin, twin_entry, twin_exit).p, 0.25)

    def test_family_conflicts_zeroed(self):
        relays = [
            make_relay("g1", 10, "g", subnet="1.1", family=frozenset({"e1"})),
            make_relay("e1", 10, "e", subnet="2.2"),
            make_relay("e2", 10, "e", subnet="3.3"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        entry = vector_of(snap, ("g1",), [1.0])
        exit_ = vector_of(snap, ("e1", "e2"), [0.5, 0.5])
        jd = estimate_joint_analytic(snap, entry, exit_)
        assert jd.p[0, 0] == 0.0
        assert jd.p[0, 1] == 1.0


def reference_joint(snapshot, entry, exit_):
    """The joint with one full-grid conflict mask and a dividing copy."""
    table = snapshot.table
    matrix = np.outer(entry.probabilities, exit_.probabilities)
    conflicts = table.conflict(entry.rows[:, None], exit_.rows[None, :])
    matrix[conflicts] = 0.0
    total = matrix.sum()
    return matrix / total if total > 0 else None


def reference_entropy(probabilities):
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    return float(-(p[p > 0] * np.log2(p[p > 0])).sum())


def random_positions(rng, n_guards, n_exits, n_duals, zero_share, subnets):
    """A snapshot and entry/exit vectors over its guards, exits and duals.

    Dual relays sit on both sides (the same-relay rule), /16s are drawn
    from ``subnets`` codes and about one relay in ten has family, so every
    conflict rule fires; ``zero_share`` of each side's probabilities are
    zero, which zeroes whole rows and columns of the joint.
    """
    fps = [f"g{i}" for i in range(n_guards)] + [f"e{j}" for j in range(n_exits)]
    fps += [f"d{k}" for k in range(n_duals)]
    roles = ["g"] * n_guards + ["e"] * n_exits + ["d"] * n_duals
    relays = []
    for fp, role in zip(fps, roles):
        family = frozenset()
        if rng.random() < 0.1:
            family = frozenset(fps[k] for k in rng.integers(len(fps), size=int(rng.integers(1, 4)))) - {fp}
        subnet = f"10.{int(rng.integers(subnets))}"
        relays.append(make_relay(fp, 10, role, subnet=subnet, family=family))
    snap = ConsensusSnapshot.from_relays(0, relays)

    def side(names):
        p = rng.pareto(1.2, len(names)) + 1.0
        p[rng.random(len(names)) < zero_share] = 0.0
        if not p.any():
            p[0] = 1.0
        return vector_of(snap, names, p / p.sum())

    duals = fps[n_guards + n_exits:]
    return snap, side(fps[:n_guards] + duals), side(fps[n_guards:n_guards + n_exits] + duals)


def block_edge_shapes():
    """(guards, exits, duals) whose joints sit below, at and just past a
    block of guard rows, and past one and two blocks of cells."""
    step = BLOCK_CELLS // 256
    return [
        (1, 1, 0), (3, 4, 2), (0, 0, 3),
        (step - 1, 256, 0), (step, 256, 0), (step + 1, 256, 0),  # 1 block = 2^16 cells
        (step - 2, 255, 1), (step - 1, 255, 1), (step, 255, 1),
        (BLOCK_CELLS // 300, 300, 0), (BLOCK_CELLS // 300 + 1, 300, 0),  # 2^16 - 136 cells, then two blocks
        (2 * step + 1, 256, 0),
    ]


class TestInPlaceKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(block_edge_shapes()),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.3, 0.9]),
        st.sampled_from([1, 4, 64, 65536]),
    )
    def test_joint_is_the_masked_copy_bit_for_bit(self, shape, seed, zero_share, subnets):
        snap, entry, exit_ = random_positions(np.random.default_rng(seed), *shape, zero_share, subnets)
        oracle = reference_joint(snap, entry, exit_)
        if oracle is None:  # every pair with mass conflicts
            with pytest.raises(UndefinedMetricError):
                estimate_joint_analytic(snap, entry, exit_)
            return
        jd = estimate_joint_analytic(snap, entry, exit_)
        assert jd.p.shape == oracle.shape
        assert jd.p.tobytes() == oracle.tobytes()

    def test_joint_spans_many_blocks_when_exits_outnumber_a_block(self):
        snap, entry, exit_ = random_positions(np.random.default_rng(5), 3, BLOCK_CELLS + 1, 2, 0.3, 64)
        jd = estimate_joint_analytic(snap, entry, exit_)
        assert jd.p.tobytes() == reference_joint(snap, entry, exit_).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 2 * BLOCK_CELLS + 7])
        | st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5]),
        st.booleans(),
    )
    def test_entropy_is_the_product_sum_bit_for_bit(self, positive, seed, zero_share, as_joint):
        rng = np.random.default_rng(seed)
        values = rng.pareto(1.2, positive) + 1.0
        values /= values.sum()
        p = np.zeros(positive + int(positive * zero_share))
        p[np.sort(rng.choice(len(p), positive, replace=False))] = values
        if as_joint and len(p) % 2 == 0:
            p = p.reshape(2, -1)
        assert shannon_entropy(p) == reference_entropy(p)

    def test_csv_normalization_is_the_dividing_copy(self):
        cells = np.random.default_rng(3).uniform(0, 7, size=(4, 5))
        text = "guard," + ",".join(f"e{j}" for j in range(5)) + "\n"
        text += "".join(f"g{i}," + ",".join(repr(float(v)) for v in row) + "\n" for i, row in enumerate(cells))
        assert joint_from_csv(text).p.tobytes() == (cells / cells.sum()).tobytes()


class TestAnalysisMemory:
    """Allocation peaks on a joint the size of the Tor-size bench input
    (3,431 entry x 641 exit relays, about 17.6 MB of cells)."""

    @pytest.fixture(scope="class")
    def tor_size(self):
        return random_positions(np.random.default_rng(11), 3431 - 150, 641 - 150, 150, 0.0, 20000)

    def test_joint_allocates_little_past_its_own_cells(self, tor_size):
        jd, peak, _ = traced_peak(lambda: estimate_joint_analytic(*tor_size))
        assert jd.p.shape == (3431, 641)
        assert peak <= 1.1 * jd.p.nbytes, f"peak {peak / jd.p.nbytes:.2f}x the joint"

    def test_uniformity_needs_at_most_one_more_vector(self, tor_size):
        jd = estimate_joint_analytic(*tor_size)
        degree, peak, _ = traced_peak(lambda: uniformity_degree(jd))
        assert 0 < degree < 1
        # the entropy sum gathers its leaves of at most BLOCK_CELLS terms one at a time
        assert peak <= 0.15 * jd.p.nbytes, f"peak {peak / jd.p.nbytes:.2f}x the joint"


class TestGroupDiversity:
    def entry(self, snap, probs):
        return vector_of(snap, [f"r{i}" for i in range(len(probs))], probs)

    def test_single_country(self):
        relays = [make_relay(f"r{i}", 10, "g", country="be") for i in range(3)]
        snap = ConsensusSnapshot.from_relays(0, relays)
        table = group_diversity(snap, self.entry(snap, [0.2, 0.3, 0.5]), "country")
        assert table == [("be", pytest.approx(1.0))]

    def test_two_countries_sorted(self):
        relays = [
            make_relay("r0", 10, "g", country="aa"),
            make_relay("r1", 10, "g", country="bb"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        table = group_diversity(snap, self.entry(snap, [0.3, 0.7]), "country")
        assert table == [("bb", pytest.approx(0.7)), ("aa", pytest.approx(0.3))]

    def test_a_country_named_unknown_is_not_the_relays_with_none(self):
        relays = [
            make_relay("r0", 10, "g", country="unknown"), make_relay("r1", 10, "g"),
            make_relay("r2", 10, "g", country="de"),
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        entry = self.entry(snap, [0.25, 0.25, 0.5])
        assert group_diversity(snap, entry, "country") == [
            ("de", 0.5), ("unknown", 0.25), (None, 0.25),
        ]
        assert group_diversity(snap, entry, "as") == [(None, 1.0)]

    @staticmethod
    def dict_loop(snap, vector, key):
        """The group table summed row by row in a dict: the reference.  The
        relays with no value are the group None, after the named groups of
        equal probability."""
        relays = snap.relays
        groups: dict[str | None, float] = {}
        for row, prob in zip(vector.rows.tolist(), vector.probabilities.tolist()):
            value = relays[row].country if key == "country" else relays[row].as_number
            label = value if value is None or key == "country" else f"AS{value}"
            groups[label] = groups.get(label, 0.0) + prob
        return sorted(groups.items(), key=lambda item: (-item[1], item[0] is None, item[0] or ""))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, "de", "us", "unknown", "AS1"]),
                st.one_of(
                    st.sampled_from([None, 0, 1, 3320, 2**31, 4_200_000_000, 2**32 - 1]),
                    st.integers(0, 2**32 - 1),
                ),
            ),
            max_size=12,
        ),
        st.data(),
    )
    def test_group_tables_equal_the_dict_loop_bit_for_bit(self, labels, data):
        # rows in any order, some left out; probabilities of mixed magnitudes,
        # so that the order of the additions shows in the sums
        relays = [
            make_relay(f"r{i}", 10, "g", country=country, as_number=asn)
            for i, (country, asn) in enumerate(labels)
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        picked = data.draw(st.permutations(range(len(relays))))
        picked = picked[: data.draw(st.integers(0, len(picked)))]
        probs = data.draw(st.lists(
            st.one_of(st.floats(0, 1), st.floats(0, 1e-12), st.sampled_from([0.1, 0.2, 0.3])),
            min_size=len(picked), max_size=len(picked),
        ))
        vector = vector_of(snap, [f"r{i}" for i in picked], probs)
        for key in ("country", "as"):
            got = group_diversity(snap, vector, key)
            expected = self.dict_loop(snap, vector, key)
            assert [(g, p.hex()) for g, p in got] == [(g, p.hex()) for g, p in expected]

    def test_four_byte_as_numbers_are_not_indices(self):
        # 2**32 - 1 as a bincount index would size the sums at 32 GB
        relays = [make_relay("r0", 10, "g", as_number=2**32 - 1),
                  make_relay("r1", 10, "g", as_number=4_200_000_000)]
        snap = ConsensusSnapshot.from_relays(0, relays)
        table, peak, _ = traced_peak(
            lambda: group_diversity(snap, self.entry(snap, [0.25, 0.75]), "as")
        )
        assert table == [("AS4200000000", 0.75), ("AS4294967295", 0.25)]
        assert peak < 10**6

    def test_five_as_instance_matches_brute_force(self, rng):
        as_numbers = [16276, 12876, 24940, 16276, None]
        relays = [
            make_relay(f"r{i}", 10, "g", as_number=asn)
            for i, asn in enumerate(as_numbers)
        ]
        snap = ConsensusSnapshot.from_relays(0, relays)
        probs = rng.dirichlet(np.ones(5))
        table = dict(group_diversity(snap, self.entry(snap, probs), "as"))
        expected = {}
        for asn, prob in zip(as_numbers, probs):
            label = f"AS{asn}" if asn is not None else None
            expected[label] = expected.get(label, 0.0) + float(prob)
        assert set(table) == set(expected)
        for label, total in expected.items():
            assert table[label] == pytest.approx(total)
        assert sum(table.values()) == pytest.approx(1.0)


class TestJointCsv:
    def test_roundtrip(self):
        jd = golden_joint()
        again = joint_from_csv(joint_to_csv(jd))
        assert again.guards == jd.guards
        assert again.exits == jd.exits
        assert np.allclose(again.p, jd.p, atol=1e-15)

    def test_plain_names_keep_the_unquoted_layout(self):
        jd = golden_joint()
        rows = [["guard", *jd.exits]]
        rows += [[guard, *map(repr, cells)] for guard, cells in zip(jd.guards, jd.p.tolist())]
        assert joint_to_csv(jd) == "".join(",".join(row) + "\n" for row in rows)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(), min_size=1, max_size=4, unique=True),
        st.lists(st.text(), min_size=1, max_size=4, unique=True),
    )
    @example(["g,1", "g2"], ["e"])
    @example(["g\x00"], ["e"])
    def test_any_names_round_trip_or_are_refused(self, guards, exits):
        # native and JSON snapshots accept any string as a fingerprint
        p = np.arange(1.0, len(guards) * len(exits) + 1).reshape(len(guards), len(exits))
        jd = JointDistribution(tuple(guards), tuple(exits), p / p.sum())
        refused = next((name for name in guards + exits if "\r" in name or "\x00" in name), None)
        if refused is not None:
            with pytest.raises(ValueError, match=re.escape(f"{refused!r} holds a carriage return or a NUL")):
                joint_to_csv(jd)
            return
        again = joint_from_csv(joint_to_csv(jd))
        assert (again.guards, again.exits) == (jd.guards, jd.exits)
        assert np.allclose(again.p, jd.p, rtol=1e-15, atol=0)

    def test_unreadable_csv_is_undefined(self):
        # the reader's own errors (an over-long field here) are input errors
        with pytest.raises(UndefinedMetricError, match="joint CSV: field larger than field limit"):
            joint_from_csv("guard,E1\n" + "G" * (csv.field_size_limit() + 1) + ",1\n")

    def test_header_required(self):
        with pytest.raises(UndefinedMetricError):
            joint_from_csv("g1,0.5\n")

    @pytest.mark.parametrize("text,message", [
        ("guard,E1,E2\nG1,0.1,0.2\nG2,0.3,0.1\nG1,0.2,0.1\n", "more than one guard row for 'G1'"),
        ("guard,E1,E2,E1\nG1,0.1,0.2,0.1\nG2,0.3,0.1,0.2\n", "more than one exit column for 'E1'"),
    ], ids=["guard", "exit"])
    def test_repeated_fingerprint_rejected(self, text, message):
        # one relay scored as two would skew both metrics
        with pytest.raises(UndefinedMetricError, match=message):
            joint_from_csv(text)


def test_shannon_entropy_conventions():
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)
    assert shannon_entropy([1.0]) == 0.0
