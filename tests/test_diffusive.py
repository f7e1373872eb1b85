import math
from fractions import Fraction

import pytest

from defectca.diffusive import (
    MarkovMeasure,
    build_walk_kernel,
    subsampled_walk,
    markov_property_test,
    parry_measure,
    pushforward_cylinders,
    sample_kernel_chain,
    sample_walks,
    stationary_and_drift,
    union_shift,
    verify_resolving_system,
)
from defectca.errors import DefectcaError
from defectca.rules import LocalRule, from_linear, from_wolfram_number, identity_rule
from defectca.shifts import (
    Alphabet,
    binary_alphabet,
    build_markov_shift,
    entropy,
    full_shift,
)
from defectca import zoo

A2 = binary_alphabet()
PHI = (1 + math.sqrt(5)) / 2


def golden_mean():
    return build_markov_shift(A2, [(0, 0), (0, 1), (1, 0)])


def chorded_cycle(n=400, chord=(0, 200)):
    # a long cycle with one chord: the Perron root sits barely above 1 and
    # close to the other eigenvalues, which stalled a power iteration
    alpha = Alphabet(tuple(str(i) for i in range(n)))
    return build_markov_shift(alpha, [(i, (i + 1) % n) for i in range(n)] + [chord])


class TestPerronConvergence:
    def test_entropy_matches_characteristic_root(self):
        # the two first-return loops at vertex 0 have lengths 400 and 201,
        # so the Perron root solves lam^-400 + lam^-201 = 1
        lo, hi = 1.0, 2.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid ** -400 + mid ** -201 > 1:
                lo = mid
            else:
                hi = mid
        assert abs(entropy(chorded_cycle()) - math.log2(lo)) < 1e-12

    def test_parry_measure_stationary(self):
        s = chorded_cycle()
        m = parry_measure(s)
        assert m.stationary
        for a in s.usable:
            row = sum(m.kernel[(a, b)] for b in s.followers(a))
            assert row == pytest.approx(1.0, abs=1e-12)


class TestParry:
    def test_full_shift_uniform(self):
        m = parry_measure(full_shift(A2))
        assert m.initial == pytest.approx({0: 0.5, 1: 0.5})
        assert m.kernel[(0, 1)] == pytest.approx(0.5)
        assert m.stationary

    def test_singleton_point_mass(self):
        m = parry_measure(build_markov_shift(A2, [(0, 0)]))
        assert m.initial == {0: pytest.approx(1.0)}
        assert m.kernel[(0, 0)] == pytest.approx(1.0)

    def test_golden_mean_exact_values(self):
        m = parry_measure(golden_mean())
        assert m.initial[0] == pytest.approx(PHI ** 2 / (1 + PHI ** 2), abs=1e-12)
        assert m.initial[1] == pytest.approx(1 / (1 + PHI ** 2), abs=1e-12)
        assert m.kernel[(0, 0)] == pytest.approx(1 / PHI, abs=1e-12)
        assert m.kernel[(0, 1)] == pytest.approx(1 / PHI ** 2, abs=1e-12)
        assert m.kernel[(1, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_golden_mean_stationary_and_entropy(self):
        s = golden_mean()
        m = parry_measure(s)
        assert m.stationary
        assert abs(m.entropy_rate() - math.log2(PHI)) < 1e-9
        assert abs(m.entropy_rate() - entropy(s)) < 1e-9

    def test_reducible_rejected(self):
        with pytest.raises(DefectcaError):
            parry_measure(build_markov_shift(A2, [(0, 0), (1, 1)]))

    def test_backward_kernel_uniform_on_predecessors(self):
        m = parry_measure(full_shift(A2))
        assert m.backward(0, 1) == pytest.approx(0.5)
        assert m.backward(1, 1) == pytest.approx(0.5)


class TestPushforward:
    def test_mod2_sum_preserves_uniform(self):
        rule = from_linear(2, (1, 1, 1))
        m = parry_measure(full_shift(rule.alphabet))
        pushed = pushforward_cylinders(rule, m, 4)
        for word, p in pushed.items():
            assert abs(p - m.cylinder(word)) < 1e-12

    def test_diffusive_rule_preserves_sea_measure(self):
        rule = zoo.diffusive_rule()
        m = parry_measure(zoo.diffusive_background())
        pushed = pushforward_cylinders(rule, m, 4)
        for word, p in pushed.items():
            assert abs(p - m.cylinder(word)) < 1e-12


class TestResolvingSystem:
    def test_diffusive_example_passes(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        rep = verify_resolving_system(rule, sea, sea)
        assert rep.passed, rep.witnesses
        assert rep.lam.initial[0] == pytest.approx(0.5)

    def test_identity_rule_fails(self):
        rep = verify_resolving_system(identity_rule(A2), full_shift(A2),
                                      full_shift(A2))
        assert not rep.passed
        assert any("resolving" in w for w in rep.witnesses)

    def test_wall_system_passes(self):
        rep = verify_resolving_system(zoo.wall_rule(), zoo.wall_left_shift(),
                                      zoo.wall_right_shift())
        assert rep.passed, rep.witnesses

    def test_overlapping_unequal_union_fails(self):
        L = build_markov_shift(A2, [(0, 0)])
        R = full_shift(A2)
        rep = verify_resolving_system(from_linear(2, (1, 1, 1)), L, R)
        assert not rep.union_markov


class TestWalkKernel:
    def kernel(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        marked = zoo.diffusive_marked_symbols()
        return build_walk_kernel(rule, sea, sea, 1,
                                 delta_support=[(s,) for s in marked])

    def test_every_entry_is_one_quarter(self):
        k = self.kernel()
        assert k.P_L == 2 and k.F_R == 2
        for s in k.states:
            row = k.rows[s]
            assert sum(row.values()) == 1
            assert all(p == Fraction(1, 4) for p in row.values())
            assert len(row) == 4

    def test_claim_support_shapes(self):
        k = self.kernel()
        rule = k.rule
        for s in k.states:
            v = k.vel[s]
            l2, l1, d0, d1, r1, r2 = s
            for t in k.rows[s]:
                if v == 0:
                    assert t[1] == rule((l2, l1, d0))
                    assert t[2] == rule((l1, d0, d1))
                    assert t[3] == rule((d0, d1, r1))
                    assert t[4] == rule((d1, r1, r2))
                    assert t[0] in k.left.predecessors(t[1])
                    assert t[5] in k.right.followers(t[4])
                elif v == -1:
                    assert t[2] == rule((l2, l1, d0))
                    assert t[3] == rule((l1, d0, d1))
                    assert t[4] == rule((d0, d1, r1))
                    assert t[5] == rule((d1, r1, r2))
                else:
                    assert t[0] == rule((l2, l1, d0))
                    assert t[1] == rule((l1, d0, d1))
                    assert t[2] == rule((d0, d1, r1))
                    assert t[3] == rule((d1, r1, r2))

    def test_velocity_matches_marked_cell_motion(self):
        # the mark hops left iff (l1, d0) values are (1, 1), right iff (0, 0)
        k = self.kernel()
        for s in k.states:
            l1v = s[1] & 1
            d0v = s[2] & 1
            r1v = s[3] & 1
            expected = -1 if (l1v, d0v) == (1, 1) else (
                1 if (d0v, r1v) == (0, 0) else 0)
            assert k.vel[s] == expected

    def test_gamma_plus_as_degenerate_walk(self):
        gstar = zoo.gstar_shift()
        k = build_walk_kernel(from_wolfram_number(184), gstar, gstar, 0)
        classes = stationary_and_drift(k)
        drifts = sorted(c.drift for c in classes)
        assert drifts == [Fraction(-1), Fraction(1)]
        for c in classes:
            for s in c.states:
                assert len(k.rows[s]) == 1
                assert list(k.rows[s].values()) == [Fraction(1)]

    def test_wall_kernel_left_rows_are_deterministic(self):
        k = build_walk_kernel(zoo.wall_rule(), zoo.wall_left_shift(),
                              zoo.wall_right_shift(), 0)
        assert k.P_L == 1 and k.F_R == 2
        for s in k.states:
            if k.vel[s] == -1:
                assert list(k.rows[s].values()) == [Fraction(1)]
            elif k.vel[s] == 0:
                assert sorted(k.rows[s].values()) == [Fraction(1, 2)] * 2
            else:
                assert sorted(k.rows[s].values()) == [Fraction(1, 4)] * 4


class TestStationary:
    def test_diffusive_single_class_zero_drift(self):
        k = TestWalkKernel().kernel()
        classes = stationary_and_drift(k)
        assert len(classes) == 1
        c = classes[0]
        assert c.drift == 0
        assert sum(c.stationary.values()) == 1
        flow = {}
        for s in c.states:
            for t, p in k.rows[s].items():
                flow[t] = flow.get(t, Fraction(0)) + c.stationary[s] * p
        assert all(flow[s] == c.stationary[s] for s in c.states)

    def test_wall_drift_exact(self):
        k = build_walk_kernel(zoo.wall_rule(), zoo.wall_left_shift(),
                              zoo.wall_right_shift(), 0)
        classes = stationary_and_drift(k)
        assert len(classes) == 1
        assert classes[0].drift == Fraction(-1, 7)


def _uniform_marked_delta():
    return {(s,): 0.5 for s in zoo.diffusive_marked_symbols()}


class TestSampleWalks:
    def test_deterministic_replay(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        t1, s1 = sample_walks(rule, sea, sea, _uniform_marked_delta(), 100, 5, 42)
        t2, s2 = sample_walks(rule, sea, sea, _uniform_marked_delta(), 100, 5, 42)
        assert t1 == t2
        assert s1.empirical_drift == s2.empirical_drift

    def test_small_drift(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        trajs, stats = sample_walks(rule, sea, sea, _uniform_marked_delta(),
                                    2000, 30, 7)
        assert stats.excluded == 0
        assert abs(stats.empirical_drift) < 0.1

    def test_increments_bounded(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        trajs, _ = sample_walks(rule, sea, sea, _uniform_marked_delta(), 300, 5, 3)
        for tr in trajs:
            assert all(abs(b - a) <= 1 for a, b in zip(tr, tr[1:]))

    def test_increment_stationarity(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        trajs, _ = sample_walks(rule, sea, sea, _uniform_marked_delta(),
                                4000, 10, 11)
        first, second = [], []
        for tr in trajs:
            mid = len(tr) // 2
            first += [b - a for a, b in zip(tr[:mid], tr[1:mid + 1])]
            second += [b - a for a, b in zip(tr[mid:], tr[mid + 1:])]
        for v in (-1, 0, 1):
            p1 = first.count(v) / len(first)
            p2 = second.count(v) / len(second)
            assert abs(p1 - p2) < 0.05

    def test_matches_kernel_chain_frequencies(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        delta = _uniform_marked_delta()
        k = build_walk_kernel(rule, sea, sea, 1,
                              delta_support=[(s,) for s in
                                             zoo.diffusive_marked_symbols()])
        _, stats = sample_walks(rule, sea, sea, delta, 3000, 20, 13)
        _, chain_counts = sample_kernel_chain(k, delta, 3000, 20, 14)
        for s, row in stats.transition_counts.items():
            n1 = sum(row.values())
            row2 = chain_counts.get(s)
            if row2 is None or n1 < 400:
                continue
            n2 = sum(row2.values())
            for t in set(row) | set(row2):
                p1 = row.get(t, 0) / n1
                p2 = row2.get(t, 0) / n2
                assert abs(p1 - p2) < 6 * math.sqrt(0.25 / min(n1, n2)) + 0.02


class TestMarkovProperty:
    def test_diffusive_rows_match_kernel(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        delta = _uniform_marked_delta()
        k = build_walk_kernel(rule, sea, sea, 1,
                              delta_support=[(s,) for s in
                                             zoo.diffusive_marked_symbols()])
        _, stats = sample_walks(rule, sea, sea, delta, 4000, 25, 99)
        report = markov_property_test(stats, k)
        assert report.passed
        assert report.max_tv < 0.2

    def test_wrong_kernel_fails(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        delta = _uniform_marked_delta()
        k = build_walk_kernel(rule, sea, sea, 1,
                              delta_support=[(s,) for s in
                                             zoo.diffusive_marked_symbols()])
        _, stats = sample_walks(rule, sea, sea, delta, 4000, 25, 99)
        # corrupt the empirical data: pretend every transition was a self-loop
        fake = {s: {s: sum(row.values())} for s, row in
                stats.transition_counts.items()}
        stats.transition_counts = fake
        stats.pair_counts = {}
        report = markov_property_test(stats, k)
        assert not report.passed

    def test_deterministic_kernel_rows_are_exact(self):
        gstar = zoo.gstar_shift()
        rule = from_wolfram_number(184)
        k = build_walk_kernel(rule, gstar, gstar, 0)
        trajs, counts = sample_kernel_chain(k, {}, 50, 4, 5)
        stats = WalkStats = None
        from defectca.diffusive import WalkStatistics
        stats = WalkStatistics(4, 50, 0, 1.0, 0.0, counts, {})
        report = markov_property_test(stats, k)
        assert report.passed
        assert all(r.tv == 0.0 for r in report.rows)


class TestSubsampledWalk:
    def test_wall_walk_with_frozen_side(self):
        walks = subsampled_walk(zoo.wall_rule(), zoo.wall_left_shift(),
                               zoo.wall_right_shift(), "left", {},
                               1500, 20, 21, W=0)
        assert len(walks) == 1
        weight, trajs, stats = walks[0]
        assert weight == 1.0
        assert abs(stats.empirical_drift - (-1 / 7)) < 0.1

    def test_p1q1_reduces_to_sample_walks(self):
        direct, dstats = sample_walks(zoo.wall_rule(), zoo.wall_left_shift(),
                                      zoo.wall_right_shift(), {}, 200, 5, 21,
                                      W=0)
        walks = subsampled_walk(zoo.wall_rule(), zoo.wall_left_shift(),
                               zoo.wall_right_shift(), "left", {},
                               200, 5, 21, W=0)
        assert walks[0][1] == direct

    def test_mixture_over_two_fixed_points(self):
        base = zoo.wall_rule()
        alpha = Alphabet(("w", "w2", "0", "1"))

        def fn(w):
            mapped = tuple(0 if s == 1 else (s - 1 if s >= 2 else s) for s in w)
            out = base(mapped)
            if out == 0 and (w[1] == 1 or (w[1] >= 2 and w[0] == 1)):
                return 1
            return out + 1 if out >= 1 else 0

        rule = LocalRule(alpha, 1, fn, name="two-walls")
        L = build_markov_shift(alpha, [(0, 0), (1, 1)])
        R = full_shift(alpha, (2, 3))
        walks = subsampled_walk(rule, L, R, "left", {}, 800, 10, 31, W=0)
        assert len(walks) == 2
        assert [w for w, _, _ in walks] == [0.5, 0.5]
        for _, _, stats in walks:
            assert abs(stats.empirical_drift - (-1 / 7)) < 0.15


class TestDegenerateWalk:
    def test_gamma_walks_move_at_unit_speed(self):
        # over the alternating background the two width-0 dislocations are
        # deterministic walkers: every sampled trajectory has speed exactly 1
        gstar = zoo.gstar_shift()
        rule = from_wolfram_number(184)
        trajs, stats = sample_walks(rule, gstar, gstar, {}, 200, 12, 17, W=0)
        assert stats.excluded == 0
        assert len(trajs) == 12
        for tr in trajs:
            steps = [b - a for a, b in zip(tr, tr[1:])]
            assert set(steps) in ({1}, {-1})
        k = build_walk_kernel(rule, gstar, gstar, 0)
        drifts = sorted(c.drift for c in stationary_and_drift(k))
        assert drifts == [Fraction(-1), Fraction(1)]
