import hashlib
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectca import diffusive
from defectca.diffusive import (
    build_walk_kernel,
    markov_property_test,
    parry_measure,
    sample_kernel_chain,
    sample_walks,
    stationary_and_drift,
    verify_resolving_system,
)
from defectca.errors import DefectcaError
from defectca.rules import (
    LocalRule,
    from_linear,
    from_wolfram_number,
    mirror,
)
from defectca.shifts import (
    Alphabet,
    binary_alphabet,
    build_markov_shift,
    entropy,
    full_shift,
    regularity,
    reverse,
    transitive_components,
    union_shift,
)
from defectca.tracking import bad_transitions, next_frame
from defectca import zoo
from oracles import cylinder, gstar_shift, identity_rule, pushforward_cylinders

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
            assert abs(p - cylinder(m, word)) < 1e-12

    def test_diffusive_rule_preserves_sea_measure(self):
        rule = zoo.diffusive_rule()
        m = parry_measure(zoo.diffusive_background())
        pushed = pushforward_cylinders(rule, m, 4)
        for word, p in pushed.items():
            assert abs(p - cylinder(m, word)) < 1e-12


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
        assert not rep.passed
        assert "L and R overlap without being equal" in rep.witnesses

    @pytest.mark.parametrize("rule,L,R,witness", [
        (from_linear(2, (1, 1, 1)), build_markov_shift(A2, [(0, 0)]),
         full_shift(A2), "L and R overlap without being equal"),
        (identity_rule(A2), golden_mean(), golden_mean(), "R is not right-regular"),
        (from_wolfram_number(1), build_markov_shift(A2, [(0, 0)]),
         build_markov_shift(A2, [(0, 0)]), "rule does not preserve R"),
        (identity_rule(A2), full_shift(A2), full_shift(A2),
         "R is not right-resolving"),
        # regular, invariant and resolving, but reducible
        (identity_rule(A2), build_markov_shift(A2, [(0, 0), (1, 1)]),
         build_markov_shift(A2, [(0, 0), (1, 1)]), "Parry measure unavailable: shift is reducible"),
        (identity_rule(A2), full_shift(A2), golden_mean(),
         "L and R share symbols but have different edges"),
    ], ids=["union", "regular", "invariant", "resolving", "parry", "shared"])
    def test_each_failure_names_its_witness(self, rule, L, R, witness):
        rep = verify_resolving_system(rule, L, R)
        assert not rep.passed
        assert any(witness in w for w in rep.witnesses), rep.witnesses


class TestWalkKernel:
    def kernel(self):
        rule = zoo.diffusive_rule()
        sea = zoo.diffusive_background()
        marked = zoo.diffusive_marked_symbols()
        return build_walk_kernel(rule, sea, sea, 1,
                                 delta_support=[(s,) for s in marked])

    def test_every_entry_is_one_quarter(self):
        k = self.kernel()
        sea = regularity(zoo.diffusive_background())
        assert sea.P_S == 2 and sea.F_S == 2
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
        gstar = gstar_shift()
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
        assert regularity(k.left).P_S == 1 and regularity(k.right).F_S == 2
        for s in k.states:
            if k.vel[s] == -1:
                assert list(k.rows[s].values()) == [Fraction(1)]
            elif k.vel[s] == 0:
                assert sorted(k.rows[s].values()) == [Fraction(1, 2)] * 2
            else:
                assert sorted(k.rows[s].values()) == [Fraction(1, 4)] * 4

    @pytest.mark.parametrize("W", [-1, 2])
    def test_unsupported_width_rejected(self, W):
        sea = zoo.diffusive_background()
        with pytest.raises(DefectcaError, match="'W' must be 0 or 1"):
            build_walk_kernel(zoo.diffusive_rule(), sea, sea, W)

    def test_defect_free_seeds_rejected(self):
        # at W=0 the marked walker's seed junction is two sea cells, which
        # never break admissibility, so no seed carries a defect
        sea = zoo.diffusive_background()
        with pytest.raises(DefectcaError, match="no seeded junction breaks"):
            build_walk_kernel(zoo.diffusive_rule(), sea, sea, 0)

    def test_delta_rejected_at_width_zero(self):
        args = (zoo.wall_rule(), zoo.wall_left_shift(), zoo.wall_right_shift())
        with pytest.raises(DefectcaError, match="'delta'"):
            build_walk_kernel(*args, 0, delta_support=[(2,)])
        with pytest.raises(DefectcaError, match="'delta'"):
            sample_walks(*args, {(2,): 1.0}, 10, 1, 0, W=0)

    def test_delta_words_must_have_width_W(self):
        sea = zoo.diffusive_background()
        with pytest.raises(DefectcaError, match="'delta' keys must be words "
                                                "of length W=1"):
            build_walk_kernel(zoo.diffusive_rule(), sea, sea, 1,
                              delta_support=[(2,), (2, 1)])


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


# Recorded with the dense rational Gauss-Jordan solver that the certified
# float solve replaced: one digest per recurrent class, in the order
# stationary_and_drift returns them.
STATIONARY_DIGESTS = [
    ("marked-W1",
     ["7069252b27e1dc0ff8012f757ecb4d7a0fcdd150e39a33dddd45b924400ae311"]),
    ("marked-W1-uniform",
     ["7069252b27e1dc0ff8012f757ecb4d7a0fcdd150e39a33dddd45b924400ae311"]),
    ("wall-W0",
     ["c7c1796a4a0b2c3defe3767f73efdbf169f3f881b32355a7ca26a6ca3ff942af"]),
    ("eca184-gstar-W0",
     ["96410cce449f768e0415174a8b89d8cae2c199906ac274cfb9db6db4115cf37c",
      "318ed4c79ad1e0128542a456a78f2f5a9011432817041c801772526c620b32a8"]),
]


def _law_digests(case):
    rule, L, R, delta, W = _walk_case(case)
    k = build_walk_kernel(rule, L, R, W, delta_support=list(delta) or None)
    digests = []
    for c in stationary_and_drift(k):
        assert all(type(p) is Fraction for p in c.stationary.values())
        assert sum(c.stationary.values()) == 1
        law = sorted((repr(s), str(p)) for s, p in c.stationary.items())
        digests.append(hashlib.sha256(repr(law).encode()).hexdigest())
    return digests


def _spy_on_elimination(monkeypatch) -> list:
    calls = []
    eliminate = diffusive._stationary_elimination

    def spy(states, rows):
        calls.append(len(states))
        return eliminate(states, rows)
    monkeypatch.setattr(diffusive, "_stationary_elimination", spy)
    return calls


class TestCertifiedSolve:
    """The float solve proposes each law and an exact check proves it; the
    sparse rational elimination runs only when the check or the solve fails."""

    @pytest.mark.parametrize("case,expected", STATIONARY_DIGESTS)
    def test_laws_match_pinned_digests_on_the_fast_path(self, case, expected,
                                                        monkeypatch):
        # a check that always failed would keep the laws right and lose the
        # speed: the fallback must not run on any zoo kernel
        calls = _spy_on_elimination(monkeypatch)
        assert _law_digests(case) == expected
        assert calls == []

    @pytest.mark.parametrize("case,expected", STATIONARY_DIGESTS[:3])
    def test_failed_check_falls_back(self, case, expected, monkeypatch):
        # every entry rounds to 0 or 1, which no law on two or more states
        # passes; ECA#184's one-state classes have the law {s: 1}, which
        # passes rightly, so that case cannot trigger the fallback this way
        monkeypatch.setattr(diffusive, "_MAX_DEN", 1)
        calls = _spy_on_elimination(monkeypatch)
        assert _law_digests(case) == expected
        assert len(calls) == len(expected)

    @pytest.mark.parametrize("case,expected", STATIONARY_DIGESTS)
    def test_singular_float_solve_falls_back(self, case, expected, monkeypatch):
        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        calls = _spy_on_elimination(monkeypatch)
        assert _law_digests(case) == expected
        assert len(calls) == len(expected)

    def test_elimination_without_a_pivot_is_an_internal_error(self):
        # two absorbing states: not one closed class, so the system is
        # singular; that is a fault in the caller, not a config error
        rows = {"a": {"a": Fraction(1)}, "b": {"b": Fraction(1)}}
        with pytest.raises(RuntimeError, match="2-state class") as info:
            diffusive._stationary_elimination(("a", "b"), rows)
        assert not isinstance(info.value, DefectcaError)


class TestMirrorSymmetry:
    """Reflecting the line swaps the sides and reverses the motion: the walk
    of (mirror(phi), reverse(R), reverse(L)) has as many states as that of
    (phi, L, R), and its drifts are the negatives of the original drifts,
    which TestStationary and TestWalkKernel pin."""

    @pytest.mark.parametrize("case,drifts,size", [
        ("wall-W0", [Fraction(-1, 7)], 8),
        ("eca184-gstar-W0", [Fraction(-1), Fraction(1)], 2),
        ("marked-W1", [Fraction(0)], 64),
    ])
    def test_mirrored_walk_drifts_are_negated(self, case, drifts, size):
        rule, L, R, delta, W = _walk_case(case)
        support = list(delta) or None
        k = build_walk_kernel(rule, L, R, W, delta_support=support)
        km = build_walk_kernel(mirror(rule), reverse(R), reverse(L), W,
                               delta_support=support)
        assert len(k.states) == len(km.states) == size
        assert sorted(-c.drift for c in stationary_and_drift(km)) == drifts


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

    @pytest.mark.parametrize("delta", [{(2,): 1.0},
                                       {(s,): 1 / 3 for s in range(3)}])
    def test_frame_jump_raises(self, delta):
        # a wall-walker seed whose frame jumps two cells left in one step;
        # the kernel reports the same jump for the state (0, 0, 2, 2, 2, 2)
        with pytest.raises(DefectcaError, match="frame moved by -2 .*not a width-2 walk"):
            sample_walks(zoo.wall_rule(), zoo.wall_left_shift(),
                         zoo.wall_right_shift(), delta, 200, 5, 0, W=1)

    @pytest.mark.parametrize("W", [-1, 2])
    def test_unsupported_width_rejected(self, W):
        sea = zoo.diffusive_background()
        with pytest.raises(DefectcaError, match="'W' must be 0 or 1"):
            sample_walks(zoo.diffusive_rule(), sea, sea, {}, 10, 1, 0, W=W)

    @pytest.mark.parametrize("delta,why", [
        ({(2, 1): 1.0}, "keys must be words of length W=1"),
        ({(2,): 0.3, (3,): 0.3}, "masses must be non-negative and sum to 1"),
        ({(2,): -0.5, (3,): 1.5}, "masses must be non-negative and sum to 1"),
        ({}, "masses must be non-negative and sum to 1"),
    ])
    def test_delta_must_be_a_law_on_width_W_words(self, delta, why):
        sea = zoo.diffusive_background()
        with pytest.raises(DefectcaError, match=f"'delta' {why}"):
            sample_walks(zoo.diffusive_rule(), sea, sea, delta, 10, 1, 0)

    @pytest.mark.parametrize("delta,why", [
        ({}, "masses must be non-negative and sum to 1"),
        ({(0,): 1.0}, "puts no mass on any state of the kernel"),
        ({(2, 3): 1.0}, "keys must be words of length W=1"),
        ({(2,): 0.7}, "masses must be non-negative and sum to 1"),
    ])
    def test_kernel_chain_checks_delta(self, delta, why):
        # the chain reads delta as sample_walks does; an unmarked middle cell
        # starts no kernel state, since the kernel was built on marked ones
        sea = zoo.diffusive_background()
        k = build_walk_kernel(zoo.diffusive_rule(), sea, sea, 1,
                              delta_support=[(s,) for s in
                                             zoo.diffusive_marked_symbols()])
        with pytest.raises(DefectcaError, match=f"'delta' {why}"):
            sample_kernel_chain(k, delta, 10, 1, 0)


def _fading_rule():
    # the marked walker, except that a mark landing between two unmarked 1s
    # fades, so some sampled defects vanish
    def fn(w):
        out = zoo._diffusive_fn(w)
        return out - 2 if out >= 2 and w[0] == 1 and w[2] == 1 else out
    return LocalRule(zoo.DIFFUSIVE_ALPHABET, 1, fn, name="fading-walker")


def _splitting_rule():
    # the marked walker, except that a marked 1 left of two unmarked 1s also
    # marks the cell right of it, so some sampled defects split in two
    def fn(w):
        out = zoo._diffusive_fn(w)
        return out | 2 if w == (3, 1, 1) else out
    return LocalRule(zoo.DIFFUSIVE_ALPHABET, 1, fn, name="splitting-walker")


def _walk_case(name):
    """(rule, L, R, delta, W) of a named sampler input."""
    sea = zoo.diffusive_background()
    marked = _uniform_marked_delta()
    wall = (zoo.wall_rule(), zoo.wall_left_shift(), zoo.wall_right_shift())
    gstar = gstar_shift()
    return {
        "marked-W1": (zoo.diffusive_rule(), sea, sea, marked, 1),
        "marked-W1-uniform": (zoo.diffusive_rule(), sea, sea,
                              {(s,): 0.25 for s in range(4)}, 1),
        "marked-W0": (zoo.diffusive_rule(), sea, sea, {}, 0),
        "wall-W0": (*wall, {}, 0),
        "wall-W1-uniform": (*wall, {(s,): 1 / 3 for s in range(3)}, 1),
        "eca184-gstar-W0": (from_wolfram_number(184), gstar, gstar, {}, 0),
        "fading-W1": (_fading_rule(), sea, sea, marked, 1),
        "splitting-W1": (_splitting_rule(), sea, sea, marked, 1),
    }[name]


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _sorted_rows(counts):
    # dict insertion order is not part of the contract
    return sorted((s, sorted(row.items())) for s, row in counts.items())


def _outcome(run):
    try:
        return run()
    except DefectcaError as exc:
        return f"error: {exc}"


# Recorded before the sampler loop was rewritten around its fixed window:
# trajectories, counts and errors must not move.
SAMPLE_WALKS_DIGESTS = [
    # (case, T, n, seed, digest or error)
    ("marked-W1", 400, 6, 0,
     "44dd229135fcf59816a840235ca47dc612adfe739bad5b94c4e915a6c274d8ea"),
    ("marked-W1", 400, 6, 1,
     "af09c334f8e80aaa517b9efb9dba37bfbfedc0e1834978d0d78250d3b8dd67ec"),
    ("marked-W1-uniform", 400, 6, 0,
     "e34f99b37adbffb961276ae32fe6e02617333a28904b19b41426f8237dc467d1"),
    ("marked-W0", 50, 2, 0,
     "error: no seeded junction breaks admissibility; no defect to track"),
    ("wall-W0", 400, 6, 0,
     "8f115b2f52ad7de29c18a7af0d7d60abbc346d55784d88dbb1f3ad972a824fc7"),
    ("wall-W1-uniform", 50, 5, 0,
     "error: frame moved by -2 at step 0 of sample 1; not a width-2 walk"),
    ("eca184-gstar-W0", 400, 6, 0,
     "c475104d5d07725a45db845a3e3352fe94c789f06271d89a8f737a65cb822f9a"),
    ("fading-W1", 4, 4, 0,
     "db492e02a0997c4e576aa5a620f820456aaee50aa8583c49ecafd18118b68341"),
    ("fading-W1", 4, 4, 1,
     "error: 2 of 4 samples vanished or split; "
     "the system is not behaving as a persistent walk"),
]
KERNEL_CHAIN_DIGESTS = [
    ("marked-W1", 400, 6, 0,
     "94e2e0c2d1eb1f17ad086c645b163aa4159fdead2c5a29e06992b1fd096c9ead"),
    ("marked-W1-uniform", 400, 6, 0,
     "94e2e0c2d1eb1f17ad086c645b163aa4159fdead2c5a29e06992b1fd096c9ead"),
    ("marked-W0", 400, 6, 0,
     "error: no seeded junction breaks admissibility; no defect to track"),
    ("wall-W0", 400, 6, 0,
     "61cd8d9d3102169ee71c8a5d77c5d8b838eae1a997f241d29433c08d1da6d67a"),
    ("eca184-gstar-W0", 400, 6, 0,
     "e665dcfb5324e369beb40efe96a73d2e6392b19bfe17cec4bfa709f64290f2ed"),
]


class TestSamplerDigests:
    @pytest.mark.parametrize("case,T,n,seed,expected", SAMPLE_WALKS_DIGESTS)
    def test_sample_walks(self, case, T, n, seed, expected):
        rule, L, R, delta, W = _walk_case(case)

        def run():
            trajs, st = sample_walks(rule, L, R, delta, T, n, seed, W=W)
            return _digest(trajs, st.excluded, st.empirical_drift,
                           st.variance_per_step,
                           _sorted_rows(st.transition_counts),
                           _sorted_rows(st.pair_counts))
        assert _outcome(run) == expected

    @pytest.mark.parametrize("case,T,n,seed,expected", KERNEL_CHAIN_DIGESTS)
    def test_sample_kernel_chain(self, case, T, n, seed, expected):
        rule, L, R, delta, W = _walk_case(case)

        def run():
            k = build_walk_kernel(rule, L, R, W,
                                  delta_support=list(delta) or None)
            trajs, counts = sample_kernel_chain(k, delta, T, n, seed)
            return _digest(trajs, _sorted_rows(counts))
        assert _outcome(run) == expected

    @pytest.mark.parametrize("T,n,bad", [(0, 3, "T must be >= 1, got 0"),
                                         (-2, 3, "T must be >= 1, got -2"),
                                         (5, 0, "n must be >= 1, got 0")])
    def test_empty_runs_rejected(self, T, n, bad):
        rule, L, R, delta, W = _walk_case("marked-W1")
        k = build_walk_kernel(rule, L, R, W, delta_support=list(delta))
        with pytest.raises(DefectcaError, match=bad):
            sample_walks(rule, L, R, delta, T, n, 0, W=W)
        with pytest.raises(DefectcaError, match=bad):
            sample_kernel_chain(k, delta, T, n, 0)

    def test_kernel_chain_names_the_state_that_leaves_the_kernel(self):
        # a fading mark leaves a state whose defect vanishes: it has no row
        rule, L, R, delta, W = _walk_case("fading-W1")
        k = build_walk_kernel(rule, L, R, W, delta_support=list(delta))
        with pytest.raises(DefectcaError, match=r"reached state "
                           r"\(1, 1, 2, 1, 0, 0\), which has no kernel row"):
            sample_kernel_chain(k, delta, 50, 20, 0)


def _ref_choose(law, u):
    """The plainest draw from (symbol, mass) pairs: the first symbol whose
    running sum exceeds u, or the last symbol when none does."""
    acc = 0.0
    for sym, p in law:
        acc += p
        if u < acc:
            return sym
    return law[-1][0]


def _ref_tally(counts, keys, nexts):
    for key, nxt in zip(keys, nexts):
        row = counts.setdefault(key, {})
        row[nxt] = row.get(nxt, 0) + 1


def _ref_sample_walks(rule, L, R, delta, T, n, seed, W):
    """(trajectories, excluded, transition counts, pair counts) the plain
    way: a running-sum draw per uniform of the (seed, i) stream, every
    transition of every image scanned by next_frame, and counts keyed by
    state tuples.  Raises the errors sample_walks raises."""
    report = verify_resolving_system(rule, L, R)
    lam, rho = report.lam, report.rho
    edges = union_shift(L, R).edges
    draws = [(0, sorted(lam.initial.items())), (1 + W, sorted(rho.initial.items()))]
    if W == 1:
        draws = [(1, [(w[0], p) for w, p in sorted(delta.items())])] + draws[::-1]
    trajectories, counts, pair_counts = [], {}, {}
    for i in range(n):
        rng = np.random.default_rng([seed, i])
        stream = (u for _ in iter(int, 1) for u in rng.random(4096).tolist())

        def grow(cells, left, right):
            cells = list(cells)
            for _ in range(left):
                cells.insert(0, _ref_choose(lam.backward_row(cells[0]), next(stream)))
            for _ in range(right):
                cells.append(_ref_choose(rho.forward_row(cells[-1]), next(stream)))
            return cells

        for _ in range(10_000):
            cells = [0] * (W + 2)
            for j, law in draws:
                cells[j] = _ref_choose(law, next(stream))
            if bad_transitions(cells, edges):
                break
        else:
            raise DefectcaError("no seeded junction breaks admissibility; "
                                "no defect to track")
        cells = grow(cells, 8 - W, 8)
        zs, states = [0], []
        for t in range(T):
            img = rule.image_word(tuple(grow(cells, 2, 2)))
            v = next_frame(img, edges, -9)
            if isinstance(v, str):
                break
            if abs(v) > 1:
                raise DefectcaError(f"frame moved by {v} at step {t} of "
                                    f"sample {i}; not a width-2 walk")
            zs.append(zs[-1] + v)
            states.append(img[v + 7:v + 13])
            cells = img[v + 1:v + 19]
        else:
            trajectories.append(zs)
        _ref_tally(counts, states, states[1:])
        _ref_tally(pair_counts, zip(states, states[1:]), states[2:])
        excluded = i + 1 - len(trajectories)
        if excluded > max(1, diffusive.MAX_EXCLUDED_FRAC * n) or excluded == n:
            raise DefectcaError(
                f"{excluded} of {i + 1} samples vanished or split; "
                "the system is not behaving as a persistent walk")
    return trajectories, n - len(trajectories), counts, pair_counts


class TestSamplerOracle:
    """sample_walks against :func:`_ref_sample_walks` on every named input:
    the buffered inverse-CDF draws, the light-cone scan and the integer
    tallies change no trajectory, count or error."""

    @given(st.sampled_from(["marked-W1", "marked-W1-uniform", "marked-W0",
                            "wall-W0", "wall-W1-uniform", "eca184-gstar-W0",
                            "fading-W1", "splitting-W1"]),
           st.integers(1, 60), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example("wall-W1-uniform", 50, 5, 0)  # the frame jumps two cells
    @example("fading-W1", 4, 4, 1)  # too many samples vanish
    @example("fading-W1", 4, 4, 0)  # one sample vanishes
    @example("splitting-W1", 5, 6, 4)  # one sample splits
    @example("marked-W1", 2000, 3, 7)  # memoised windows recur across samples
    @example("fading-W1", 4, 4, 20)  # the second vanishing reads a stored one
    @settings(max_examples=80, deadline=None)
    def test_sample_walks_matches_reference(self, case, T, n, seed):
        rule, L, R, delta, W = _walk_case(case)

        def run():
            trajs, st = sample_walks(rule, L, R, delta, T, n, seed, W=W)
            return trajs, st.excluded, st.transition_counts, st.pair_counts
        want = _outcome(lambda: _ref_sample_walks(rule, L, R, delta, T, n, seed, W))
        assert _outcome(run) == want

    @pytest.mark.parametrize("law", [
        [(s, 0.1) for s in range(10)],  # sums to 1 - 2**-53
        [(0, 0.7), (1, 0.1), (2, 0.1), (3, 0.1)],
        [(0, 0.5), (1, 0.5)],
    ])
    def test_u_at_or_above_the_rounded_last_sum_draws_the_last_symbol(self, law):
        total = 0.0
        for _, p in law:
            total += p
        syms, cum = diffusive._inverse_cdf(law)
        for u in (total, math.nextafter(total, math.inf)):
            assert syms[bisect_right(cum, u)] == _ref_choose(law, u) == law[-1][0]

    def test_zero_mass_entries_are_never_drawn(self):
        law = [(0, 0.0), (1, 0.25), (2, 0.0), (3, 0.0), (4, 0.75)]
        syms, cum = diffusive._inverse_cdf(law)
        us = [0.0, 0.25, math.nextafter(0.25, 0), math.nextafter(0.25, 1),
              math.nextafter(1.0, 0)] + np.random.default_rng(5).random(2000).tolist()
        drawn = [syms[bisect_right(cum, u)] for u in us]
        assert drawn == [_ref_choose(law, u) for u in us]
        assert set(drawn) == {1, 4}


class TestScanCost:
    def test_walk_scans_the_light_cone_not_the_window(self, monkeypatch):
        # each image has 19 transitions; the marked walker's run is the two
        # transitions around its mark, whose light cone holds four
        tests = Counter()

        class CountingEdges(frozenset):
            def __contains__(self, pair):
                tests["edges"] += 1
                return frozenset.__contains__(self, pair)

        def union(L, R):
            return SimpleNamespace(edges=CountingEdges(union_shift(L, R).edges))
        monkeypatch.setattr(diffusive, "union_shift", union)
        T, n = 200, 4
        trajs, _ = sample_walks(zoo.diffusive_rule(), zoo.diffusive_background(),
                                zoo.diffusive_background(), _uniform_marked_delta(),
                                T, n, 3)
        assert len(trajs) == n
        assert 0 < tests["edges"] <= 5 * n * T


class TestSamplerCost:
    def test_walk_images_each_half_window_once(self):
        # a step images its 22 cells as two 12-cell halves, each memoised
        # for the call; the marked walker has 4096 of each, so about 8200
        # image_word calls serve the n * T = 40000 steps, not one per step
        rule = zoo.diffusive_rule()
        calls = Counter()
        image_word = rule.image_word

        def counting(word):
            calls["image_word"] += 1
            return image_word(word)
        rule.image_word = counting
        T, n = 10_000, 4
        trajs, _ = sample_walks(rule, zoo.diffusive_background(),
                                zoo.diffusive_background(), _uniform_marked_delta(),
                                T, n, 3)
        assert len(trajs) == n
        assert 0 < calls["image_word"] <= 10_000


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
        gstar = gstar_shift()
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
    """Walks with one frozen side: the side is pointwise fixed by sigma and
    the rule, so each of its fixed points is one walk component, sampled
    from the junction of the two backgrounds (W=0) with seed ``seed + j``."""

    def test_wall_walk_with_frozen_side(self):
        L = zoo.wall_left_shift()
        assert len(transitive_components(L)) == 1
        _, stats = sample_walks(zoo.wall_rule(), L, zoo.wall_right_shift(), {},
                                1500, 20, 21, W=0)
        assert abs(stats.empirical_drift - (-1 / 7)) < 0.1

    def test_wall_walk_frozen_on_the_right(self):
        # the mirrored wall walker: the wall is the right side, and the
        # drift changes sign
        rule = mirror(zoo.wall_rule())
        L, R = reverse(zoo.wall_right_shift()), reverse(zoo.wall_left_shift())
        k = build_walk_kernel(rule, L, R, 0)
        assert [c.drift for c in stationary_and_drift(k)] == [Fraction(1, 7)]
        assert len(transitive_components(R)) == 1
        _, stats = sample_walks(rule, L, R, {}, 1500, 20, 21, W=0)
        assert abs(stats.empirical_drift - 1 / 7) < 0.1

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
        comps = transitive_components(L)
        assert len(comps) == 2
        for j, comp in enumerate(comps):
            _, stats = sample_walks(rule, comp, R, {}, 800, 10, 31 + j, W=0)
            assert abs(stats.empirical_drift - (-1 / 7)) < 0.15


class TestDegenerateWalk:
    def test_gamma_walks_move_at_unit_speed(self):
        # over the alternating background the two width-0 dislocations are
        # deterministic walkers: every sampled trajectory has speed exactly 1
        gstar = gstar_shift()
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
