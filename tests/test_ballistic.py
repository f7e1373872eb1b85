from fractions import Fraction

import pytest

from defectca import tracking, zoo
from defectca.ballistic import classify_junctions, marked_cell_presentation
from defectca.errors import DefectcaError
from defectca.lattice import apply_rule
from defectca.rules import from_wolfram_number, identity_rule, normalize, phi_orbit_components
from defectca.shifts import binary_alphabet, build_markov_shift, build_sft, pack_word

A2 = binary_alphabet()
G3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]
B_WORDS = sorted({tuple(w[(i + k) % 4] for i in range(4))
                  for w in ((0, 0, 1, 0), (1, 1, 0, 1)) for k in range(4)})


class TestKinematicSystem54:
    @staticmethod
    def make():
        # the gamma dislocations are the period-2 junction types
        rule, bg = from_wolfram_number(54), build_sft(A2, 4, B_WORDS)
        gammas = [t for t in classify_junctions(rule, bg, max_core=1) if t.period == 2]
        return normalize(rule, bg), gammas

    def test_two_period_two_orbits(self):
        _, types = self.make()
        assert sorted(t.velocity for t in types) == [Fraction(-1), Fraction(1)]

    def test_member_triples(self, conjugacy):
        sys, types = self.make()
        group, = phi_orbit_components(sys.rule, sys.shift)
        bits = lambda s: tuple(int(c) for c in s)
        expected = {
            1: {(bits("0001"), (0,), bits("1110")),
                (bits("0111"), (0,), bits("0010"))},
            -1: {(bits("1000"), (1,), bits("1101")),
                 (bits("1110"), (1,), bits("0001"))},
        }
        for t in types:
            got = {marked_cell_presentation(cfg, group, sys.coder)
                   for cfg, _ in conjugacy(sys, t)}
            assert got == expected[int(t.velocity)]

    def test_conjugacy(self, conjugacy):
        sys, types = self.make()
        for t in types:
            for _, steps in conjugacy(sys, t):
                assert steps == [t.velocity] * t.period


class TestIdentityRuleSystem:
    def test_every_type_is_a_fixed_point_at_rest(self, conjugacy):
        # the identity rule moves nothing: each defect word up to two cells
        # over the fixed point 0 is its own particle type
        rule, loop = identity_rule(A2), build_markov_shift(A2, [(0, 0)])
        types = classify_junctions(rule, loop, max_core=2)
        assert [t.defect_words for t in types] == [((1,),), ((1, 1),)]
        assert all(t.period == 1 and t.velocity == 0 for t in types)
        for t in types:
            conjugacy(normalize(rule, loop), t)


class TestClassify184:
    def test_seven_particle_types(self):
        # pure junction seeds: junk cores additionally produce compound bound
        # states (equal-velocity pairs that never separate), which the seven
        # canonical rows exclude
        types = classify_junctions(from_wolfram_number(184), build_sft(A2, 3, G3),
                                   max_core=0, T=48)
        v = lambda *bits: frozenset({pack_word(A2, b) for b in bits})
        G0, G1, GS = v((0, 0, 0)), v((1, 1, 1)), v((0, 1, 0), (1, 0, 1))
        expected = {
            (GS, G1, ((0, 1, 1),), Fraction(-1)),   # alpha-
            (GS, G0, ((1, 0, 0),), Fraction(1)),    # alpha+
            (G1, GS, ((1, 1, 0),), Fraction(-1)),   # omega-
            (G0, GS, ((0, 0, 1),), Fraction(1)),    # omega+
            (GS, GS, ((0, 1, 1, 0),), Fraction(-1)),  # gamma-
            (GS, GS, ((1, 0, 0, 1),), Fraction(1)),   # gamma+
            (G0, G1, ((0, 0, 1, 1),), Fraction(0)),   # beta
        }
        got = {(t.left_vertices, t.right_vertices, t.defect_words, t.velocity)
               for t in types}
        assert got == expected
        assert all(t.period == 1 for t in types)
        assert len(types) == 7


SYSTEMS = [(184, zoo.eca184_background, 11), (54, zoo.eca54_background, 3),
           (110, zoo.eca110_ether, 5)]


class TestClassifyRecurrence:
    @pytest.mark.parametrize("number,background,n_types", SYSTEMS[1:])
    def test_types_do_not_depend_on_the_horizon(self, number, background, n_types):
        # every seed of these systems repeats its state by step 12, and each
        # type has a seed that repeats by step 8
        rule, bg = from_wolfram_number(number), background()
        types = classify_junctions(rule, bg, max_core=1)
        assert len(types) == n_types
        assert classify_junctions(rule, bg, max_core=1, T=8) == types

    @pytest.mark.parametrize("number,background,n_types", SYSTEMS)
    def test_no_seed_is_stepped_past_its_first_repeat(self, monkeypatch, number,
                                                      background, n_types):
        # steps[i] counts the steps the i-th seed walks, each a lookup in the
        # call's step memo or a rule application on the memo's miss; the cap
        # T is 64, and the slowest seed, on #110, repeats at step 12
        steps = []

        def walk(self, config, T, _walk=tracking._Stepper.walk):
            steps.append(0)
            for n, item in enumerate(_walk(self, config, T)):
                steps[-1] = n
                yield item
        monkeypatch.setattr(tracking._Stepper, "walk", walk)
        types = classify_junctions(from_wolfram_number(number), background(),
                                   max_core=1)
        assert len(types) == n_types
        assert 0 < max(steps) <= 16

    @pytest.mark.parametrize("number,background,n_types,bound",
                             [(*s, b) for s, b in zip(SYSTEMS, (44, 195, 720))])
    def test_each_configuration_is_stepped_once_per_call(self, monkeypatch, number,
                                                         background, n_types, bound):
        # the seeds share one step memo, so the rule is applied once per
        # configuration met up to translation: 44, 195 and 720 times here,
        # against 68, 518 and 2,582 when each seed stepped on its own
        calls = []

        def step(rule, cfg):
            calls.append(cfg)
            return apply_rule(rule, cfg)
        monkeypatch.setattr(tracking, "apply_rule", step)
        types = classify_junctions(from_wolfram_number(number), background(),
                                   max_core=1)
        assert len(types) == n_types
        assert 0 < len(calls) <= bound

    @pytest.mark.parametrize("number,background,n_types", SYSTEMS)
    def test_every_type_matches_direct_stepping(self, conjugacy, number, background,
                                                n_types):
        rule, bg = from_wolfram_number(number), background()
        types = classify_junctions(rule, bg, max_core=1)
        assert len(types) == n_types
        for t in types:
            conjugacy(normalize(rule, bg), t)

    def test_negative_horizon_is_rejected(self):
        with pytest.raises(DefectcaError, match="T must be >= 0"):
            classify_junctions(from_wolfram_number(184), zoo.eca184_background(), T=-1)
