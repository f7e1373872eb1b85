import hashlib
import json
from fractions import Fraction

import pytest

from defectca import ballistic, tracking, zoo
from defectca.ballistic import classify_junctions
from defectca.errors import DefectcaError
from defectca.lattice import _block_background, apply_rule
from defectca.rules import from_wolfram_number, normalize, phi_orbit_components
from defectca.shifts import (SFT, binary_alphabet, build_markov_shift, build_sft,
                             pack_word, periodic_orbit_sft)
from oracles import gstar_shift, identity_rule, marked_cell_presentation

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


# the ECA sweep's backgrounds: G of #184, the #54 background, the #110
# ether, 0^inf, 1^inf, G* and (001)^inf
SWEEP = [("G184", zoo.eca184_background), ("B54", zoo.eca54_background),
         ("ether", zoo.eca110_ether),
         ("0", lambda: build_markov_shift(A2, [(0, 0)])),
         ("1", lambda: build_markov_shift(A2, [(1, 1)])),
         ("G*", gstar_shift),
         ("001", lambda: periodic_orbit_sft(A2, (0, 0, 1)))]
SWEEP_TYPES, SWEEP_REJECTED = 2978, 988
SWEEP_DIGEST = "6c578e646258d3e67ba1de84e6a6e239937e8672f8006098e9854f63ef0db3d2"


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
    def test_each_background_is_encoded_once_per_call(self, monkeypatch, number,
                                                      background, n_types):
        # one block encode per (sigma-cycle word, phase) background, however
        # many seeds it flanks; each seed encodes only its core
        calls = []

        def encode(coder, bg):
            calls.append(bg)
            return _block_background(coder, bg)
        monkeypatch.setattr(ballistic, "_block_background", encode)
        rule, bg = from_wolfram_number(number), background()
        types = classify_junctions(rule, bg, max_core=1)
        assert len(types) == n_types
        assert 0 < len(calls) == len(set(calls)) <= len(normalize(rule, bg).shift.usable)

    def test_the_lift_builds_admissible_prefixes_only(self, monkeypatch):
        # every word the ether's lift builds extends an admissible prefix by
        # a symbol that may follow it: 181 words, against 2^14 when every
        # word shorter than q = 14 was kept
        sft, built = zoo.eca110_ether(), []

        class Counting(dict):
            def get(self, key, default=None):
                out = dict.get(self, key, default)
                built.append(len(out))
                return out
        followers = SFT._followers
        monkeypatch.setattr(SFT, "_followers", lambda self: Counting(followers(self)))
        sys = normalize(from_wolfram_number(110), sft)
        assert sys.coder.P == sft.q == 14
        assert 0 < sum(built) <= len(sft.admissible) * sys.coder.P

    @pytest.mark.parametrize("number,background,n_types", SYSTEMS)
    def test_the_source_rule_images_each_chunk_once(self, number, background,
                                                    n_types):
        # the recoded rule images its block neighbourhoods by chunks of at
        # most ten cells (1,024 binary words), and asks the source rule for
        # each distinct chunk once: 739 times on #110, against 2,647
        # sixteen-cell words when each neighbourhood was imaged whole
        rule, calls = from_wolfram_number(number), []
        image_word = rule.image_word

        def record(word):
            calls.append(tuple(word))
            return image_word(word)
        rule.image_word = record
        types = classify_junctions(rule, background(), max_core=1)
        assert len(types) == n_types
        assert 0 < len(calls) == len(set(calls)) <= 2 ** 10
        assert all(len(word) <= 10 for word in calls)

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


class TestInvariantBackground:
    """A rule must map its background into itself: Phi(S) ⊆ S, checked on
    every admissible 4-word of the recoded shift."""

    def test_rule_that_leaves_the_shift_is_rejected(self):
        # ECA 2 maps both 010 and 101 to 0, so (01)^inf goes to 0^inf
        rule, gstar = from_wolfram_number(2), gstar_shift()
        with pytest.raises(DefectcaError, match="word 0101 to 00"):
            phi_orbit_components(rule, gstar)
        with pytest.raises(DefectcaError, match="word 0101 to 00"):
            classify_junctions(rule, gstar, max_core=1)

    def test_gstar_sweep(self, conjugacy):
        # all 256 ECAs over seven backgrounds at max_core=1 and T=64: every
        # type passes the conjugacy fixture within the radius-1 light cone,
        # and the canonical result, error texts included, hashes to a pinned
        # digest.  Over G*, an ECA preserves the shift iff it maps 010 and
        # 101 apart; a probe of one vertex per component rejects none of the
        # 128 that do not
        results, rejected, n_types = [], {}, {}
        for name, background in SWEEP:
            bg = background()
            for number in range(256):
                rule = from_wolfram_number(number)
                try:
                    types = classify_junctions(rule, bg, max_core=1, T=64)
                except DefectcaError as exc:
                    rejected.setdefault(name, set()).add(number)
                    results.append([name, number, str(exc)])
                    continue
                n_types[name] = n_types.get(name, 0) + len(types)
                sys = normalize(rule, bg) if types else None
                for t in types:
                    assert abs(t.velocity) <= 1, (name, number, t)
                    conjugacy(sys, t)
                results.append([name, number, [
                    [sorted(t.left_vertices), sorted(t.right_vertices), t.period,
                     str(t.velocity), t.width, [list(w) for w in t.defect_words],
                     [[s[0], list(s[1]), s[2]] for s in t.orbit]] for t in types]])
        assert rejected["G*"] == {n for n in range(256) if (n >> 2) & 1 == (n >> 5) & 1}
        assert n_types["G*"] == 181
        assert sum(n_types.values()) == SWEEP_TYPES
        assert sum(map(len, rejected.values())) == SWEEP_REJECTED
        digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
        assert digest == SWEEP_DIGEST
