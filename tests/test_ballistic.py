from fractions import Fraction

import pytest

from defectca.ballistic import (
    build_kinematic_system,
    build_periodic_code,
    classify_junctions,
    enumerate_particle_types,
    marked_cell_presentation,
    verify_conjugacy,
)
from defectca.errors import DefectcaError
from defectca.lattice import encode_config, periodic_config
from defectca.rules import from_wolfram_number, identity_rule, normalize, phi_orbit_components
from defectca.shifts import (
    binary_alphabet,
    build_markov_shift,
    build_sft,
    full_shift,
    pack_word,
)
from defectca.tracking import DefectAutomaton, extract_automaton

A2 = binary_alphabet()
G3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]
B_WORDS = sorted({tuple(w[(i + k) % 4] for i in range(4))
                  for w in ((0, 0, 1, 0), (1, 1, 0, 1)) for k in range(4)})


def gstar():
    return build_markov_shift(A2, [(0, 1), (1, 0)])


def gamma_plus_config():
    return periodic_config(A2, (0, 1), (), (0, 1), left_phase=1, right_phase=0)


def gamma_minus_config():
    return periodic_config(A2, (0, 1), (), (0, 1), left_phase=0, right_phase=1)


class TestPeriodicCode:
    def test_gstar_code_under_184(self):
        code = build_periodic_code(gstar(), from_wolfram_number(184))
        assert sorted(code.sigma) == [0, 1]
        assert code.sigma == {0: 1, 1: 0}
        assert code.phi == {0: 1, 1: 0}

    def test_fixed_point_code(self):
        loop = build_markov_shift(A2, [(0, 0)])
        code = build_periodic_code(loop, from_wolfram_number(184))
        assert code.sigma == {0: 0} and code.phi == {0: 0}

    def test_54_background_code_matches_printed_cycles(self):
        sys = normalize(from_wolfram_number(54), build_sft(A2, 4, B_WORDS))
        group, = phi_orbit_components(sys.rule, sys.shift)
        code = build_periodic_code(group, sys.rule)
        word = lambda bits: pack_word(A2, tuple(int(c) for c in bits))
        sigma_expected = {
            "0001": "0010", "0010": "0100", "0100": "1000", "1000": "0001",
            "1110": "1101", "1101": "1011", "1011": "0111", "0111": "1110",
        }
        phi_expected = {
            "0001": "1011", "1011": "0100", "0100": "1110", "1110": "0001",
            "0010": "0111", "0111": "1000", "1000": "1101", "1101": "0010",
        }
        assert code.sigma == {word(a): word(b) for a, b in sigma_expected.items()}
        assert code.phi == {word(a): word(b) for a, b in phi_expected.items()}

    def test_positive_entropy_rejected(self):
        with pytest.raises(DefectcaError):
            build_periodic_code(full_shift(A2), from_wolfram_number(184))

    def test_disconnected_union_rejected(self):
        two_loops = build_markov_shift(A2, [(0, 0), (1, 1)])
        with pytest.raises(DefectcaError):
            build_periodic_code(two_loops, from_wolfram_number(204))

    def test_background_anchoring(self):
        code = build_periodic_code(gstar(), from_wolfram_number(184))
        bg = code.background(1, anchor=-3)
        assert bg.cell(-3) == 1 and bg.cell(-4) == 0 and bg.cell(-2) == 0


class TestKinematicPruning:
    """States whose forward orbit leaves the observed table are dropped."""

    @staticmethod
    def make(nxt):
        # a width-2 defect (L=0, R=1) between two copies of the fixed point 0
        rule = identity_rule(A2)
        code = build_periodic_code(build_markov_shift(A2, [(0, 0)]), rule)
        keys = {d: ((0, 0), d, (0, 0)) for d in nxt}
        aut = DefectAutomaton(0, 1, {keys[d]: e for d, e in nxt.items()},
                              {keys[d]: 0 for d in nxt})
        return build_kinematic_system(rule, code, code, aut)

    def test_orbits_leaving_the_table_are_pruned(self):
        # 11 is a fixed point; the successor 01 of 10 was never observed;
        # 00 -> 10 -> 01 leaves the table after two steps
        system = self.make({(1, 1): (1, 1), (1, 0): (0, 1), (0, 0): (1, 0)})
        kept = (0, (1, 1), 0)
        assert system.states == (kept,)
        assert system.xi == {kept: kept}
        assert system.vel == {kept: 0}

    def test_nothing_surviving_is_rejected(self):
        with pytest.raises(DefectcaError, match="no kinematic states survive"):
            self.make({(1, 0): (0, 1), (0, 0): (1, 0)})


class TestKinematicSystem184:
    def make(self, seeds):
        rule = from_wolfram_number(184)
        aut = extract_automaton(rule, gstar(), seeds, 40)
        code = build_periodic_code(gstar(), rule)
        return build_kinematic_system(rule, code, code, aut)

    def test_gamma_system_is_identity(self):
        system = self.make([gamma_plus_config(), gamma_minus_config()])
        assert all(system.xi[s] == s for s in system.states)
        types, transients = enumerate_particle_types(system)
        assert transients == {}
        vels = sorted(t.velocity for t in types)
        assert vels == [Fraction(-1), Fraction(1)]
        assert all(t.period == 1 for t in types)

    def test_conjugacy_over_one_period(self):
        system = self.make([gamma_plus_config(), gamma_minus_config()])
        types, _ = enumerate_particle_types(system)
        for t in types:
            assert verify_conjugacy(system, t, gstar())
        # gamma+ alone is one orbit moving right at unit speed
        system = self.make([gamma_plus_config()])
        (t,), _ = enumerate_particle_types(system)
        assert t.velocity == 1
        assert verify_conjugacy(system, t, gstar())


class TestKinematicSystem54:
    def make(self):
        sys = normalize(from_wolfram_number(54), build_sft(A2, 4, B_WORDS))
        group, = phi_orbit_components(sys.rule, sys.shift)
        code = build_periodic_code(group, sys.rule)
        gp = periodic_config(A2, (0, 0, 1, 0), (), (1, 1, 0, 1),
                             left_phase=0, right_phase=3)
        gm = periodic_config(A2, (0, 0, 1, 0), (0,), (1, 1, 0, 1),
                             left_phase=0, right_phase=1)
        seeds = [encode_config(sys.coder, gp), encode_config(sys.coder, gm)]
        aut = extract_automaton(sys.rule, sys.shift, seeds, 40)
        return sys, build_kinematic_system(sys.rule, code, code, aut)

    def test_two_period_two_orbits(self):
        sys, system = self.make()
        types, _ = enumerate_particle_types(system)
        assert sorted(t.velocity for t in types) == [Fraction(-1), Fraction(1)]
        assert all(t.period == 2 for t in types)

    def test_member_triples(self):
        sys, system = self.make()
        group, = phi_orbit_components(sys.rule, sys.shift)
        types, _ = enumerate_particle_types(system)
        bits = lambda s: tuple(int(c) for c in s)
        expected = {
            1: {(bits("0001"), (0,), bits("1110")),
                (bits("0111"), (0,), bits("0010"))},
            -1: {(bits("1000"), (1,), bits("1101")),
                 (bits("1110"), (1,), bits("0001"))},
        }
        for t in types:
            got = set()
            for state in t.orbit:
                cfg = system.state_config(state)
                got.add(marked_cell_presentation(cfg, group, sys.coder))
            assert got == expected[int(t.velocity)]

    def test_conjugacy(self):
        sys, system = self.make()
        types, _ = enumerate_particle_types(system)
        for t in types:
            assert verify_conjugacy(system, t, sys.shift)


class TestIdentityRuleSystem:
    def test_xi_equals_upsilon(self):
        rule = identity_rule(A2)
        loop = build_markov_shift(A2, [(0, 0)])
        cfg = periodic_config(A2, (0,), (1,), (0,))
        aut = extract_automaton(rule, loop, [cfg], 10)
        code = build_periodic_code(loop, rule)
        system = build_kinematic_system(rule, code, code, aut)
        types, _ = enumerate_particle_types(system)
        assert all(t.period == 1 and t.velocity == 0 for t in types)


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
