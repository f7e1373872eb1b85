import math

import pytest
from hypothesis import given, settings, strategies as st

from defectca.errors import EmptySubshiftError, NoChoicePointError
from defectca.shifts import (
    Alphabet,
    binary_alphabet,
    build_markov_shift,
    build_sft,
    choice_point,
    cycle_shift,
    entropy,
    equal_length_cycles,
    full_shift,
    higher_block,
    higher_power,
    is_cycle_union,
    map_cycles,
    markov_presentation,
    pack_word,
    period_of,
    periodic_orbit_sft,
    regularity,
    sft_to_markov,
    transitive_components,
    unpack_word,
)

A2 = binary_alphabet()


def golden_mean():
    # forbid the word 11
    return build_markov_shift(A2, [(0, 0), (0, 1), (1, 0)])


def gstar():
    # the 2-cycle 0 <-> 1
    return build_markov_shift(A2, [(0, 1), (1, 0)])


def count_words(shift, n):
    # brute-force admissible word count, independent of entropy()
    return len(shift.words(n))


class TestBuildMarkovShift:
    def test_two_cycle(self):
        s = gstar()
        assert s.usable == frozenset({0, 1})
        assert s.is_admissible((0, 1, 0, 1))
        assert not s.is_admissible((0, 0))

    def test_full_shift_nothing_pruned(self):
        s = full_shift(A2)
        assert len(s.edges) == 4

    def test_prunes_vertex_without_out_edge(self):
        # vertex 2 has an in-edge but no out-edge; removal must cascade
        a3 = Alphabet(("0", "1", "2"))
        s = build_markov_shift(a3, [(0, 1), (1, 0), (0, 2)])
        assert s.usable == frozenset({0, 1})

    def test_prune_cascades_to_empty(self):
        a3 = Alphabet(("a", "b", "c"))
        with pytest.raises(EmptySubshiftError):
            build_markov_shift(a3, [(0, 1), (1, 2)])

    def test_empty_word_admissible(self):
        assert gstar().is_admissible(())


class TestSftToMarkov:
    def test_golden_mean_q2_is_identity(self):
        sft = build_sft(A2, 2, [(0, 0), (0, 1), (1, 0)])
        shift, coder = sft_to_markov(sft)
        assert coder.P == 1
        assert shift.edges == golden_mean().edges

    def test_eca184_background_has_three_components(self):
        g3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]
        sft = build_sft(A2, 3, g3)
        shift, coder = markov_presentation(sft, P=3)
        comps = transitive_components(shift)
        assert len(comps) == 3
        vertex_sets = [frozenset(coder.unpack(v) for v in c.usable) for c in comps]
        assert frozenset({(0, 0, 0)}) in vertex_sets
        assert frozenset({(1, 1, 1)}) in vertex_sets
        assert frozenset({(0, 1, 0), (1, 0, 1)}) in vertex_sets

    def test_full_shift_radius2_is_de_bruijn(self):
        sft = build_sft(A2, 2, [(a, b) for a in (0, 1) for b in (0, 1)])
        shift, coder = sft_to_markov(sft)
        assert len(shift.edges) == 4 and coder.P == 1

    def test_minimal_presentation_of_radius3(self):
        g3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]
        shift, coder = sft_to_markov(build_sft(A2, 3, g3))
        assert coder.P == 2
        assert len(transitive_components(shift)) == 3


class TestHigherBlock:
    def test_gstar_p2(self):
        shift, coder = higher_block(gstar(), 2)
        v01 = pack_word(A2, (0, 1))
        v10 = pack_word(A2, (1, 0))
        assert shift.usable == frozenset({v01, v10})
        assert shift.edges == frozenset({(v01, v10), (v10, v01)})

    def test_full_shift_p3_de_bruijn(self):
        shift, _ = higher_block(full_shift(A2), 3)
        assert len(shift.usable) == 8
        assert len(shift.edges) == 16

    def test_p1_identity(self):
        shift, coder = higher_block(gstar(), 1)
        assert shift is gstar() or shift.edges == gstar().edges
        assert coder.P == 1

    def test_word_round_trip(self):
        shift, coder = higher_block(golden_mean(), 3)
        for w in golden_mean().words(6):
            assert coder.decode_word(coder.encode_word(w)) == w
            assert shift.is_admissible(coder.encode_word(w))


class TestHigherPower:
    def test_full_2_shift_w2_is_full_4_shift(self):
        shift, _ = higher_power(full_shift(A2), 2)
        assert len(shift.usable) == 4
        assert len(shift.edges) == 16

    def test_gstar_w2_two_fixed_points(self):
        # (01)(01) is admissible, (01)(10) is not: each vertex only self-loops
        shift, _ = higher_power(gstar(), 2)
        v01 = pack_word(A2, (0, 1))
        v10 = pack_word(A2, (1, 0))
        assert shift.edges == frozenset({(v01, v01), (v10, v10)})

    def test_w1_identity(self):
        shift, coder = higher_power(golden_mean(), 1)
        assert shift.edges == golden_mean().edges
        assert coder.P == 1

    def test_power_word_round_trip(self):
        _, coder = higher_power(full_shift(A2), 3)
        w = (0, 1, 1, 0, 0, 0)
        assert coder.decode_word(coder.encode_word(w)) == w


class TestRegularity:
    def test_full_shift(self):
        rep = regularity(full_shift(A2))
        assert rep.left_regular and rep.P_S == 2
        assert rep.right_regular and rep.F_S == 2

    def test_singleton(self):
        rep = regularity(build_markov_shift(A2, [(0, 0)]))
        assert rep.P_S == 1 and rep.F_S == 1

    def test_golden_mean_not_right_regular(self):
        s = golden_mean()
        assert s.followers(0) == (0, 1)
        assert s.followers(1) == (0,)
        rep = regularity(s)
        assert not rep.right_regular and rep.F_S is None
        assert not rep.left_regular


class TestEntropy:
    def test_full_shift(self):
        assert entropy(full_shift(A2)) == 1.0

    def test_gstar_exact_zero(self):
        assert entropy(gstar()) == 0.0

    def test_golden_mean(self):
        expected = math.log2((1 + math.sqrt(5)) / 2)
        assert abs(entropy(golden_mean()) - expected) < 1e-11

    def test_golden_mean_against_word_counts(self):
        # independent oracle: growth rate of admissible word counts
        s = golden_mean()
        ratio = count_words(s, 26) / count_words(s, 25)
        assert abs(entropy(s) - math.log2(ratio)) < 1e-4


class TestChoicePoint:
    def test_full_shift(self):
        assert choice_point(full_shift(A2)) == 0

    def test_gstar_none(self):
        assert choice_point(gstar()) is None

    def test_golden_mean(self):
        assert choice_point(golden_mean()) == 0


class TestEqualLengthCycles:
    def test_full_shift(self):
        P, c0, c1 = equal_length_cycles(full_shift(A2))
        assert (P, c0, c1) == (2, (0, 0), (0, 1))

    def test_golden_mean(self):
        P, c0, c1 = equal_length_cycles(golden_mean())
        assert (P, c0, c1) == (2, (0, 0), (0, 1))

    def test_lcm_of_2_and_3(self):
        # one vertex starting cycles of lengths 2 and 3 only
        a = Alphabet(("a", "b", "c"))
        s = build_markov_shift(a, [(0, 1), (1, 0), (0, 2), (2, 1)])
        # cycles at 0: (0,1) and (0,2,1)
        P, c0, c1 = equal_length_cycles(s)
        assert P == 6
        assert c0 == (0, 1) * 3
        assert c1 == (0, 2, 1) * 2

    def test_zero_entropy_raises(self):
        with pytest.raises(NoChoicePointError):
            equal_length_cycles(gstar())

    def test_output_properties(self):
        for s in (full_shift(A2), golden_mean()):
            P, c0, c1 = equal_length_cycles(s)
            assert len(c0) == len(c1) == P and c0 != c1
            assert c0[0] == c1[0]
            for c in (c0, c1):
                assert s.is_admissible(c + c)


class TestComponentsAndPeriod:
    def test_two_loops(self):
        s = build_markov_shift(A2, [(0, 0), (1, 1)])
        comps = transitive_components(s)
        assert len(comps) == 2
        assert [c.usable for c in comps] == [frozenset({0}), frozenset({1})]

    def test_full_shift_single_component(self):
        assert len(transitive_components(full_shift(A2))) == 1

    def test_period_gstar(self):
        assert period_of(gstar()) == 2

    def test_period_loop(self):
        assert period_of(build_markov_shift(A2, [(0, 0)])) == 1

    def test_period_positive_entropy(self):
        assert period_of(full_shift(A2)) is None

    def test_period_requires_single_component(self):
        with pytest.raises(ValueError):
            period_of(build_markov_shift(A2, [(0, 0), (1, 1)]))


class TestMapCycles:
    def test_partial_map_tails_and_rotation(self):
        # 5 -> 3 -> 4 -> undefined; 0 -> (1 2); 8 joins (1 2) late; (6 7)
        # is met at 7 and rotated to start at its least node
        succ = {0: 1, 1: 2, 2: 1, 3: 4, 5: 3, 6: 7, 7: 6, 8: 2}.get
        cycles, cycle_of = map_cycles([5, 0, 7, 8, 4], succ)
        assert cycles == [(1, 2), (6, 7)]
        assert cycle_of == {0: 0, 1: 0, 2: 0, 6: 1, 7: 1, 8: 0}


class TestPeriodicOrbitSft:
    def test_ether_orbit(self):
        word = tuple(int(c) for c in "00010011011111")
        sft = periodic_orbit_sft(A2, word)
        shift, coder = markov_presentation(sft, 14)
        assert len(shift.usable) == 14
        assert period_of(shift) == 14


def small_shifts():
    """Random pruned digraphs on up to 5 symbols."""
    def build(n, pairs):
        alpha = Alphabet(tuple("abcde"[:n]))
        try:
            return build_markov_shift(alpha, [(a % n, b % n) for a, b in pairs])
        except EmptySubshiftError:
            return None
    return st.builds(
        build,
        st.integers(min_value=1, max_value=5),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12),
    ).filter(lambda s: s is not None)


class TestInvariants:
    @given(small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_entropy_zero_iff_no_choice_point(self, s):
        assert (entropy(s) == 0.0) == (choice_point(s) is None)

    @given(small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_cycle_union_matches_on_nonwandering(self, s):
        # on shifts without wandering vertices the third characterization agrees
        comps = transitive_components(s)
        cyclic = set().union(*(c.usable for c in comps))
        if cyclic == set(s.usable):
            in_cycles = all(len(c.edges) == len(c.usable) for c in comps)
            if is_cycle_union(s):
                assert entropy(s) == 0.0
            if entropy(s) == 0.0 and in_cycles and len(s.edges) == sum(
                    len(c.edges) for c in comps):
                assert is_cycle_union(s)

    @given(small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_left_regular_edge_count(self, s):
        rep = regularity(s)
        if rep.left_regular:
            assert len(s.edges) == rep.P_S * len(s.usable)

    @given(small_shifts(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_recodings_have_no_unusable_vertices(self, s, P):
        blocked, _ = higher_block(s, P)
        powered, _ = higher_power(s, P)
        for t in (blocked, powered):
            for v in t.usable:
                assert t.followers(v) and t.predecessors(v)

    @given(small_shifts(), st.integers(min_value=1, max_value=3), st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_block_coding_round_trip(self, s, P, seed):
        import random
        rng = random.Random(seed)
        blocked, coder = higher_block(s, P)
        # random admissible word of length >= P
        v = rng.choice(sorted(s.usable))
        w = [v]
        for _ in range(P + 5):
            w.append(rng.choice(s.followers(w[-1])))
        w = tuple(w)
        enc = coder.encode_word(w)
        assert blocked.is_admissible(enc)
        assert coder.decode_word(enc) == w

    def test_pack_unpack_round_trip(self):
        for idx in range(16):
            assert pack_word(A2, unpack_word(A2, idx, 4)) == idx
