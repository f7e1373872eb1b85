import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from defectca.errors import ConvergenceError, EmptySubshiftError, NoChoicePointError
from defectca.rules import from_wolfram_number, phi_orbit_components
from defectca.shifts import (
    Alphabet,
    BlockCoder,
    _lift,
    adjacency_matrix,
    binary_alphabet,
    block_alphabet,
    build_markov_shift,
    build_sft,
    choice_point,
    entropy,
    equal_length_cycles,
    full_shift,
    higher_block,
    higher_power,
    map_cycles,
    markov_presentation,
    pack_word,
    period_of,
    periodic_orbit_sft,
    perron,
    regularity,
    strongly_connected,
    transitive_components,
    unpack_word,
)
from defectca.zoo import DIFFUSIVE_ALPHABET
from oracles import (block_label, gstar_shift, is_admissible, is_locally_admissible,
                     lift_unpruned, small_shifts, zoo_sfts)

A2 = binary_alphabet()
SEA = DIFFUSIVE_ALPHABET  # the marked walker's labels 0, 1, 0*, 1*


def golden_mean():
    # forbid the word 11
    return build_markov_shift(A2, [(0, 0), (0, 1), (1, 0)])


def count_words(shift, n):
    # brute-force admissible word count, independent of entropy()
    return len(shift.words(n))


class TestBuildMarkovShift:
    def test_two_cycle(self):
        s = gstar_shift()
        assert s.usable == frozenset({0, 1})
        assert is_admissible(s, (0, 1, 0, 1))
        assert not is_admissible(s, (0, 0))

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
        assert is_admissible(gstar_shift(), ())


class TestBuildSft:
    def test_prunes_words_in_no_point(self):
        # no admissible word starts with 11, so 011 goes, and then 001
        sft = build_sft(A2, 3, [(0, 0, 0), (0, 0, 1), (0, 1, 1)])
        assert sft.admissible == frozenset({(0, 0, 0)})


class TestSftToMarkov:
    def test_golden_mean_q2_is_identity(self):
        sft = build_sft(A2, 2, [(0, 0), (0, 1), (1, 0)])
        shift, coder = markov_presentation(sft)
        assert coder.P == 1 and coder.target == A2
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
        shift, coder = markov_presentation(sft)
        assert len(shift.edges) == 4 and coder.P == 1

    def test_minimal_presentation_of_radius3(self):
        g3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]
        shift, coder = markov_presentation(build_sft(A2, 3, g3))
        assert coder.P == 2
        assert len(transitive_components(shift)) == 3


class TestHigherBlock:
    def test_gstar_p2(self):
        shift, coder = higher_block(gstar_shift(), 2)
        v01 = pack_word(A2, (0, 1))
        v10 = pack_word(A2, (1, 0))
        assert shift.usable == frozenset({v01, v10})
        assert shift.edges == frozenset({(v01, v10), (v10, v01)})

    def test_full_shift_p3_de_bruijn(self):
        shift, _ = higher_block(full_shift(A2), 3)
        assert len(shift.usable) == 8
        assert len(shift.edges) == 16

    def test_p1_identity(self):
        shift, coder = higher_block(gstar_shift(), 1)
        assert shift is gstar_shift() or shift.edges == gstar_shift().edges
        assert coder.P == 1

    def test_word_round_trip(self):
        shift, coder = higher_block(golden_mean(), 3)
        for w in golden_mean().words(6):
            assert coder.decode_word(coder.encode_word(w)) == w
            assert is_admissible(shift, coder.encode_word(w))


class TestHigherPower:
    def test_full_2_shift_w2_is_full_4_shift(self):
        shift, _ = higher_power(full_shift(A2), 2)
        assert len(shift.usable) == 4
        assert len(shift.edges) == 16

    def test_gstar_w2_two_fixed_points(self):
        # (01)(01) is admissible, (01)(10) is not: each vertex only self-loops
        shift, _ = higher_power(gstar_shift(), 2)
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
        assert entropy(gstar_shift()) == 0.0

    def test_golden_mean(self):
        expected = math.log2((1 + math.sqrt(5)) / 2)
        assert abs(entropy(golden_mean()) - expected) < 1e-11

    def test_golden_mean_against_word_counts(self):
        # independent oracle: growth rate of admissible word counts
        s = golden_mean()
        ratio = count_words(s, 26) / count_words(s, 25)
        assert abs(entropy(s) - math.log2(ratio)) < 1e-4


class TestPerronCertificate:
    def test_certified_pair(self):
        lam, v = perron(adjacency_matrix(golden_mean(), [0, 1]))
        assert lam == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)
        assert max(v) == 1.0 and min(v) > 0.0

    @pytest.mark.parametrize("fault, match", [
        ("vector", "bracket"), ("root", "bracket"), ("sign", "entry")])
    def test_perturbed_eigenpair_raises(self, monkeypatch, fault, match):
        # numpy's own pair, with the Perron vector or root moved by 1e-6
        # or one vector entry's sign flipped
        eig = np.linalg.eig

        def perturbed(A):
            vals, vecs = (x.copy() for x in eig(A))
            k = int(np.argmax(vals.real))
            if fault == "vector":
                vecs[0, k] *= 1 + 1e-6
            elif fault == "root":
                vals[k] += 1e-6
            else:
                vecs[0, k] *= -1
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        with pytest.raises(ConvergenceError, match=match):
            perron(adjacency_matrix(golden_mean(), [0, 1]))
        with pytest.raises(ConvergenceError, match=match):
            entropy(full_shift(A2))


class TestBlockAlphabet:
    @pytest.mark.parametrize("alpha, P", [(A2, 1), (A2, 14), (SEA, 1), (SEA, 3)])
    def test_labels_match_per_word_construction(self, alpha, P):
        want = tuple(block_label(alpha, w)
                     for w in product(range(alpha.size), repeat=P))
        assert block_alphabet(alpha, P).labels == want

    def test_multi_character_labels_are_parenthesised(self):
        assert block_alphabet(SEA, 1).labels == SEA.labels
        labels = block_alphabet(SEA, 3).labels
        assert labels[pack_word(SEA, (0, 2, 3))] == "(0,0*,1*)"
        assert block_alphabet(A2, 3).labels[pack_word(A2, (0, 1, 1))] == "011"


class TestChoicePoint:
    def test_full_shift(self):
        assert choice_point(full_shift(A2)) == 0

    def test_gstar_none(self):
        assert choice_point(gstar_shift()) is None

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
            equal_length_cycles(gstar_shift())

    def test_output_properties(self):
        # in the mirrored golden mean the choice point 0 is on one simple cycle
        mirrored = build_markov_shift(A2, [(0, 1), (1, 0), (1, 1)])
        for s in (full_shift(A2), golden_mean(), mirrored):
            check_equal_length_cycles(s)


def check_equal_length_cycles(s):
    """Two distinct admissible cycles of one length through one vertex."""
    P, c0, c1 = equal_length_cycles(s)
    assert len(c0) == len(c1) == P and c0 != c1
    assert c0[0] == c1[0]
    for c in (c0, c1):
        assert is_admissible(s, c + c)


class TestComponentsAndPeriod:
    def test_two_loops(self):
        s = build_markov_shift(A2, [(0, 0), (1, 1)])
        comps = transitive_components(s)
        assert len(comps) == 2
        assert [c.usable for c in comps] == [frozenset({0}), frozenset({1})]

    def test_full_shift_single_component(self):
        assert len(transitive_components(full_shift(A2))) == 1

    def test_period_gstar(self):
        assert period_of(gstar_shift()) == 2

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



def _reach(succ, v):
    seen, todo = {v}, [v]
    while todo:
        for w in succ(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestStronglyConnected:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_mutual_reachability(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        # tuple nodes on odd seeds; some nodes get no edges at all
        nodes = [(i, "v") if seed % 2 else i for i in range(n)]
        rng.shuffle(nodes)
        adj = {v: [] for v in nodes}
        for _ in range(rng.randint(0, 2 * n)):
            adj[rng.choice(nodes)].append(rng.choice(nodes))
        comps = strongly_connected(nodes, adj.__getitem__)
        reach = {v: _reach(adj.__getitem__, v) for v in nodes}
        want = {frozenset(w for w in nodes if w in reach[v] and v in reach[w])
                for v in nodes}
        assert {frozenset(c) for c in comps} == want
        assert sum(map(len, comps)) == n
        rank = nodes.index
        for c in comps:
            assert c == sorted(c, key=rank)
        assert [c[0] for c in comps] == sorted((c[0] for c in comps), key=rank)

    def test_rule_orbit_joins_components_one_way(self):
        # rule 0 sends 1^oo into 0^oo and nothing back: one orbit group
        groups = phi_orbit_components(from_wolfram_number(0),
                                      build_markov_shift(A2, [(0, 0), (1, 1)]))
        assert [g.usable for g in groups] == [frozenset({0, 1})]

class TestPeriodicOrbitSft:
    def test_ether_orbit(self):
        word = tuple(int(c) for c in "00010011011111")
        sft = periodic_orbit_sft(A2, word)
        shift, coder = markov_presentation(sft, 14)
        assert len(shift.usable) == 14
        assert period_of(shift) == 14


def _same_lift(sft, P, stride):
    (shift, coder), (want, want_coder) = _lift(sft, P, stride), \
        lift_unpruned(sft, P, stride)
    assert shift.edges == want.edges
    assert coder == want_coder


class TestLiftByPrefixes:
    """The lift builds admissible prefixes only; its edges and coder are
    those of extending every short word unchecked."""

    @pytest.mark.parametrize("name", sorted(zoo_sfts()))
    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_zoo_sfts(self, name, extra, stride):
        # P = q - 1 (P = 1 at q = 1) and P = q + 1
        sft = zoo_sfts()[name]
        _same_lift(sft, max(sft.q + extra, 1), stride)

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_sfts(self, n, q, data):
        alpha = Alphabet(tuple("abc"[:n]))
        every = list(product(range(n), repeat=q))
        chosen = data.draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
        try:
            sft = build_sft(alpha, q, chosen)
        except EmptySubshiftError:
            assume(False)
        P = data.draw(st.integers(max(q - 1, 1), q + 2))
        _same_lift(sft, P, data.draw(st.integers(1, 3)))
        # below q the words are the prefixes of admissible q-words, and
        # from q on the locally admissible words
        for k in range(q + 3):
            want = sorted({w[:k] for w in sft.admissible}) if k < q else \
                [w for w in product(range(n), repeat=k) if is_locally_admissible(sft, w)]
            assert sft.words(k) == want


class TestInvariants:
    @given(small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_entropy_zero_iff_no_choice_point(self, s):
        assert (entropy(s) == 0.0) == (choice_point(s) is None)

    @given(small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_equal_length_cycles_on_positive_entropy(self, s):
        assume(entropy(s) > 0.0)
        check_equal_length_cycles(s)

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

    @given(small_shifts(), st.integers(min_value=1, max_value=3), st.booleans(),
           st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_block_coding_round_trip(self, s, P, power, seed):
        # stride 1 (higher block) or P (higher power)
        rng = random.Random(seed)
        lifted, coder = higher_power(s, P) if power else higher_block(s, P)
        assert coder.stride == (P if power else 1)
        # random admissible word of length P + k*stride
        w = [rng.choice(sorted(s.usable))]
        for _ in range(P - 1 + rng.randrange(6) * coder.stride):
            w.append(rng.choice(s.followers(w[-1])))
        w = tuple(w)
        enc = coder.encode_word(w)
        assert len(enc) == 1 + (len(w) - P) // coder.stride
        assert is_admissible(lifted, enc)
        assert coder.decode_word(enc) == w

    def test_pack_unpack_round_trip(self):
        for idx in range(16):
            assert pack_word(A2, unpack_word(A2, idx, 4)) == idx


@st.composite
def coded_words(draw):
    """A coder over 2-4 symbols with P in 1..5 and stride in 1..P, and a
    word of length P + k*stride."""
    n, P = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    stride = draw(st.integers(1, P))
    alpha = Alphabet(tuple(map(str, range(n))))
    size = P + draw(st.integers(0, 6)) * stride
    word = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    return BlockCoder(alpha, block_alphabet(alpha, P), P, stride), tuple(word)


class TestBlockArithmetic:
    @given(coded_words())
    @settings(max_examples=150, deadline=None)
    def test_encode_word_matches_window_packing(self, case):
        coder, w = case
        P, s, alpha = coder.P, coder.stride, coder.source
        enc = coder.encode_word(w)
        assert enc == tuple(pack_word(alpha, w[j:j + P])
                            for j in range(0, len(w) - P + 1, s))
        assert [coder.first_symbol(b) for b in enc] == [coder.unpack(b)[0] for b in enc]
        # a length that is not P + k*stride is refused, naming it
        for bad in [len(w) + d for d in range(1, s)] + [P - 1]:
            with pytest.raises(ValueError, match=f"word length {bad} is not {P} "):
                coder.encode_word((0,) * bad)
