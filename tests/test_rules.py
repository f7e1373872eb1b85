import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from defectca import zoo
from defectca.lattice import (
    apply_rule,
    decode_config,
    encode_config,
    periodic_config,
)
from defectca.rules import (
    LocalRule,
    check_invariance,
    find_travelling_wave_backgrounds,
    from_linear,
    from_wolfram_number,
    is_left_permutative,
    is_left_resolving,
    is_right_permutative,
    is_right_resolving,
    is_surjective_on,
    normalize,
    phi_orbit_components,
    recode_rule,
    rule_from_table,
)
from defectca.shifts import (
    Alphabet,
    BlockCoder,
    binary_alphabet,
    block_alphabet,
    build_markov_shift,
    build_sft,
    full_shift,
    higher_block,
    periodic_orbit_sft,
)

A2 = binary_alphabet()
ETHER = tuple(int(c) for c in "00010011011111")
G3 = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0)]


def gstar():
    return build_markov_shift(A2, [(0, 1), (1, 0)])


class TestWolfram:
    def test_rule_184_table(self):
        r = from_wolfram_number(184)
        assert r((1, 0, 1)) == 1
        assert r((1, 1, 0)) == 0
        assert r((0, 0, 0)) == 0

    def test_rule_0_constant(self):
        r = from_wolfram_number(0)
        assert all(v == 0 for v in r.dense_table().values())

    def test_rule_204_identity(self):
        r = from_wolfram_number(204)
        assert all(r((i, j, k)) == j for i in (0, 1) for j in (0, 1) for k in (0, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            from_wolfram_number(300)


def _stepper_case(case):
    """(rule, seed) pairs: the README's ECA#184 dislocation in the source and
    block presentations, and a radius-2 rule over a period-1 background."""
    rule = from_wolfram_number(184)
    cfg = periodic_config(A2, (0, 1), (), (0, 1), left_phase=1)
    if case == "source":
        return rule, cfg
    if case == "block":
        sys = normalize(rule, zoo.eca184_background())
        return sys.rule, encode_config(sys.coder, cfg)
    flip_shift2 = LocalRule(A2, 2, lambda w: 1 - w[4], name="flip-shift2")
    return flip_shift2, periodic_config(A2, (0,), (1, 1, 0, 1), (0,))


class TestApply:
    def test_identity_rule_fixes_configs(self):
        cfg = periodic_config(A2, (0,), (0, 1, 1), (1,))
        out = apply_rule(from_wolfram_number(204), cfg)
        assert out.window(-5, 8) == cfg.window(-5, 8)

    def test_184_on_zero_background(self):
        # direct table lookup: ...000[01]000... -> cells from the rule table
        cfg = periodic_config(A2, (0,), (0, 1), (0,))
        out = apply_rule(from_wolfram_number(184), cfg)
        r = from_wolfram_number(184)
        for z in range(-3, 5):
            assert out.cell(z) == r(cfg.window(z - 1, z + 2))

    def test_184_shifts_gstar(self):
        cfg = periodic_config(A2, (0, 1), (), (0, 1))
        out = apply_rule(from_wolfram_number(184), cfg)
        for z in range(-6, 6):
            assert out.cell(z) == cfg.cell(z + 1)

    def test_apply_commutes_with_shift(self):
        rule = from_wolfram_number(110)
        cfg = periodic_config(A2, ETHER, (1, 1, 0, 0), ETHER, origin=3,
                              left_phase=2, right_phase=9)
        for k in (-3, 1, 7):
            a = apply_rule(rule, cfg.shifted(k))
            b = apply_rule(rule, cfg).shifted(k)
            assert a.window(-30, 30) == b.window(-30, 30)

    @pytest.mark.parametrize("case", ["source", "block", "radius2"])
    def test_core_stays_bounded_and_exact(self, case):
        rule, cur = _stepper_case(case)
        r = rule.radius
        for _ in range(2000):
            nxt = apply_rule(rule, cur)
            assert len(nxt.core) <= 8  # bounded independently of the step
            for z in range(cur.origin - 2 * r - 2, cur.end + 2 * r + 2):
                assert nxt.cell(z) == rule(cur.window(z - r, z + r + 1))
            cur = nxt


class TestInvariance:
    def test_184_preserves_g(self):
        assert check_invariance(from_wolfram_number(184), build_sft(A2, 3, G3))

    def test_184_on_full_shift(self):
        assert check_invariance(from_wolfram_number(184), full_shift(A2))

    def test_110_preserves_ether(self):
        assert check_invariance(from_wolfram_number(110), periodic_orbit_sft(A2, ETHER))

    def test_110_does_not_preserve_gstar(self):
        # the alternating background maps onto all-ones, which leaves G*
        assert not check_invariance(from_wolfram_number(110), gstar())


class TestPermutative:
    def test_mod2_sum_both(self):
        r = from_linear(2, (1, 1, 1))
        assert is_left_permutative(r, (0, 1))
        assert is_right_permutative(r, (0, 1))

    def test_identity_neither(self):
        r = from_wolfram_number(204)
        assert not is_left_permutative(r, (0, 1))
        assert not is_right_permutative(r, (0, 1))

    def test_left_shift_rule(self):
        # phi = x_{-1}: rule 240
        r = from_wolfram_number(240)
        assert is_left_permutative(r, (0, 1))
        assert not is_right_permutative(r, (0, 1))


class TestResolving:
    def test_mod2_sum_on_full_shift(self):
        r = from_linear(2, (1, 1, 1))
        s = full_shift(r.alphabet)
        assert is_left_resolving(r, s)
        assert is_right_resolving(r, s)

    def test_identity_not_resolving(self):
        s = full_shift(A2)
        assert not is_left_resolving(from_wolfram_number(204), s)
        assert not is_right_resolving(from_wolfram_number(204), s)

    def test_singleton_fixed_point(self):
        s = build_markov_shift(A2, [(0, 0)])
        r = from_wolfram_number(184)  # fixes 0^inf
        assert is_left_resolving(r, s)
        assert is_right_resolving(r, s)

    def test_permutative_iff_resolving_on_full_shift(self):
        for n in (90, 150, 204, 240, 170, 184):
            r = from_wolfram_number(n)
            s = full_shift(A2)
            assert is_left_resolving(r, s) == is_left_permutative(r, (0, 1))
            assert is_right_resolving(r, s) == is_right_permutative(r, (0, 1))

    def test_resolving_implies_onto(self):
        r = from_linear(2, (1, 1, 1))
        s = full_shift(r.alphabet)
        assert is_surjective_on(r, s, length=3)
        s2 = build_markov_shift(A2, [(0, 0)])
        assert is_surjective_on(from_wolfram_number(184), s2, length=3)


# The paper's left-hand definitions, written out directly as the slow
# reference for the checks that read the mirrored line.

def _left_permutative_ref(rule, syms):
    return all({rule((a, b, c)) for a in syms} == set(syms)
               for b in syms for c in syms)


def _left_violation(rule, shift, a, b, c, d):
    """True iff (a, b, c, d) shows that ``shift`` is not left-resolving:
    a b c d is admissible, and a -> phi(a,b,c) on the predecessors of b
    either collides or misses the predecessors of phi(b,c,d)."""
    if not shift.is_admissible((a, b, c, d)):
        return False
    out = rule((a, b, c))
    collides = any(rule((x, b, c)) == out
                   for x in shift.predecessors(b) if x != a)
    return collides or out not in shift.predecessors(rule((b, c, d)))


def _left_resolving_ref(rule, shift):
    return not any(_left_violation(rule, shift, a, *w)
                   for w in shift.words(3) for a in shift.predecessors(w[0]))


@st.composite
def rules_on_shifts(draw):
    """A radius-1 rule on 2-4 symbols, linear or a random table, and a
    Markov shift holding one drawn cycle plus random extra edges."""
    n = draw(st.integers(2, 4))
    alpha = Alphabet(tuple(map(str, range(n))))
    cycle = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1)), max_size=n * n))
    nbhds = list(product(range(n), repeat=3))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(0, n - 1)] * 3))
        outs = [(c[0] * a + c[1] * b + c[2] * d) % n for a, b, d in nbhds]
    else:
        outs = draw(st.lists(st.integers(0, n - 1), min_size=len(nbhds),
                             max_size=len(nbhds)))
    return (rule_from_table(alpha, 1, dict(zip(nbhds, outs))),
            build_markov_shift(alpha, edges))


class TestMirroredChecks:
    @given(rules_on_shifts())
    @settings(max_examples=100, deadline=None)
    def test_left_checks_match_direct_definitions(self, case):
        rule, shift = case
        syms = sorted(shift.usable)
        assert is_left_permutative(rule, syms) == _left_permutative_ref(rule, syms)
        witness = []
        ok = is_left_resolving(rule, shift, witness)
        assert ok == _left_resolving_ref(rule, shift)
        if ok:
            assert witness == []
        else:
            assert len(witness) == 1 and _left_violation(rule, shift, *witness[0])


class TestTravellingWaves:
    def test_gstar_is_a_184_wave(self):
        orbits = find_travelling_wave_backgrounds(from_wolfram_number(184), 1, 1, 2)
        assert [(0, 1), (1, 0)] in orbits

    def test_110_ether(self):
        orbits = find_travelling_wave_backgrounds(from_wolfram_number(110), 1, 4, 14)
        assert any(ETHER in orbit for orbit in orbits)

    def test_identity_rule_all_periodic(self):
        orbits = find_travelling_wave_backgrounds(from_wolfram_number(204), 1, 0, 3)
        # orbits of primitive periods 1, 2, 3 over two symbols: 2 + 1 + 2
        assert len(orbits) == 5


class TestRecoding:
    def test_normalize_g_has_three_phi_components(self):
        sys = normalize(from_wolfram_number(184), build_sft(A2, 3, G3))
        assert sys.P == 3
        assert len(sys.shift.usable) == 4
        groups = phi_orbit_components(sys.rule, sys.shift)
        assert len(groups) == 3

    def test_normalize_54_background_is_one_phi_component(self):
        b_words = set()
        for w in ((0, 0, 1, 0), (1, 1, 0, 1)):
            for k in range(4):
                b_words.add(tuple(w[(i + k) % 4] for i in range(4)))
        sys = normalize(from_wolfram_number(54), build_sft(A2, 4, b_words))
        assert sys.P == 4
        assert len(sys.shift.usable) == 8
        groups = phi_orbit_components(sys.rule, sys.shift)
        assert len(groups) == 1

    def test_recoded_rule_matches_on_consistent_neighborhoods(self):
        rule = from_wolfram_number(110)
        rec = recode_rule(rule, higher_block(full_shift(A2), 3)[1])
        rng = random.Random(7)
        for _ in range(50):
            w = tuple(rng.randrange(2) for _ in range(5))
            blocks = tuple(rec.alphabet.index("".join(map(str, w[j:j + 3])))
                           for j in range(3))
            out = rec(blocks)
            assert rec.alphabet.labels[out] == "".join(map(str, rule.image_word(w)))

    @given(st.integers(0, 255), st.integers(2, 4), st.booleans(),
           st.integers(0, 3), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_block_recoding_naturality(self, n, P, power, phase, seed):
        # decode(apply_recoded(encode(x))) == apply(x) on random
        # configurations, at stride 1 or P and a drawn coder phase
        rule = from_wolfram_number(n)
        coder = _coder(P, P if power else 1, phase % P)
        cfg = _random_config(random.Random(seed))
        lifted = apply_rule(recode_rule(rule, coder), encode_config(coder, cfg))
        direct = apply_rule(rule, cfg)
        back = decode_config(coder, lifted)
        assert back.window(-20, 20) == direct.window(-20, 20)

    def test_encode_decode_round_trip(self):
        _, coder = higher_block(full_shift(A2), 3)
        cfg = periodic_config(A2, (0, 1), (1, 1, 0, 0), (0,), origin=-1)
        assert decode_config(coder, encode_config(coder, cfg)).window(-9, 9) == \
            cfg.window(-9, 9)


def _coder(P, stride, phase):
    return BlockCoder(A2, block_alphabet(A2, P), P, stride, phase)


def _random_config(rng):
    word = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
    right = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
    core = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
    return periodic_config(A2, word, core, right, origin=rng.randrange(-3, 4),
                           left_phase=rng.randrange(-4, 5),
                           right_phase=rng.randrange(-4, 5))


coder_cases = given(st.integers(1, 4), st.booleans(), st.integers(0, 3),
                    st.integers(0, 10_000))


class TestCoderShiftIntertwining:
    @coder_cases
    @settings(max_examples=100, deadline=None)
    def test_block_coder_commutes_with_shift(self, P, power, phase, seed):
        # encode(sigma^(k*stride) x) == sigma^k encode(x), cell by cell: one
        # block step is `stride` source steps
        coder = _coder(P, P if power else 1, phase % P)
        rng = random.Random(seed)
        cfg = _random_config(rng)
        k = rng.randrange(-3, 4)
        a = encode_config(coder, cfg.shifted(k * coder.stride))
        b = encode_config(coder, cfg).shifted(k)
        assert a.window(-12, 12) == b.window(-12, 12)

    def test_power_coder_phase_arithmetic(self):
        # one target step equals W source steps
        from defectca.shifts import higher_power
        _, coder = higher_power(full_shift(A2), 3)
        assert coder.stride == 3
        cfg = periodic_config(A2, (0, 1), (1, 1, 0), (0, 1, 1), origin=0)
        a = encode_config(coder, cfg.shifted(3))
        b = encode_config(coder, cfg).shifted(1)
        assert a.window(-6, 6) == b.window(-6, 6)

    @coder_cases
    @settings(max_examples=100, deadline=None)
    def test_config_round_trip(self, P, power, phase, seed):
        coder = _coder(P, P if power else 1, phase % P)
        s, c = coder.stride, coder.phase
        cfg = _random_config(random.Random(seed))
        enc = encode_config(coder, cfg)
        for z in range(-8, 8):
            assert enc.cell(z) == coder.pack(cfg.window(s * z + c, s * z + c + P))
        # the core is exactly the blocks that touch the source core
        assert s * (enc.origin - 1) + c + P <= cfg.origin < s * enc.origin + c + P
        assert s * (enc.end - 1) + c < cfg.end <= s * enc.end + c
        back = decode_config(coder, enc)
        assert back.window(-20, 20) == cfg.window(-20, 20)
