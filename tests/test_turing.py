import random
from itertools import product

import pytest
from hypothesis import given, settings

from defectca.errors import DefectcaError, InvalidMachineError
from defectca.lattice import apply_rule, encode_config, periodic_config
from defectca.rules import from_wolfram_number
from defectca.shifts import (
    Alphabet,
    binary_alphabet,
    build_markov_shift,
    entropy,
    full_shift,
    markov_presentation,
)
from defectca.turing import (
    APDA,
    ClassicalTM,
    LRTuringMachine,
    MachineState,
    apda_to_lr,
    build_cycle_encoder,
    ca_to_turing,
    classical_to_lr,
    detect_runaway_cycle,
    regime_of,
    runaway_cycles,
    step_lrtm,
    turing_to_ca,
)
from defectca import zoo
from oracles import (decode_config, identity_rule, is_admissible, run_apda,
                     small_shifts, zoo_sfts)

A2 = binary_alphabet()


def zero_shift():
    return build_markov_shift(A2, [(0, 0)])


def one_shift():
    return build_markov_shift(A2, [(1, 1)])


def state(left_bg, head, right_bg, left=(), right=(), alphabet=A2):
    """The head at 0 between the cells ``left`` and ``right``; ``left_bg``
    repeats leftward from left's first cell, ``right_bg`` rightward from
    right's last."""
    tape = periodic_config(alphabet, left_bg, tuple(left) + tuple(right), right_bg,
                           -len(left), len(left), -len(right))
    return MachineState(tape, head, 0)


def near(s, n):
    """The n tape cells left of the head and the n right of it."""
    return s.tape.window(s.z - n, s.z), s.tape.window(s.z, s.z + n)


def _random_tape(rng):
    """A tape over A2 with random backgrounds, phases, core and origin."""
    def word(least):
        return tuple(rng.randrange(2) for _ in range(rng.randint(least, 4)))
    return periodic_config(A2, word(1), word(0), word(1), rng.randrange(-5, 6),
                           rng.randrange(-4, 5), rng.randrange(-4, 5))


class TestHeadCodec:
    def _check(self, emb, s, width):
        # the head takes the cells [z, z + width), the tape cells beside it
        # keep their order, and decoding takes exactly the head back out
        config = emb.encode(s)
        back = emb.decode(config)
        z = s.z
        assert (back.z, back.head) == (z, s.head)
        assert config.window(z - 12, z) == s.tape.window(z - 12, z) == \
            back.tape.window(z - 12, z)
        assert config.window(z + width, z + width + 12) == \
            s.tape.window(z, z + 12) == back.tape.window(z, z + 12)
        return config

    def test_codec_places_tape_cells_beside_the_head(self):
        rng = random.Random(1)
        m = _stationary_machine()
        _, emb = turing_to_ca(m)
        for _ in range(200):
            s = MachineState(_random_tape(rng), rng.choice(m.head_domain),
                             rng.randrange(-8, 9))
            config = self._check(emb, s, 1)
            assert emb.is_head(config.cell(s.z))
            assert config.alphabet == emb.alphabet
            assert emb.decode(config).tape.alphabet == m.alphabet
        machine, conj = ca_to_turing(from_wolfram_number(184), zero_shift(),
                                     one_shift(), 0)
        (zero,), (one,) = machine.left_shift.usable, machine.right_shift.usable
        for _ in range(50):
            i, j, z = rng.randrange(4), rng.randrange(4), rng.randrange(-8, 9)
            tape = periodic_config(machine.alphabet, (zero,),
                                   (zero,) * i + (one,) * j, (one,), z - i)
            config = self._check(conj, MachineState(tape, (zero, one), z), 2)
            assert config.window(z, z + 2) == (zero, one)


def _stationary_machine():
    heads = ("a", "b")
    return LRTuringMachine(
        A2, heads, zero_shift(), one_shift(),
        tau_L=lambda l2, l1, d: l1,
        tau_C=lambda l1, d, r1: l1,
        tau_R=lambda d, r1, r2: r1,
        upsilon=lambda l2, l1, d, r1, r2: "b" if d == "a" else "a",
        velocity=lambda l1, d, r1: 0,
        name="flip")


class TestStepLRTM:
    def test_stationary_flips_head_only(self):
        m = _stationary_machine()
        s0 = state((0,), "a", (1,))
        s1 = step_lrtm(m, s0)
        assert s1.head == "b" and s1.z == 0
        assert near(s1, 4) == near(s0, 4)

    def test_hand_traced_two_steps(self):
        # state a waits one step, then b marches right consuming the sea,
        # leaving zeros behind
        full = full_shift(A2)
        m = LRTuringMachine(
            A2, ("a", "b"), zero_shift(), full,
            tau_L=lambda l2, l1, d: l1,
            tau_C=lambda l1, d, r1: 0,
            tau_R=lambda d, r1, r2: r1,
            upsilon=lambda l2, l1, d, r1, r2: "b",
            velocity=lambda l1, d, r1: 0 if d == "a" else 1)
        s = state((0,), "a", (1, 0), right=(1, 1))
        s = step_lrtm(m, s)
        assert (s.head, s.z) == ("b", 0)
        s = step_lrtm(m, s)
        assert (s.head, s.z) == ("b", 1)
        assert s.tape.window(s.z - 2, s.z) == (0, 0)
        assert s.tape.cell(s.z) == 1  # the second sea cell is now adjacent

    def test_inadmissible_write_raises(self):
        m = LRTuringMachine(
            A2, ("a",), zero_shift(), one_shift(),
            tau_L=lambda l2, l1, d: 1,  # writes a 1 into the zero background
            tau_C=lambda l1, d, r1: 0,
            tau_R=lambda d, r1, r2: r1,
            upsilon=lambda l2, l1, d, r1, r2: "a",
            velocity=lambda l1, d, r1: 0)
        s = state((0,), "a", (1,))
        with pytest.raises(InvalidMachineError):
            step_lrtm(m, s)


class TestCaToTuring:
    def beta_state(self, machine):
        return state((0,), (0, 1), (1,), alphabet=machine.alphabet)

    def test_beta_machine_is_stationary(self):
        machine, conj = ca_to_turing(from_wolfram_number(184), zero_shift(),
                                     one_shift(), 0)
        s = self.beta_state(machine)
        for _ in range(5):
            s2 = step_lrtm(machine, s)
            assert (s2.z, s2.head) == (s.z, s.head)
            assert near(s2, 3)[0] == near(s, 3)[0]
            s = s2

    def test_identity_rule_machine_fixes_everything(self):
        machine, _ = ca_to_turing(identity_rule(A2), zero_shift(), one_shift(), 0)
        s = self.beta_state(machine)
        s2 = step_lrtm(machine, s)
        assert (s2.z, s2.head) == (s.z, s.head)

    def test_non_fixed_background_rejected(self):
        gstar = build_markov_shift(A2, [(0, 1), (1, 0)])
        with pytest.raises(DefectcaError):
            ca_to_turing(from_wolfram_number(184), gstar, gstar, 0)

    def test_conjugacy_round_trip(self):
        machine, conj = ca_to_turing(from_wolfram_number(184), zero_shift(),
                                     one_shift(), 0)
        s = self.beta_state(machine)
        cfg = conj.encode(s)
        back = conj.decode(cfg)
        assert back.z == s.z and back.head == s.head
        assert near(back, 5) == near(s, 5)


def _right_mover():
    # one head state marching right over a random sea, laying zeros
    full = full_shift(A2)
    return LRTuringMachine(
        A2, ("m",), zero_shift(), full,
        tau_L=lambda l2, l1, d: l1,
        tau_C=lambda l1, d, r1: 0,
        tau_R=lambda d, r1, r2: r1,
        upsilon=lambda l2, l1, d, r1, r2: "m",
        velocity=lambda l1, d, r1: 1,
        name="mover")


class TestTuringToCA:
    def test_stationary_machine_defect_never_moves(self):
        m = _stationary_machine()
        rule, emb = turing_to_ca(m)
        from defectca.lattice import apply_rule
        s = state((0,), "a", (1,))
        cfg = emb.encode(s)
        for t in range(10):
            cfg = apply_rule(rule, cfg)
            assert emb.decode(cfg).z == 0

    def test_right_mover_bisimulation(self):
        m = _right_mover()
        rule, emb = turing_to_ca(m)
        from defectca.lattice import apply_rule
        s = state((0,), "m", (1, 1, 0), right=(0, 1, 1, 0, 1))
        cfg = emb.encode(s)
        for t in range(20):
            s = step_lrtm(m, s)
            cfg = apply_rule(rule, cfg)
            got = emb.decode(cfg)
            assert got.z == s.z == t + 1
            assert got.head == s.head
            assert near(got, 6) == near(s, 6)

    def test_round_trip_extraction_bisimulates(self):
        m = _right_mover()
        rule, emb = turing_to_ca(m)
        ext = rule.alphabet
        L2 = build_markov_shift(ext, [(0, 0)])
        R2 = full_shift(ext, (0, 1))
        m2, conj = ca_to_turing(rule, L2, R2, 1)
        s = state((0,), "m", (1, 0), right=(0, 1, 1, 0))
        cfg = emb.encode(s)
        s2 = conj.decode(encode_config(conj.coder, cfg))
        for t in range(30):
            s = step_lrtm(m, s)
            s2 = step_lrtm(m2, s2)
            decoded = emb.decode(decode_config(conj.coder, conj.encode(s2)))
            assert decoded.z == s.z
            assert decoded.head == s.head
            assert near(decoded, 4) == near(s, 4)



def _random_machine(rng):
    """A random machine over binary full shifts with 3 head states; its
    update reads only the cells its velocity allows."""
    heads = (0, 1, 2)
    full = full_shift(A2)
    triples = list(product((0, 1), repeat=3))

    def table(values):
        keys = [(x, d, y) for x, _, y in triples for d in heads]
        return {k: rng.choice(values) for k in keys}

    vel, tl, tc, tr = table((-1, 0, 1)), table((0, 1)), table((0, 1)), table((0, 1))
    ups = {v: table(heads) for v in (-1, 0, 1)}

    def upsilon(l2, l1, d, r1, r2):
        v = vel[(l1, d, r1)]
        key = {-1: (l2, d, l1), 0: (l1, d, r1), 1: (r1, d, r2)}[v]
        return ups[v][key]

    return LRTuringMachine(
        A2, heads, full, full,
        tau_L=lambda l2, l1, d: tl[(l2, d, l1)],
        tau_C=lambda l1, d, r1: tc[(l1, d, r1)],
        tau_R=lambda d, r1, r2: tr[(r1, d, r2)],
        upsilon=upsilon,
        velocity=lambda l1, d, r1: vel[(l1, d, r1)],
        name="random")


class TestSlotRuleOracle:
    def test_random_machines_step_like_their_ca(self):
        # step_lrtm and the embedded radius-2 rule are two writings of one
        # step; every tape rule reads all its cells, so passing a wrong
        # neighbour to any of them shows up as a mismatch
        rng = random.Random(20260806)
        seen = set()
        for _ in range(40):
            m = _random_machine(rng)
            rule, emb = turing_to_ca(m)
            s = MachineState(_random_tape(rng), rng.choice(m.head_domain),
                             rng.randrange(-8, 9))
            cfg = emb.encode(s)
            for _ in range(25):
                seen.add(m.velocity(s.tape.cell(s.z - 1), s.head, s.tape.cell(s.z)))
                s = step_lrtm(m, s)
                cfg = apply_rule(rule, cfg)
                got = emb.decode(cfg)
                assert (got.z, got.head) == (s.z, s.head)
                assert near(got, 8) == near(s, 8)
        assert seen == {-1, 0, 1}


class TestCycleEncoder:
    def test_full_shift_blocks(self):
        enc = build_cycle_encoder(full_shift(A2))
        assert (enc.P, enc.w0, enc.w1) == (2, (0, 0), (0, 1))
        assert enc.encode((0, 1, 1)) == (0, 0, 0, 1, 0, 1)

    def test_golden_mean_blocks(self):
        gm = build_markov_shift(A2, [(0, 0), (0, 1), (1, 0)])
        enc = build_cycle_encoder(gm)
        assert (enc.P, enc.w0, enc.w1) == (2, (0, 0), (0, 1))
        assert is_admissible(gm, enc.encode((1, 0, 1)) * 2)

    def test_decode_rejects_non_image(self):
        enc = build_cycle_encoder(full_shift(A2))
        with pytest.raises(ValueError):
            enc.decode((1, 1))

    def test_zero_entropy_rejected(self):
        with pytest.raises(Exception):
            build_cycle_encoder(zero_shift())


class TestClassicalToLR:
    def test_constant_right_mover_advances_block_per_macro(self):
        tm = ClassicalTM(2, ("m",),
                         tau={(0, "m"): 1, (1, "m"): 1},
                         upsilon={(0, "m"): "m", (1, "m"): "m"},
                         velocity={(0, "m"): 1, (1, "m"): 1})
        comp = classical_to_lr(tm, full_shift(A2), full_shift(A2))
        C = comp.cells_per_symbol
        s = comp.initial_state({}, "m", 0, window=8)
        for k in range(1, 4):
            s, micro = comp.macro_step(s)
            assert micro == C
            assert s.z == k * C

    def test_binary_increment_against_classical_oracle(self):
        tm = zoo.binary_increment_tm()
        tape0 = {-3: 0, -2: 0, -1: 1, 0: 1}
        ctape, cd, cz = dict(tape0), "start", 0
        for _ in range(6):
            ctape, cd, cz = tm.step(ctape, cd, cz)
        assert [ctape.get(k, 0) for k in (-3, -2, -1, 0)] == [0, 1, 0, 0]
        assert cd == "halt"
        comp = classical_to_lr(tm, full_shift(A2), full_shift(A2))
        s = comp.initial_state(tape0, "start", 0, window=8)
        for _ in range(6):
            s, _ = comp.macro_step(s)
        tape, d, z = comp.decode_state(s, window=6)
        assert d == cd and z == cz
        for k in range(-6, 7):
            assert tape.get(k, 0) == ctape.get(k, 0)

    def test_never_moving_machine(self):
        tm = ClassicalTM(2, ("s",),
                         tau={(0, "s"): 1, (1, "s"): 0},
                         upsilon={(0, "s"): "s", (1, "s"): "s"},
                         velocity={(0, "s"): 0, (1, "s"): 0})
        comp = classical_to_lr(tm, full_shift(A2), full_shift(A2))
        s = comp.initial_state({0: 0}, "s", 0, window=4)
        for _ in range(5):
            s, micro = comp.macro_step(s)
            assert micro == 1 and s.z == 0

    def test_zero_entropy_side_rejected(self):
        tm = zoo.binary_increment_tm()
        with pytest.raises(DefectcaError):
            classical_to_lr(tm, zero_shift(), full_shift(A2))

    @pytest.mark.parametrize("swap", [False, True])
    def test_cycle_codes_of_different_lengths(self, swap):
        # the full shift on {0, 1} codes bits in 2-cell blocks, the shift
        # 0->0, 0->1, 1->2, 2->0 in 3-cell ones: both sides go to lcm = 6
        A3 = Alphabet(("0", "1", "2"))
        full = full_shift(A3, (0, 1))
        loop3 = build_markov_shift(A3, [(0, 0), (0, 1), (1, 2), (2, 0)])
        assert (build_cycle_encoder(full).P, build_cycle_encoder(loop3).P) == (2, 3)
        L, R = (loop3, full) if swap else (full, loop3)
        tm = zoo.binary_increment_tm()
        comp = classical_to_lr(tm, L, R)
        assert comp.enc_left.P == comp.enc_right.P == 6
        for enc, shift in ((comp.enc_left, L), (comp.enc_right, R)):
            # code blocks, alone and side by side, are words of their side
            assert all(is_admissible(shift, a + b)
                       for a, b in product((enc.w0, enc.w1), repeat=2))
        tape0 = {-3: 0, -2: 0, -1: 1, 0: 1}
        ctape, cd, cz = dict(tape0), "start", 0
        s = comp.initial_state(tape0, "start", 0, window=8)
        for _ in range(5):
            ctape, cd, cz = tm.step(ctape, cd, cz)
            s, _ = comp.macro_step(s)
            tape, d, z = comp.decode_state(s, window=4)
            assert d == cd and z == cz
            assert all(tape[k] == ctape.get(k, 0) for k in range(z - 4, z + 5))


class TestRegime:
    def test_trichotomy(self):
        full = full_shift(A2)
        zero = zero_shift()
        assert regime_of(full, full) == "turing-complete"
        assert regime_of(zero, full) == "apda"
        assert regime_of(full, zero) == "apda"
        gstar = build_markov_shift(A2, [(0, 1), (1, 0)])
        assert regime_of(gstar, gstar) == "ballistic"


def _regime_by_entropy(L, R):
    """The regime read from the sign of the two sides' entropies."""
    return {(True, True): "turing-complete", (False, False): "ballistic"}.get(
        (entropy(L) > 0, entropy(R) > 0), "apda")


def zoo_backgrounds():
    """The Markov backgrounds of the worked systems: each zoo SFT's Markov
    presentation, and the walkers' Markov shifts."""
    return ([markov_presentation(sft)[0] for sft in zoo_sfts().values()]
            + [zoo.diffusive_background(), zoo.wall_left_shift(),
               zoo.wall_right_shift()])


class TestEntropySign:
    """``regime_of`` and ``classical_to_lr`` read the sign of each side's
    entropy from its choice point; both agree with ``entropy``."""

    def _check(self, L, R):
        assert regime_of(L, R) == _regime_by_entropy(L, R)
        if entropy(L) == 0.0 or entropy(R) == 0.0:
            with pytest.raises(DefectcaError,
                               match="^both sides need positive entropy; use the "
                                     "stack or finite-automaton construction instead$"):
                classical_to_lr(zoo.binary_increment_tm(), L, R)

    @given(small_shifts(), small_shifts())
    @settings(max_examples=200, deadline=None)
    def test_random_pairs(self, L, R):
        self._check(L, R)

    def test_zoo_backgrounds(self):
        shifts = zoo_backgrounds()
        assert {entropy(s) > 0 for s in shifts} == {True, False}
        for L, R in product(shifts, repeat=2):
            self._check(L, R)


def _random_apda(rng, n_states=3, n_syms=2):
    heads = tuple(f"q{i}" for i in range(n_states))
    ups, rule = {}, {}
    for t in range(n_syms):
        for d in heads:
            ups[(t, d)] = rng.choice(heads)
            act = rng.choice(["push", "pop", "noop"])
            rule[(t, d)] = ("push", rng.randrange(n_syms)) if act == "push" \
                else (act,)
    return APDA(n_syms, heads, ups, rule)


class TestAPDA:
    def test_planted_runaway_detected(self):
        apda = APDA(1, ("q",), {(0, "q"): "q"}, {(0, "q"): ("push", 0)})
        assert detect_runaway_cycle(apda) == [("q", 0)]

    def test_all_pop_has_none(self):
        apda = APDA(1, ("q",), {(0, "q"): "q"}, {(0, "q"): ("pop",)})
        assert detect_runaway_cycle(apda) is None

    def test_pigeonhole_on_random_apdas(self):
        rng = random.Random(6021)
        for _ in range(30):
            apda = _random_apda(rng)
            bound = len(apda.head_domain) * apda.stack_size
            cycles = runaway_cycles(apda)
            on_cycle = {node for cyc in cycles for node in cyc}
            stack = [rng.randrange(apda.stack_size) for _ in range(400)]
            d = apda.head_domain[0]
            hist = run_apda(apda, d, stack, 300)
            streak = 0
            for dd, t, v in hist:
                streak = streak + 1 if v == -1 else 0
                if streak > bound:
                    assert (dd, t) in on_cycle

    def test_apda_matches_lr_realization(self):
        rng = random.Random(99)
        for _ in range(10):
            apda = _random_apda(rng)
            machine, null = apda_to_lr(apda)
            stack = [rng.randrange(apda.stack_size) for _ in range(200)]
            d0 = apda.head_domain[0]
            hist = run_apda(apda, d0, stack, 60)
            lr_state = state((null,), (d0, stack[0]), (1,),
                             right=tuple(s + 1 for s in stack[1:]),
                             alphabet=machine.alphabet)
            for (d, t, v) in hist:
                assert lr_state.head == (d, t)
                nxt = step_lrtm(machine, lr_state)
                assert nxt.z - lr_state.z == apda.velocity(t, d)
                lr_state = nxt


class TestCheckedRun:
    def test_run_with_admissibility_checks(self):
        m = _right_mover()
        s = state((0,), "m", (1, 0), right=(1, 1, 0, 1))
        for _ in range(10):
            s = step_lrtm(m, s)
            # the four cells beside the head on each side stay admissible
            left, right = near(s, 4)
            assert is_admissible(m.left_shift, left)
            assert is_admissible(m.right_shift, right)
        assert s.z == 10
