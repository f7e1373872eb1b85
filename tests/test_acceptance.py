"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from defectca import zoo
from defectca.ballistic import _padded_state, classify_junctions
from defectca.diffusive import (
    build_walk_kernel,
    markov_property_test,
    parry_measure,
    sample_walks,
    stationary_and_drift,
)
from defectca.errors import MultipleDefectsError
from defectca.lattice import apply_rule, encode_config, periodic_config
from defectca.rules import (
    from_linear,
    from_wolfram_number,
    normalize,
    phi_orbit_components,
    recode_rule,
)
from defectca.shifts import (
    binary_alphabet,
    build_markov_shift,
    entropy,
    full_shift,
    higher_block,
    pack_word,
    regularity,
)
from defectca.tracking import check_velocity_bounds, frame_of, locate_defect, track
from defectca.turing import (
    APDA,
    classical_to_lr,
    detect_runaway_cycle,
    regime_of,
    runaway_cycles,
    turing_to_ca,
)
from oracles import cylinder, decode_config, pushforward_cylinders, run_apda

A2 = binary_alphabet()


@contextmanager
def criterion(n: int, label: str, limit: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {n:2d} FAIL: {label}")
        raise
    dt = time.perf_counter() - t0
    assert dt < limit, f"criterion {n} took {dt:.2f}s (limit {limit}s)"
    print(f"criterion {n:2d} PASS ({dt:6.2f}s < {limit:g}s): {label}")


def test_criterion_1_eca184_particle_table():
    with criterion(1, "ECA#184 seven-particle table", 5.0):
        types = classify_junctions(from_wolfram_number(184),
                                   zoo.eca184_background(), max_core=0, T=48)
        comp = lambda *ws: frozenset(pack_word(A2, w) for w in ws)
        G0, G1, GS = comp((0, 0, 0)), comp((1, 1, 1)), comp((0, 1, 0), (1, 0, 1))
        bits = lambda s: tuple(int(c) for c in s)
        expected = {
            (GS, G1, (bits("011"),), Fraction(-1)),
            (GS, G0, (bits("100"),), Fraction(1)),
            (G1, GS, (bits("110"),), Fraction(-1)),
            (G0, GS, (bits("001"),), Fraction(1)),
            (GS, GS, (bits("0110"),), Fraction(-1)),
            (GS, GS, (bits("1001"),), Fraction(1)),
            (G0, G1, (bits("0011"),), Fraction(0)),
        }
        got = {(t.left_vertices, t.right_vertices, t.defect_words, t.velocity)
               for t in types}
        assert got == expected and len(types) == 7
        assert sorted(t.velocity for t in types) == sorted(
            [Fraction(v) for v in (-1, 1, -1, 1, -1, 1, 0)])


def test_criterion_2_eca54_gamma_orbits(conjugacy):
    with criterion(2, "ECA#54 gamma dislocations and code permutations", 5.0):
        sys = normalize(from_wolfram_number(54), zoo.eca54_background())
        group, = phi_orbit_components(sys.rule, sys.shift)
        sigma = {s: group.followers(s)[0] for s in group.usable}
        phi = {s: sys.rule((group.predecessors(s)[0], s, sigma[s])) for s in group.usable}
        word = lambda s: pack_word(A2, tuple(int(c) for c in s))
        sigma_expected = {"0001": "0010", "0010": "0100", "0100": "1000",
                          "1000": "0001", "1110": "1101", "1101": "1011",
                          "1011": "0111", "0111": "1110"}
        phi_expected = {"0001": "1011", "1011": "0100", "0100": "1110",
                        "1110": "0001", "0010": "0111", "0111": "1000",
                        "1000": "1101", "1101": "0010"}
        assert sigma == {word(a): word(b) for a, b in sigma_expected.items()}
        assert phi == {word(a): word(b) for a, b in phi_expected.items()}

        # the gamma dislocations are the period-2 junction types
        types = [t for t in classify_junctions(from_wolfram_number(54),
                                               zoo.eca54_background(), max_core=1)
                 if t.period == 2]
        assert len(types) == 2
        by_vel = {int(t.velocity): t for t in types}
        assert set(by_vel) == {-1, 1}
        for v, t in by_vel.items():  # V is identically +-1 on each orbit
            for _, steps in conjugacy(sys, t):
                assert steps == [v] * t.period

        # no transients: each gamma seed starts on its type's orbit
        gp = periodic_config(A2, (0, 0, 1, 0), (), (1, 1, 0, 1),
                             left_phase=0, right_phase=3)
        gm = periodic_config(A2, (0, 0, 1, 0), (0,), (1, 1, 0, 1),
                             left_phase=0, right_phase=1)
        for seed, v in ((gp, 1), (gm, -1)):
            cfg = encode_config(sys.coder, seed)
            z = frame_of(locate_defect(cfg, sys.shift))[0]
            t = by_vel[v]
            L, R = (t.width + 1) // 2 - 1, t.width // 2
            assert _padded_state(cfg, z, L, R) in t.orbit


def test_criterion_3_background_facts():
    with criterion(3, "mechanical background facts (184, 54^2, 110)", 5.0):
        def check_wave(rule, word, p, shift_by):
            n = len(word)
            for k in range(n):  # every phase of the orbit
                w = tuple(word[(i + k) % n] for i in range(n))
                cur = w
                for _ in range(p):
                    cur = tuple(rule((cur[(i - 1) % n], cur[i], cur[(i + 1) % n]))
                                for i in range(n))
                assert cur == tuple(w[(i + shift_by) % n] for i in range(n))

        check_wave(from_wolfram_number(184), (0, 1), 1, 1)
        for w in ((0, 0, 1, 0), (1, 1, 0, 1)):
            check_wave(from_wolfram_number(54), w, 2, 2)
        check_wave(from_wolfram_number(110), zoo.ETHER, 1, 4)


def test_criterion_4_eca110_defects_track():
    with criterion(4, "ECA#110 A and B defects: bounded, pinned kinematics", 10.0):
        sys = normalize(from_wolfram_number(110), zoo.eca110_ether())
        golden = {  # derived once from the tracker, then pinned
            "A": dict(left_phase=0, right_phase=8, core=(), period=3,
                      dz=2, max_width=12),
            "B": dict(left_phase=0, right_phase=6, core=(0,), period=4,
                      dz=-2, max_width=13),
        }
        for name, g in golden.items():
            cfg = periodic_config(A2, zoo.ETHER, g["core"], zoo.ETHER,
                                  left_phase=g["left_phase"],
                                  right_phase=g["right_phase"])
            traj = track(sys.rule, sys.shift, encode_config(sys.coder, cfg),
                         1000, width_cap=30)
            assert traj.verdict.is_particle, name
            assert traj.verdict.width == g["max_width"], name
            recs = traj.records
            p, dz = g["period"], g["dz"]
            for t in range(100, 1000 - p):  # constant average velocity
                assert recs[t + p].z - recs[t].z == dz, (name, t)
                assert recs[t + p].word == recs[t].word


def _diffusive_kernel():
    rule = zoo.diffusive_rule()
    sea = zoo.diffusive_background()
    delta = {(s,): 0.5 for s in zoo.diffusive_marked_symbols()}
    kernel = build_walk_kernel(rule, sea, sea, 1, delta_support=list(delta))
    return rule, sea, delta, kernel


def test_criterion_5_kernel_exactness():
    with criterion(5, "diffusive kernel: exact quarters, exact row sums", 5.0):
        rule, sea, delta, kernel = _diffusive_kernel()
        assert regularity(sea).P_S == 2 and regularity(sea).F_S == 2
        assert len(kernel.states) > 0
        for s in kernel.states:
            row = kernel.rows[s]
            assert sum(row.values()) == Fraction(1)
            assert all(p == Fraction(1, 4) for p in row.values())
            assert len(row) == 4
            v = kernel.vel[s]
            l2, l1, d0, d1, r1, r2 = s
            for t in row:
                if v == 0:  # determined middle, free outer cells
                    assert t[1] == rule((l2, l1, d0))
                    assert t[2] == rule((l1, d0, d1))
                    assert t[3] == rule((d0, d1, r1))
                    assert t[4] == rule((d1, r1, r2))
                    assert t[0] in sea.predecessors(t[1])
                    assert t[5] in sea.followers(t[4])
                elif v == -1:  # determined right block, free left pair
                    assert t[2:] == (rule((l2, l1, d0)), rule((l1, d0, d1)),
                                     rule((d0, d1, r1)), rule((d1, r1, r2)))
                    assert t[0] in sea.predecessors(t[1])
                else:  # +1: determined left block, free right pair
                    assert t[:4] == (rule((l2, l1, d0)), rule((l1, d0, d1)),
                                     rule((d0, d1, r1)), rule((d1, r1, r2)))
                    assert t[5] in sea.followers(t[4])


def test_criterion_6_diffusive_statistics():
    with criterion(6, "diffusive statistics: drift and kernel rows at 1e6 steps",
                   60.0):
        rule, sea, delta, kernel = _diffusive_kernel()
        trajs, stats = sample_walks(rule, sea, sea, delta, 10_000, 100, 20260810,
                                    kernel=kernel)
        assert stats.excluded == 0
        assert abs(stats.empirical_drift) <= 0.01
        classes = stationary_and_drift(kernel)
        assert len(classes) == 1 and classes[0].drift == 0
        report = markov_property_test(stats, kernel)
        heavy = [r for r in report.rows if r.visits >= 100_000]
        assert all(r.tv <= 0.01 for r in heavy)
        # strengthen the gate so it has teeth below the visit floor too
        assert report.passed
        total = sum(r.visits for r in report.rows)
        assert total >= 990_000


def test_criterion_7_velocity_bound_fuzzing():
    with criterion(7, "velocity bounds on 1e4 random defects (54/110/184)", 60.0):
        rng = random.Random(20260811)
        systems = [
            (normalize(from_wolfram_number(184), zoo.eca184_background()), 4000),
            (normalize(from_wolfram_number(54), zoo.eca54_background()), 3000),
            (normalize(from_wolfram_number(110), zoo.eca110_ether()), 3000),
        ]
        backgrounds = {
            4000: [(0, 1), (0,), (1,)],
            3000: None,
        }
        checked = 0
        for sys, want in systems:
            comps = phi_orbit_components(sys.rule, sys.shift)
            words = []
            for comp in comps:
                start = min(comp.usable)
                cyc = [start]
                cur = comp.followers(start)[0]
                while cur != start:
                    cyc.append(cur)
                    cur = comp.followers(cur)[0]
                words.append(tuple(sys.coder.unpack(b)[0] for b in cyc))
            done = 0
            attempts = 0
            while done < want and attempts < want * 20:
                attempts += 1
                lw = rng.choice(words)
                rw = rng.choice(words)
                core = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 7)))
                cfg = periodic_config(A2, lw, core, rw,
                                      left_phase=rng.randrange(len(lw)),
                                      right_phase=rng.randrange(len(rw)))
                enc = encode_config(sys.coder, cfg)
                try:
                    if locate_defect(enc, sys.shift) is None:
                        continue
                except MultipleDefectsError:
                    continue
                traj = track(sys.rule, sys.shift, enc, 20, width_cap=40)
                assert check_velocity_bounds(traj) == []
                done += 1
            assert done == want
            checked += done
        assert checked == 10_000


def test_criterion_8_recoding_conjugacy():
    with criterion(8, "block recoding conjugacy, P in {2,3,4}", 30.0):
        rng = random.Random(4242)
        gstar = build_markov_shift(A2, [(0, 1), (1, 0)])
        cases = [
            (full_shift(A2), [54, 110, 184]),
            (gstar, [184]),
        ]
        coders = {P: higher_block(full_shift(A2), P)[1] for P in (2, 3, 4)}
        recoded = {(n, P): recode_rule(from_wolfram_number(n), coders[P])
                   for n in (54, 110, 184) for P in (2, 3, 4)}
        for shift, rules in cases:
            for i in range(1000):
                n = rules[i % len(rules)]
                rule = from_wolfram_number(n)
                P = (2, 3, 4)[i % 3]
                if shift is cases[0][0]:
                    word = tuple(rng.randrange(2)
                                 for _ in range(rng.randrange(1, 4)))
                    core = tuple(rng.randrange(2)
                                 for _ in range(rng.randrange(0, 6)))
                    phase = rng.randrange(len(word))
                    cfg = periodic_config(A2, word, core, word,
                                          origin=rng.randrange(-3, 4),
                                          left_phase=phase, right_phase=phase)
                else:
                    k = rng.randrange(0, 4)
                    core = tuple((k + j) % 2 for j in range(rng.randrange(0, 5)))
                    cfg = periodic_config(A2, (0, 1), core, (0, 1),
                                          left_phase=k % 2,
                                          right_phase=(k + len(core)) % 2)
                coder = coders[P]
                lifted = apply_rule(recoded[(n, P)], encode_config(coder, cfg))
                direct = apply_rule(rule, cfg)
                assert decode_config(coder, lifted).window(-16, 16) == \
                    direct.window(-16, 16)


def test_criterion_9_parry_properties():
    with criterion(9, "Parry measure: stationarity, entropy, invariance", 10.0):
        gm = build_markov_shift(A2, [(0, 0), (0, 1), (1, 0)])
        m = parry_measure(gm)
        residual = max(abs(sum(m.initial[a] * m.kernel[(a, b)]
                               for a in gm.predecessors(b)) - m.initial[b])
                       for b in gm.usable)
        assert residual <= 1e-12
        assert abs(m.entropy_rate() - math.log2((1 + math.sqrt(5)) / 2)) <= 1e-9
        assert abs(m.entropy_rate() - entropy(gm)) <= 1e-9
        rule = from_linear(2, (1, 1, 1))
        uniform = parry_measure(full_shift(rule.alphabet))
        pushed = pushforward_cylinders(rule, uniform, 4)
        for word, p in pushed.items():
            assert abs(p - cylinder(uniform, word)) <= 1e-12


def test_criterion_10_turing_bisimulation():
    with criterion(10, "binary increment TM == compiled CA over 200 macros",
                   30.0):
        tm = zoo.binary_increment_tm()
        comp = classical_to_lr(tm, full_shift(A2), full_shift(A2))
        rule, emb = turing_to_ca(comp.machine)
        tape0 = {-3: 0, -2: 0, -1: 1, 0: 1}
        window = 8
        state = comp.initial_state(tape0, "start", 0, window=window + 4)
        ca = emb.encode(state)
        ctape, cd, cz = dict(tape0), "start", 0
        for k in range(200):
            ctape, cd, cz = tm.step(ctape, cd, cz)
            state, micro = comp.macro_step(state)
            for _ in range(micro):
                ca = apply_rule(rule, ca)
            got_tape, got_d, got_z = comp.decode_state(emb.decode(ca),
                                                       window=window)
            assert got_d == cd and got_z == cz
            for j in range(-window, window + 1):
                assert got_tape.get(got_z + j, 0) == ctape.get(cz + j, 0)
        assert cd == "halt"
        assert [ctape.get(k, 0) for k in (-3, -2, -1, 0)] == [0, 1, 0, 0]


def test_criterion_11_regime_trichotomy():
    with criterion(11, "regime trichotomy matches exact entropy signs", 1.0):
        full = full_shift(A2)
        zero = build_markov_shift(A2, [(0, 0)])
        gstar = build_markov_shift(A2, [(0, 1), (1, 0)])
        assert regime_of(full, full) == "turing-complete"
        assert regime_of(zero, full) == "apda"
        assert regime_of(full, gstar) == "apda"
        assert regime_of(gstar, zero) == "ballistic"
        for L, R in ((full, full), (zero, full), (gstar, gstar)):
            hl, hr = entropy(L), entropy(R)
            want = ("turing-complete" if hl > 0 and hr > 0 else
                    "apda" if (hl > 0) != (hr > 0) else "ballistic")
            assert regime_of(L, R) == want


def test_criterion_12_runaway_detection():
    with criterion(12, "APDA runaway cycles: planted and pigeonhole", 10.0):
        planted = APDA(2, ("q", "r"),
                       {(0, "q"): "r", (1, "q"): "q", (0, "r"): "q",
                        (1, "r"): "q"},
                       {(0, "q"): ("push", 1), (1, "q"): ("pop",),
                        (0, "r"): ("noop",), (1, "r"): ("push", 0)})
        # (q,0) pushes 1 into state r; (r,1) pushes 0 into state q: a cycle
        cyc = detect_runaway_cycle(planted)
        assert cyc == [("q", 0), ("r", 1)]

        rng = random.Random(555)
        for trial in range(100):
            n_states = rng.randrange(2, 5)
            n_syms = rng.randrange(2, 4)
            heads = tuple(f"q{i}" for i in range(n_states))
            ups, srule = {}, {}
            for t in range(n_syms):
                for d in heads:
                    ups[(t, d)] = rng.choice(heads)
                    act = rng.choice(["push", "push", "pop", "noop"])
                    srule[(t, d)] = ("push", rng.randrange(n_syms)) \
                        if act == "push" else (act,)
            apda = APDA(n_syms, heads, ups, srule)
            bound = n_states * n_syms
            on_cycle = {node for c in runaway_cycles(apda) for node in c}
            stack = [rng.randrange(n_syms) for _ in range(600)]
            hist = run_apda(apda, heads[0], stack, 400)
            streak = 0
            for d, t, v in hist:
                streak = streak + 1 if v == -1 else 0
                if streak > bound:
                    assert (d, t) in on_cycle
