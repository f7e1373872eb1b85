"""Differential oracles for the window reader and the stepper.

``Configuration.window`` and ``PeriodicBackground.cells`` read by slices,
``Configuration.splice`` rewrites a span and moves the right background;
``apply_rule`` trims its core and ``track`` reads one window per step.  Each
is checked here against the plainest definition: one ``cell`` call per
cell, one rule-table lookup per neighbourhood, and a stepper that updates
every cell of the untrimmed window [origin - r*t - pad, end + r*t + pad).
Rules are random radius-1 and radius-2 tables over 2-4 symbols on random
backgrounds of period <= 4, most of which do not keep the backgrounds'
shift invariant, so every verdict (particle, blight, vanished, split)
occurs.
"""

import random
from dataclasses import replace
from itertools import product

from hypothesis import given, settings, strategies as st

from defectca.lattice import Configuration, PeriodicBackground, apply_rule
from defectca.rules import rule_from_table
from defectca.shifts import Alphabet, build_markov_shift
from defectca.tracking import track

PAD = 2  # cells of background kept beyond the light cone on each side


def words(n, min_size=1, max_size=4):
    return st.lists(st.integers(0, n - 1), min_size=min_size,
                    max_size=max_size).map(tuple)


@st.composite
def configurations(draw):
    n = draw(st.integers(2, 4))
    alpha = Alphabet(tuple(map(str, range(n))))
    left = PeriodicBackground(draw(words(n)), draw(st.integers(-4, 4)))
    right = PeriodicBackground(draw(words(n)), draw(st.integers(-4, 4)))
    core = draw(words(n, 0, 6))
    return Configuration(alpha, left, core, right, draw(st.integers(-4, 4)))


@st.composite
def rule_tables(draw, n):
    """A radius-1 or radius-2 table: random, a copy of one neighbour, or a
    copy of the centre with a few random entries changed."""
    r = draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nbhds = list(product(range(n), repeat=2 * r + 1))
    kind = draw(st.sampled_from(["random", "copy", "sparse"]))
    if kind == "random":
        return r, {w: rng.randrange(n) for w in nbhds}
    table = {w: w[rng.randrange(2 * r + 1) if kind == "copy" else r] for w in nbhds}
    if kind == "sparse":
        for w in rng.sample(nbhds, rng.randrange(1, 9)):
            table[w] = rng.randrange(n)
    return r, table


@st.composite
def stepper_cases(draw):
    cfg = draw(configurations())
    n = cfg.alphabet.size
    r, table = draw(rule_tables(n))
    return cfg, r, table, draw(st.integers(1, 6))


def bg_cell(word, phase, z):
    return word[(z + phase) % len(word)]


def ref_periodic_image(table, r, word):
    n = len(word)
    return tuple(table[tuple(word[(m + d) % n] for d in range(-r, r + 1))]
                 for m in range(n))


def ref_run(table, r, cfg, T):
    """(t, lo, cells, left, right) for t = 0..T: the untrimmed window
    [origin - r*t - PAD, end + r*t + PAD) and each background's (word,
    phase), every cell updated by one table lookup."""
    left = cfg.left.word, cfg.left.phase
    right = cfg.right.word, cfg.right.phase
    lo, hi = cfg.origin - PAD, cfg.end + PAD
    cells = tuple(cfg.cell(z) for z in range(lo, hi))
    out = [(0, lo, cells, left, right)]
    for t in range(1, T + 1):
        ext = tuple(bg_cell(*left, z) for z in range(lo - 2 * r, lo)) + cells + \
            tuple(bg_cell(*right, z) for z in range(hi, hi + 2 * r))
        cells = tuple(table[ext[j:j + 2 * r + 1]] for j in range(len(ext) - 2 * r))
        lo, hi = lo - r, hi + r
        left = ref_periodic_image(table, r, left[0]), left[1]
        right = ref_periodic_image(table, r, right[0]), right[1]
        out.append((t, lo, cells, left, right))
    return out


def ref_track(run, edges, width_cap):
    """Records (t, z, L, R, word) and verdict (kind, width, t), from every
    transition of the untrimmed window."""
    records = []
    for t, lo, cells, _, _ in run:
        bad = [lo + j for j in range(len(cells) - 1)
               if (cells[j], cells[j + 1]) not in edges]
        if not bad:
            return records, ("vanished", None, t)
        if bad[-1] - bad[0] != len(bad) - 1:
            return records, ("split", None, t)
        i, k = bad[0], bad[-1]
        w = k - i
        if w > width_cap:
            return records, ("blight", None, t)
        L, R = (w + 1) // 2 - 1, w // 2
        records.append((t, i + L + 1, L, R, cells[i + 1 - lo:k + 1 - lo]))
    return records, ("particle", max(L + R + 1 for _, _, L, R, _ in records), None)


def periodic_edges(word):
    return {(word[m], word[(m + 1) % len(word)]) for m in range(len(word))}


class TestWindowOracle:
    @given(configurations())
    @settings(max_examples=60, deadline=None)
    def test_window_matches_cells(self, cfg):
        # every placement of [lo, hi) against the core: empty, inverted,
        # inside one tile, across one or both boundaries
        o, e = cfg.origin, cfg.end
        for lo in range(o - 6, e + 7):
            for hi in range(lo - 2, e + 8):
                assert cfg.window(lo, hi) == \
                    tuple(cfg.cell(z) for z in range(lo, hi)), (lo, hi)

    @given(configurations(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_splice_matches_cells(self, cfg, data):
        # inserts, deletes and equal-length writes with lo and hi inside,
        # around and outside the core; the cells from hi on move by
        # len(cells) - (hi - lo), background cells included
        n = cfg.alphabet.size
        drawn = data.draw(words(n, 1, 3))
        o, e = cfg.origin, cfg.end
        for lo in range(o - 5, e + 6):
            for hi in range(lo, e + 7):
                for cells in (drawn, (), drawn[:1] * (hi - lo)):
                    new = cfg.splice(lo, hi, cells)
                    end = lo + len(cells)
                    move = end - hi
                    want = tuple(cfg.cell(z) for z in range(o - 12, lo)) + cells + \
                        tuple(cfg.cell(z - move) for z in range(end, e + move + 12))
                    assert tuple(new.cell(z) for z in range(o - 12, e + move + 12)) == \
                        want, (lo, hi, cells)

    @given(words(4), st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def test_background_cells_match_cell(self, word, phase):
        bg = PeriodicBackground(word, phase)
        for lo in range(-10, 10):
            for hi in range(lo - 2, lo + 14):
                assert bg.cells(lo, hi) == \
                    tuple(bg.cell(z) for z in range(lo, hi)), (lo, hi)


class TestImageOracle:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_image_word_and_periodic_image(self, data):
        n = data.draw(st.integers(2, 4))
        r, table = data.draw(rule_tables(n))
        word = data.draw(words(n, 0, 12))
        periods = data.draw(st.lists(words(n), min_size=2, max_size=2))
        rule = rule_from_table(Alphabet(tuple(map(str, range(n)))), r, table)
        ref = tuple(table[word[j:j + 2 * r + 1]] for j in range(len(word) - 2 * r))
        # cold memo, partly warm memo, warm memo
        assert rule.image_word(word) == ref
        assert rule.image_word(word[1:]) == ref[1:]
        assert rule.image_word(word) == ref
        # two periods through one memo, each read twice
        for period in periods + periods:
            assert rule.periodic_image(period) == ref_periodic_image(table, r, period)
        bg = PeriodicBackground(periods[0], 3).image(rule)
        for z in range(-8, 8):
            nbhd = tuple(bg_cell(periods[0], 3, z + d) for d in range(-r, r + 1))
            assert bg.cell(z) == table[nbhd]


class TestStepperOracle:
    @given(stepper_cases())
    @settings(max_examples=100, deadline=None)
    def test_apply_rule_matches_untrimmed_stepper(self, case):
        cfg, r, table, T = case
        rule = rule_from_table(cfg.alphabet, r, table)
        cur = cfg
        for t, lo, cells, left, right in ref_run(table, r, cfg, T):
            hi = lo + len(cells)
            if t:
                cur = apply_rule(rule, cur)
                # the core lies in the light cone and is trimmed at both ends
                assert lo + PAD <= cur.origin and cur.end <= hi - PAD
                if cur.core:
                    assert cur.core[0] != cur.left.cell(cur.origin)
                    assert cur.core[-1] != cur.right.cell(cur.end - 1)
            assert cur.window(lo, hi) == cells, t
            assert cur.left.cells(lo - 12, lo) == \
                tuple(bg_cell(*left, z) for z in range(lo - 12, lo)), t
            assert cur.right.cells(hi, hi + 12) == \
                tuple(bg_cell(*right, z) for z in range(hi, hi + 12)), t

    @given(stepper_cases(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_track_matches_untrimmed_stepper(self, case, data):
        cfg, r, table, T = case
        n = cfg.alphabet.size
        rule = rule_from_table(cfg.alphabet, r, table)
        # every background image up to T is admissible; a transition they
        # all lack is planted in the core and left out of the shift, so the
        # seed holds a defect, and the rule need not keep the shift invariant
        bg_edges = set()
        for word in (cfg.left.word, cfg.right.word):
            for _ in range(T + 1):
                bg_edges |= periodic_edges(word)
                word = ref_periodic_image(table, r, word)
        edges = bg_edges | data.draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
        missing = sorted(set(product(range(n), repeat=2)) - bg_edges)
        if missing:
            planted = data.draw(st.sampled_from(missing))
            edges.discard(planted)
            cfg = replace(cfg, core=cfg.core + planted)
        shift = build_markov_shift(cfg.alphabet, edges)
        run = ref_run(table, r, cfg, T)
        # hypothesis favours small draws; map them to wide caps
        width_cap = data.draw(st.integers(0, 6).map(lambda c: 6 - c))
        want_records, want_verdict = ref_track(run, shift.edges, width_cap)
        traj = track(rule, shift, cfg, T, width_cap=width_cap)
        assert [(rec.t, rec.z, rec.L, rec.R, rec.word) for rec in traj.records] == \
            want_records
        v = traj.verdict
        assert (v.kind, v.width, v.t) == want_verdict
