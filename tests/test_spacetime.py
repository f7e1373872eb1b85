"""Spacetime diagrams against their plainest definitions.

``io.spacetime_rows`` reads each row as one window and scans only the
core's transitions and one period of each background for the defect mask;
``io.render_spacetime`` writes a P1 body by one byte translation.  Both are
checked here against per-cell references: one ``cell`` call per cell, every
transition of the row looked up in the shift's edges, and one ``str`` call
per pixel.
"""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from defectca import io as dio, zoo
from defectca.errors import DefectcaError
from defectca.lattice import (PeriodicBackground, apply_rule, encode_config,
                              periodic_config)
from defectca.rules import from_wolfram_number, normalize
from defectca.shifts import Alphabet, binary_alphabet

A2 = binary_alphabet()

BACKGROUNDS = {184: zoo.eca184_background, 54: zoo.eca54_background,
               110: zoo.eca110_ether}
# source period words each background admits
PERIODS = {184: [(0,), (1,), (0, 1)], 54: [(0, 0, 1, 0), (1, 1, 0, 1)],
           110: [zoo.ETHER]}


@functools.cache
def _system(n):
    return normalize(from_wolfram_number(n), BACKGROUNDS[n]())


def _encoded(n, left, core, right, origin=0, left_phase=0, right_phase=0):
    sys = _system(n)
    return sys, encode_config(sys.coder, periodic_config(
        A2, left, core, right, origin, left_phase, right_phase))


def _ref_spacetime_rows(rule, config, steps, lo, hi, shift=None):
    """Rows read cell by cell, and masks from every transition of the row
    [lo - 1, hi + 1), as lists of bools."""
    rows, masks = [], []
    cur = config
    for _ in range(steps):
        row = [cur.cell(z) for z in range(lo - 1, hi + 1)]
        rows.append(tuple(row[1:-1]))
        if shift is None:
            masks.append([False] * (hi - lo))
        else:
            bad = [(row[j], row[j + 1]) not in shift.edges
                   for j in range(len(row) - 1)]
            masks.append([bad[j] or bad[j + 1] for j in range(hi - lo)])
        cur = apply_rule(rule, cur)
    return rows, masks


def _ref_render(rows, alphabet, highlight=None):
    """One ``str`` per pixel, lines joined by newlines."""
    width = len(rows[0])
    if alphabet.size == 2:
        lines = ["P1", f"{width} {len(rows)}"]
        lines += [" ".join(str(int(s)) for s in r) for r in rows]
    else:
        levels = alphabet.size - 1
        lines = ["P2", f"{width} {len(rows)}", "255"]
        lines += [" ".join(str(int(round(255 * s / levels))) for s in r)
                  for r in rows]
    image = ("\n".join(lines) + "\n").encode()
    if highlight is None:
        return image, None
    mlines = ["P1", f"{width} {len(rows)}"]
    mlines += [" ".join("1" if b else "0" for b in r) for r in highlight]
    return image, ("\n".join(mlines) + "\n").encode()


def bits(min_size=1, max_size=4):
    return st.lists(st.integers(0, 1), min_size=min_size,
                    max_size=max_size).map(tuple)


@st.composite
def block_configs(draw):
    """(system, configuration): a source configuration in a block
    presentation.  Random source backgrounds are mostly forbidden at every
    residue of their period; when one symbol of each block background word
    is changed and its phase redrawn, a background forbids one or two."""
    n = draw(st.sampled_from(sorted(BACKGROUNDS)))
    period = st.one_of(bits(), st.sampled_from(PERIODS[n]))
    phase = st.integers(-5, 5)
    sys, cfg = _encoded(n, draw(period), draw(bits(0, 6)), draw(period),
                        draw(st.integers(-4, 4)), draw(phase), draw(phase))
    if draw(st.booleans()):
        def perturb(bg):
            word = list(bg.word)
            word[draw(st.integers(0, len(word) - 1))] = \
                draw(st.integers(0, sys.rule.alphabet.size - 1))
            return PeriodicBackground(tuple(word), draw(phase))
        cfg = replace(cfg, left=perturb(cfg.left), right=perturb(cfg.right))
    return sys, cfg


class TestSpacetimeRowsOracle:
    """Block presentations of #184, #54 and #110 with backgrounds that the
    block shift admits, forbids everywhere or forbids at one residue;
    windows land on the core, beside it or inside one background."""

    @given(block_configs(), st.integers(-40, 40), st.integers(1, 40),
           st.integers(1, 30))
    @example(_encoded(184, (0, 1), (0, 0, 1, 0), (1, 1), left_phase=1),
             -20, 40, 30)
    @example(_encoded(54, (0, 0, 1, 0), (), (1, 1, 0, 1), right_phase=3),
             10, 20, 30)
    @example(_encoded(110, zoo.ETHER, (), zoo.ETHER, right_phase=8),
             -40, 30, 10)
    @settings(max_examples=150, deadline=None)
    def test_rows_and_masks_match_reference(self, system, lo, width, T):
        sys, cfg = system
        hi = lo + width
        rows, masks = dio.spacetime_rows(sys.rule, cfg, T, lo, hi,
                                         shift=sys.shift)
        want_rows, want_masks = _ref_spacetime_rows(sys.rule, cfg, T, lo, hi,
                                                    shift=sys.shift)
        assert rows == want_rows
        assert masks == [bytes(m) for m in want_masks]

    def test_source_rows_share_one_blank_mask(self):
        rule = from_wolfram_number(54)
        cfg = periodic_config(A2, (0, 0, 1, 0), (), (1, 1, 0, 1),
                              right_phase=3)
        rows, masks = dio.spacetime_rows(rule, cfg, 20, -30, 30)
        assert rows == _ref_spacetime_rows(rule, cfg, 20, -30, 30)[0]
        assert masks == [bytes(60)] * 20
        assert all(m is masks[0] for m in masks)

    @pytest.mark.parametrize("lo,hi", [(0, 0), (5, -5)])
    def test_empty_window_rejected(self, lo, hi):
        rule = from_wolfram_number(184)
        cfg = periodic_config(A2, (0, 1), (), (1, 1))
        with pytest.raises(DefectcaError, match=r"window \[.*\) holds no cell"):
            dio.spacetime_rows(rule, cfg, 3, lo, hi)


class _CountingSet(frozenset):
    tests = 0

    def __contains__(self, item):
        self.tests += 1
        return super().__contains__(item)


class TestScanCost:
    def test_mask_scans_core_and_one_period_per_background(self):
        # the demo's gamma+ dislocation meeting the jam wall, in a width-300
        # window; scanning the whole row costs 301 edge tests a step
        sys, cfg = _encoded(184, (0, 1), (0, 0, 1, 0), (1, 1), left_phase=1)
        edges = _CountingSet(sys.shift.edges)
        T = 100
        _, masks = dio.spacetime_rows(sys.rule, cfg, T, -150, 150,
                                      shift=replace(sys.shift, edges=edges))
        assert sum(map(sum, masks)) > 0
        assert edges.tests <= 20 * T


class TestRenderOracle:
    @given(st.integers(2, 5), st.integers(1, 5), st.integers(1, 12),
           st.sampled_from(["bools", "tuples", "bytes"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pixel_renderer(self, n, height, width, form, data):
        alphabet = Alphabet(tuple(map(str, range(n))))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=width,
                     max_size=width).map(tuple),
            min_size=height, max_size=height))
        mask = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=width, max_size=width),
            min_size=height, max_size=height))
        as_form = {"bools": lambda r: [bool(b) for b in r], "tuples": tuple,
                   "bytes": bytes}[form]
        highlight = [as_form(r) for r in mask]
        assert dio.render_spacetime(rows, alphabet, highlight) == \
            _ref_render(rows, alphabet, highlight)
        assert dio.render_spacetime(rows, alphabet) == _ref_render(rows, alphabet)

    def test_three_symbol_pgm_digest(self):
        # a wall-walker diagram over all three symbols, digest taken with the
        # per-pixel renderer
        cfg = periodic_config(zoo.WALL_ALPHABET, (1, 2, 2), (0, 2), (2, 1),
                              left_phase=1)
        rows, _ = dio.spacetime_rows(zoo.wall_rule(), cfg, 40, -30, 30)
        image, _ = dio.render_spacetime(rows, zoo.WALL_ALPHABET)
        assert hashlib.sha256(image).hexdigest() == \
            "ef2edc008f45c131c67202b9f77c0b6a1ba41d0a3b076c7eb25bf62b41b9c0c1"


class TestRenderRejects:
    @pytest.mark.parametrize("rows,alphabet,match", [
        ([], A2, "has no rows"),
        ([(), ()], A2, "row 0 is empty"),
        ([(0, 1), (0,)], A2, "row 1 has 1 cells, row 0 has 2"),
        ([(0, 1), (0, 2)], A2, r"row 1 holds 2, not a value in 0\.\.1"),
        ([(0, 1), (300, 1)], A2, r"row 1 holds 300, not a value in 0\.\.1"),
        ([(-1, 1)], A2, r"row 0 holds -1, not a value in 0\.\.1"),
        ([(0, "1")], A2, r"row 0 holds '1', not a value in 0\.\.1"),
        ([(0, 1), (3, 1)], zoo.WALL_ALPHABET,
         r"row 1 holds 3, not a value in 0\.\.2"),
        ([(0, -1)], zoo.WALL_ALPHABET, r"row 0 holds -1, not a value in 0\.\.2"),
        # an int64 array is a buffer of 8 bytes a cell
        ([np.array([0, 1])], A2, "rows do not read as one byte per cell"),
    ])
    def test_bad_rows(self, rows, alphabet, match):
        with pytest.raises(DefectcaError, match=f"spacetime diagram {match}"):
            dio.render_spacetime(rows, alphabet)

    @pytest.mark.parametrize("mask,match", [
        ([(0, 1), (1, 2)], r"mask row 1 holds 2, not a value in 0\.\.1"),
        ([b"\x00\x01", b"\x00\x05"], r"mask row 1 holds 5, not a value"),
        ([(0, 1)], "mask is not 2 by 2 cells"),
        ([(0, 1), (1,)], "mask row 1 has 1 cells"),
        ([(0, 1, 0), (1, 1, 0)], "mask is not 2 by 2 cells"),
    ])
    def test_bad_masks(self, mask, match):
        with pytest.raises(DefectcaError, match=match):
            dio.render_spacetime([(0, 1), (1, 0)], A2, highlight=mask)
