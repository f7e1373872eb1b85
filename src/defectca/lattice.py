"""Finitely presented bi-infinite configurations and rule application.

A configuration is a left background, a finite core word, and a right
background.  Backgrounds are periodic words anchored to absolute
coordinates, so shifting is phase arithmetic.  Windows are read by slices,
not cell by cell: :meth:`Configuration.window` joins at most three (left
tile, core, right tile), and :meth:`PeriodicBackground.cells` tiles a
background span by rotating its period once and repeating it.  Background
images come from :meth:`~defectca.rules.LocalRule.periodic_image`, which the
rule memoises by period word.  :meth:`Configuration.splice` replaces a
span of cells with a word of any length, moving the right background along.

:func:`encode_config` and :func:`decode_config` recode configurations
through a :class:`~defectca.shifts.BlockCoder`: block cell z holds the
source window [stride*z, stride*z + P), so the source shift by ``stride``
cells is the block shift by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .rules import LocalRule
from .shifts import Alphabet, BlockCoder, Word


@dataclass(frozen=True)
class PeriodicBackground:
    """cell(z) = word[(z + phase) % len(word)] on the background's domain."""

    word: Word
    phase: int = 0

    def cell(self, z: int) -> int:
        return self.word[(z + self.phase) % len(self.word)]

    def cells(self, lo: int, hi: int) -> Word:
        """The cells [lo, hi): the period rotated to start at lo, repeated."""
        if hi <= lo:
            return ()
        w = self.word
        k = (lo + self.phase) % len(w)
        rot = w[k:] + w[:k]
        return (rot * -((lo - hi) // len(w)))[:hi - lo]

    def image(self, rule: LocalRule) -> "PeriodicBackground":
        return PeriodicBackground(rule.periodic_image(self.word), self.phase)

    def shifted(self, k: int) -> "PeriodicBackground":
        return PeriodicBackground(self.word, (self.phase + k) % len(self.word))


@dataclass(frozen=True)
class Configuration:
    """A bi-infinite point: left background | core | right background.

    The core occupies cells [origin, origin + len(core)).
    """

    alphabet: Alphabet
    left: PeriodicBackground
    core: Word
    right: PeriodicBackground
    origin: int = 0

    @property
    def end(self) -> int:
        return self.origin + len(self.core)

    def cell(self, z: int) -> int:
        if z < self.origin:
            return self.left.cell(z)
        if z < self.end:
            return self.core[z - self.origin]
        return self.right.cell(z)

    def window(self, lo: int, hi: int) -> Word:
        """The cells [lo, hi): left tile, core slice and right tile."""
        o = self.origin
        e = o + len(self.core)
        if hi <= e:
            if hi <= o:
                return self.left.cells(lo, hi)
            if lo >= o:
                return self.core[lo - o:hi - o]
            return self.left.cells(lo, o) + self.core[:hi - o]
        if lo >= e:
            return self.right.cells(lo, hi)
        if lo >= o:
            return self.core[lo - o:] + self.right.cells(e, hi)
        return self.left.cells(lo, o) + self.core + self.right.cells(e, hi)

    def splice(self, lo: int, hi: int, cells: Sequence[int]) -> "Configuration":
        """Replace the cells [lo, hi), lo <= hi, with ``cells``; the cells
        from hi on move by len(cells) - (hi - lo)."""
        o = min(self.origin, lo)
        core = self.window(o, lo) + tuple(cells) + self.window(hi, max(self.end, hi))
        return Configuration(self.alphabet, self.left, core,
                             self.right.shifted(hi - lo - len(cells)), o)

    def shifted(self, k: int) -> "Configuration":
        """The shift sigma^k: new.cell(z) = old.cell(z + k)."""
        return Configuration(self.alphabet, self.left.shifted(k), self.core,
                             self.right.shifted(k), self.origin - k)


def periodic_config(alphabet: Alphabet, left_word: Sequence[int], core: Sequence[int],
                    right_word: Sequence[int], origin: int = 0,
                    left_phase: int = 0, right_phase: int = 0) -> Configuration:
    return Configuration(alphabet, PeriodicBackground(tuple(left_word), left_phase),
                         tuple(core), PeriodicBackground(tuple(right_word), right_phase),
                         origin)


def apply_rule(rule: LocalRule, config: Configuration) -> Configuration:
    """One synchronous update of the whole configuration.

    Backgrounds are replaced by their image words (same period and
    anchoring).  The new core is the image of the old core's light cone,
    trimmed to the cells that differ from the new backgrounds, so its
    length stays bounded while the defect does; each side's trim compares
    against one slice of its background.
    """
    r = rule.radius
    lo = config.origin - r
    core = rule.image_word(config.window(lo - r, config.end + 2 * r))
    left, right = config.left.image(rule), config.right.image(rule)
    i, j = 0, len(core)
    lcells = left.cells(lo, lo + j)
    while i < j and core[i] == lcells[i]:
        i += 1
    rcells = right.cells(lo + i, lo + j)
    while j > i and core[j - 1] == rcells[j - 1 - i]:
        j -= 1
    return Configuration(config.alphabet, left, core[i:j], right, lo + i)


def encode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Recode a configuration into the coder's block presentation.

    Block cell z holds the source window [s*z, s*z + P) for stride s.  The
    core holds every block that touches the source core.
    """
    P, s = coder.P, coder.stride

    def block_bg(bg: PeriodicBackground) -> PeriodicBackground:
        # word j holds the block at s*(j - phase), so the block phase is
        # the source phase
        m = math.lcm(len(bg.word), s) // s
        lo = -s * bg.phase
        return PeriodicBackground(coder.encode_word(bg.cells(lo, lo + s * (m - 1) + P)),
                                  bg.phase)

    lo = -((P - 1 - config.origin) // s)  # ceil: first block touching the core
    hi = -(-config.end // s)  # ceil: one past the last
    core = coder.encode_word(config.window(s * lo, s * hi + P - s)) if hi > lo else ()
    return Configuration(coder.target, block_bg(config.left), core,
                         block_bg(config.right), lo)


def decode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Invert :func:`encode_config` on consistent block configurations."""
    s = coder.stride

    def unblock_bg(bg: PeriodicBackground) -> PeriodicBackground:
        word = tuple(x for b in bg.word for x in coder.unpack(b)[:s])
        return PeriodicBackground(word, s * bg.phase)

    return Configuration(coder.source, unblock_bg(config.left),
                         coder.decode_word(config.core), unblock_bg(config.right),
                         s * config.origin)
