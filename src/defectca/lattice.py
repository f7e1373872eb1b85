"""Finitely presented bi-infinite configurations and rule application.

A configuration is a left background, a finite core word, and a right
background.  Backgrounds are periodic words anchored to absolute
coordinates, so shifting is phase arithmetic.
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

    def image(self, rule: LocalRule) -> "PeriodicBackground":
        n, r = len(self.word), rule.radius
        ext = tuple(self.word[(k - r) % n] for k in range(n + 2 * r))
        return PeriodicBackground(rule.image_word(ext), self.phase)

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
        return tuple(self.cell(z) for z in range(lo, hi))

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
    length stays bounded while the defect does.
    """
    r = rule.radius
    lo = config.origin - r
    core = rule.image_word(config.window(lo - r, config.end + 2 * r))
    left, right = config.left.image(rule), config.right.image(rule)
    i, j = 0, len(core)
    while i < j and core[i] == left.cell(lo + i):
        i += 1
    while j > i and core[j - 1] == right.cell(lo + j - 1):
        j -= 1
    return Configuration(config.alphabet, left, core[i:j], right, lo + i)


def encode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Recode a configuration into the overlapping block presentation.

    Block cell z holds the source window [z, z+P); backgrounds must be
    periodic.
    """
    if coder.kind != "block":
        raise ValueError("only block coders encode configurations")
    P = coder.P
    if not isinstance(config.left, PeriodicBackground) or \
       not isinstance(config.right, PeriodicBackground):
        raise TypeError("configuration recoding needs periodic backgrounds")

    def block_bg(bg: PeriodicBackground) -> PeriodicBackground:
        n = len(bg.word)
        word = tuple(coder.pack(tuple(bg.word[(k + d) % n] for d in range(P)))
                     for k in range(n))
        return PeriodicBackground(word, bg.phase)

    lo = config.origin - P + 1
    hi = config.end
    core = tuple(coder.pack(config.window(z, z + P)) for z in range(lo, hi))
    return Configuration(coder.target, block_bg(config.left), core,
                         block_bg(config.right), lo)


def decode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Invert :func:`encode_config` on consistent block configurations."""
    if coder.kind != "block":
        raise ValueError("only block coders decode configurations")

    def unblock_bg(bg: PeriodicBackground) -> PeriodicBackground:
        word = tuple(coder.unpack(b)[0] for b in bg.word)
        return PeriodicBackground(word, bg.phase)

    core = coder.decode_word(config.core) if config.core else ()
    return Configuration(coder.source, unblock_bg(config.left), core,
                         unblock_bg(config.right), config.origin)


def power_encode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Recode into the non-overlapping power presentation at the coder's phase.

    Block cell z holds the source cells [Wz + phase, W(z+1) + phase).
    """
    if coder.kind != "power":
        raise ValueError("need a power coder")
    W, ph = coder.P, coder.phase
    if not isinstance(config.left, PeriodicBackground) or \
       not isinstance(config.right, PeriodicBackground):
        raise TypeError("configuration recoding needs periodic backgrounds")

    def block_bg(bg: PeriodicBackground, anchor: int) -> PeriodicBackground:
        n = len(bg.word)
        m = math.lcm(n, W) // W
        word = tuple(coder.pack(tuple(bg.cell(W * (anchor + j) + ph + i)
                                      for i in range(W)))
                     for j in range(m))
        return PeriodicBackground(word, (-anchor) % m)

    lo = (config.origin - ph) // W  # floor: first block touching the core
    hi = -((-(config.end - ph)) // W)  # ceil
    core = tuple(coder.pack(config.window(W * j + ph, W * (j + 1) + ph))
                 for j in range(lo, hi))
    return Configuration(coder.target, block_bg(config.left, lo), core,
                         block_bg(config.right, hi), lo)


def power_decode_config(coder: BlockCoder, config: Configuration) -> Configuration:
    """Invert :func:`power_encode_config`."""
    if coder.kind != "power":
        raise ValueError("need a power coder")
    W, ph = coder.P, coder.phase

    def unblock_bg(bg: PeriodicBackground, anchor: int) -> PeriodicBackground:
        cells = []
        for j in range(len(bg.word)):
            cells.extend(coder.unpack(bg.cell(anchor + j)))
        word = tuple(cells)
        return PeriodicBackground(word, (-(W * anchor + ph)) % len(word))

    core = tuple(s for b in config.core for s in coder.unpack(b))
    return Configuration(coder.source, unblock_bg(config.left, config.origin),
                         core, unblock_bg(config.right, config.end),
                         W * config.origin + ph)
