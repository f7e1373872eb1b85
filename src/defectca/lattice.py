"""Finitely presented bi-infinite configurations and rule application.

A configuration is a left background, a finite core word, and a right
background.  Backgrounds are periodic words anchored to absolute
coordinates, so shifting is phase arithmetic.
"""

from __future__ import annotations

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
        n = len(self.word)
        r = rule.radius
        new = tuple(
            rule(tuple(self.word[(k + d) % n] for d in range(-r, r + 1)))
            for k in range(n)
        )
        return PeriodicBackground(new, self.phase)

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

    def with_window(self, lo: int, hi: int) -> "Configuration":
        """Re-root the core onto [lo, hi), preserving every cell value.

        Core cells outside [lo, hi) are dropped only when they match their
        background; mismatching cells stay, widening the window as needed.
        """
        new_lo = lo
        if self.origin < lo:
            z = self.origin
            while z < lo and self.core[z - self.origin] == self.left.cell(z):
                z += 1
            new_lo = min(z, lo)
        new_hi = hi
        if self.end > hi:
            z = self.end - 1
            while z >= hi and self.core[z - self.origin] == self.right.cell(z):
                z -= 1
            new_hi = max(z + 1, hi)
        return Configuration(self.alphabet, self.left,
                             self.window(new_lo, new_hi), self.right, new_lo)


def periodic_config(alphabet: Alphabet, left_word: Sequence[int], core: Sequence[int],
                    right_word: Sequence[int], origin: int = 0,
                    left_phase: int = 0, right_phase: int = 0) -> Configuration:
    return Configuration(alphabet, PeriodicBackground(tuple(left_word), left_phase),
                         tuple(core), PeriodicBackground(tuple(right_word), right_phase),
                         origin)


def apply_rule(rule: LocalRule, config: Configuration) -> Configuration:
    """One synchronous update of the whole configuration.

    The core grows by the rule radius on each side.  Backgrounds are
    replaced by their image words (same period and anchoring).
    """
    r = rule.radius
    lo, hi = config.origin - r, config.end + r
    src = config.window(lo - r, hi + r)
    k = 2 * r + 1
    new_core = tuple(rule(src[j:j + k]) for j in range(hi - lo))
    return Configuration(config.alphabet, config.left.image(rule), new_core,
                         config.right.image(rule), lo)


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
    import math as _math

    def block_bg(bg: PeriodicBackground, anchor: int) -> PeriodicBackground:
        n = len(bg.word)
        m = _math.lcm(n, W) // W
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
