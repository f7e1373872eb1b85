"""Worked systems used throughout the tests and demos.

Display conventions differ per system: the ECA#184 background G and the
ECA#110 ether read black cells as 0, the ECA#54 background reads them as 1.
Every dynamical fact asserted about these systems is verified mechanically
in the test suite.
"""

from __future__ import annotations

from .rules import LocalRule
from .shifts import (
    Alphabet,
    MarkovShift,
    SFT,
    binary_alphabet,
    build_markov_shift,
    build_sft,
    full_shift,
    periodic_orbit_sft,
)
from .turing import ClassicalTM

# ECA#184: the 3-word background G = G* ∪ {0^inf} ∪ {1^inf}
G3_WORDS = ((0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 0))

# ECA#54: union of the two 4-periodic orbits, as admissible 4-words
B54_WORDS = tuple(sorted({tuple(w[(i + k) % 4] for i in range(4))
                          for w in ((0, 0, 1, 0), (1, 1, 0, 1)) for k in range(4)}))

# ECA#110: the 14-periodic ether
ETHER = tuple(int(c) for c in "00010011011111")


def eca184_background() -> SFT:
    return build_sft(binary_alphabet(), 3, G3_WORDS)


def eca54_background() -> SFT:
    return build_sft(binary_alphabet(), 4, B54_WORDS)


def eca110_ether() -> SFT:
    return periodic_orbit_sft(binary_alphabet(), ETHER)


# ---------------------------------------------------------------------------
# The diffusive example: a marked random walker over a mod-2 linear sea
# ---------------------------------------------------------------------------

# symbols: (value, marked); indices 0="0", 1="1", 2="0*", 3="1*"
DIFFUSIVE_ALPHABET = Alphabet(("0", "1", "0*", "1*"))


def _val(s: int) -> int:
    return s & 1


def _marked(s: int) -> bool:
    return s >= 2


def _sym(val: int, marked: bool) -> int:
    return (val & 1) + (2 if marked else 0)


def _diffusive_fn(w):
    (am, a0, a1) = (_val(s) for s in w)
    (mm, m0, m1) = (_marked(s) for s in w)
    if not (mm or m0 or m1):
        a = (am + a0 + a1) % 2
    elif not mm and not m0 and m1:
        a = (am + a0) % 2
    elif mm and not m0 and not m1:
        a = (a0 + a1) % 2
    elif m0:
        a = 1 - a0
    else:
        # both outer neighbors marked: unreachable with a single defect
        a = (am + a1) % 2
    if mm and am == 0 and a0 == 0:
        m = True
    elif m1 and a0 == 1 and a1 == 1:
        m = True
    elif m0 and a0 == 0 and a1 == 0:
        m = False
    elif m0 and am == 1 and a0 == 1:
        m = False
    else:
        m = m0
    return _sym(a, m)


def diffusive_rule() -> LocalRule:
    """The marked-walker rule: acts as the mod-2 three-sum on unmarked cells;
    the mark hops left when (l1, d0) = (1, 1) and right when (d0, r1) = (0, 0)."""
    return LocalRule(DIFFUSIVE_ALPHABET, 1, _diffusive_fn, name="marked-walker")


def diffusive_background() -> MarkovShift:
    """L = R: the full shift on the unmarked subalphabet."""
    return full_shift(DIFFUSIVE_ALPHABET, (0, 1))


def diffusive_marked_symbols() -> tuple[int, int]:
    return (2, 3)


# ---------------------------------------------------------------------------
# A wall/noise system for walks with one frozen side: a frozen
# symbol on the left, a right-permutative mod-2 sea on the right
# ---------------------------------------------------------------------------

WALL_ALPHABET = Alphabet(("w", "0", "1"))  # symbol 0 = wall; 1, 2 = bits 0, 1


def wall_rule() -> LocalRule:
    """Boundary walker: the wall front advances right over a (0,0) bit pair,
    retreats left from a 1-bit (vacating a 0), and the bit sea runs the
    mod-2 three-sum."""
    def fn(w):
        a, b, c = w
        if b == 0:  # wall cell
            if a == 0 and c != 0:
                return 0 if c == 1 else 1  # survives over a 0-bit, eaten by a 1
            return 0
        if a == 0:  # first sea cell right of the wall
            if c == 0:
                return 1  # enclosed bit: unreachable with a single boundary
            return 0 if (b, c) == (1, 1) else ((b - 1) + (c - 1)) % 2 + 1
        if c == 0:  # bit left of a wall: unreachable with this orientation
            return ((a - 1) + (b - 1)) % 2 + 1
        return ((a - 1) + (b - 1) + (c - 1)) % 2 + 1

    return LocalRule(WALL_ALPHABET, 1, fn, name="wall-walker")


def wall_left_shift() -> MarkovShift:
    return build_markov_shift(WALL_ALPHABET, [(0, 0)])


def wall_right_shift() -> MarkovShift:
    return full_shift(WALL_ALPHABET, (1, 2))


def binary_increment_tm():
    """Three-state binary incrementer: settle, then carry leftward, then halt.

    Started on the lowest-order bit of a big-endian number, it adds one:
    ...0011 with the head on the last 1 becomes ...0100.
    """
    states = ("start", "carry", "halt")
    tau, ups, vel = {}, {}, {}
    for t in (0, 1):
        tau[(t, "start")] = t
        ups[(t, "start")] = "carry"
        vel[(t, "start")] = 0
        tau[(t, "halt")] = t
        ups[(t, "halt")] = "halt"
        vel[(t, "halt")] = 0
    tau[(1, "carry")] = 0
    ups[(1, "carry")] = "carry"
    vel[(1, "carry")] = -1
    tau[(0, "carry")] = 1
    ups[(0, "carry")] = "halt"
    vel[(0, "carry")] = 0
    return ClassicalTM(2, states, tau, ups, vel)
