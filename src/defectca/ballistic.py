"""The ballistic regime: particle types by junction classification.

Over a sigma-periodic, jointly (shift, rule)-transitive background, each
half-infinite background is determined by its innermost symbol, so a tracked
defect is an autonomous finite dynamical system: a state is (left symbol,
padded defect word, right symbol), and the state determines its future.
Particle types are the cycles of that system; :func:`classify_junctions`
closes each one at the first repeat of a seed's state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import DefectcaError, MultipleDefectsError
from .lattice import Configuration, apply_rule, encode_config, periodic_config
from .rules import LocalRule, RecodedSystem, normalize, phi_orbit_components
from .shifts import MarkovShift, Word, map_cycles
from .tracking import frame_of, locate_defect


def _padded_state(config: Configuration, z: int, L: int, R: int) -> tuple:
    """The kinematic state (left symbol, defect word, right symbol) of the
    frame at ``z``: the window [z-L-1, z+R+2) split into its first cell, the
    L+R+1 defect cells and its last cell."""
    w = config.window(z - L - 1, z + R + 2)
    return w[0], w[1:-1], w[-1]


# ---------------------------------------------------------------------------
# Junction classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifiedType:
    """A deduplicated particle type discovered from junction seeds."""

    left_vertices: frozenset
    right_vertices: frozenset
    period: int
    velocity: Fraction
    width: int
    defect_words: tuple  # decoded source-alphabet words along the cycle
    orbit: tuple


def classify_junctions(rule: LocalRule, background, *, max_core: int = 2,
                       T: int = 64, width_cap: int = 16) -> list[ClassifiedType]:
    """Enumerate persistent particle types over all periodic-component
    junctions of a background.

    Seeds every ordered pair of (shift, rule)-transitive periodic components
    with every phase pair and every junk core up to ``max_core`` source
    cells.  The state determines the future, so a type is the cycle closed
    by the first repeat of a seed's configuration, seen from its defect
    frame.  ``T`` and ``width_cap`` are caps: a seed unrepeated by step T,
    or wider than ``width_cap`` cells, is unsettled and yields no type.
    """
    if T < 0:
        raise DefectcaError(f"T must be >= 0, got {T}")
    sys = normalize(rule, background)
    groups = []
    for g in phi_orbit_components(sys.rule, sys.shift):
        if all(len(g.followers(v)) == 1 for v in g.usable):
            # each sigma-cycle of a block component, decoded to a source word
            cycles, _ = map_cycles(sorted(g.usable), lambda v: g.followers(v)[0])
            words = [tuple(sys.coder.unpack(b)[0] for b in cyc) for cyc in cycles]
            groups.append((g, words))
    found: dict = {}
    for (Lg, lwords), (Rg, rwords) in product(groups, repeat=2):
        for lw, rw in product(lwords, rwords):
            for lp, rp in product(range(len(lw)), range(len(rw))):
                for clen in range(max_core + 1):
                    for core in product(range(rule.alphabet.size), repeat=clen):
                        cfg = periodic_config(rule.alphabet, lw, core, rw,
                                              left_phase=lp, right_phase=rp)
                        item = _first_cycle(sys, encode_config(sys.coder, cfg),
                                            T, width_cap, Lg, Rg)
                        if item is not None:
                            found.setdefault((item.left_vertices,
                                              item.right_vertices,
                                              item.orbit), item)
    return sorted(found.values(),
                  key=lambda t: (sorted(t.left_vertices), sorted(t.right_vertices),
                                 t.defect_words))


def _first_cycle(sys: RecodedSystem, cur: Configuration, T: int, width_cap: int,
                 Lg: MarkovShift, Rg: MarkovShift) -> Optional[ClassifiedType]:
    # a step's key is its configuration seen from the frame start z, each
    # background written as the period of cells next to the core
    seen: dict = {}
    for t in range(T + 1):
        if t:
            cur = apply_rule(sys.rule, cur)
        try:
            run = locate_defect(cur, sys.shift)
        except MultipleDefectsError:
            return None
        if run is None or run.w > width_cap:
            return None
        z, L, R = frame_of(run)
        key = (cur.origin - z, cur.left.cells(cur.origin - len(cur.left.word), cur.origin),
               cur.core, cur.right.cells(cur.end, cur.end + len(cur.right.word)))
        if key in seen:
            break
        seen[key] = (cur, z, L, R)
    else:
        return None
    cycle = list(seen.values())[list(seen).index(key):]
    period = len(cycle)
    L = max(l for _, _, l, _ in cycle)
    R = max(r for _, _, _, r in cycle)
    states = [_padded_state(cfg, zc, L, R) for cfg, zc, _, _ in cycle]
    k = states.index(min(states))
    orbit = tuple(states[k:] + states[:k])
    # flanking components must match the seeded pair; otherwise the defect
    # wandered off (e.g. decayed against a different background)
    if orbit[0][0] not in Lg.usable or orbit[0][2] not in Rg.usable:
        return None
    words = tuple(sys.coder.decode_word(cfg.window(zc - l, zc + r + 1))
                  for cfg, zc, l, r in cycle[k:] + cycle[:k])
    return ClassifiedType(frozenset(Lg.usable), frozenset(Rg.usable), period,
                          Fraction(z - cycle[0][1], period), L + R + 1, words, orbit)


def marked_cell_presentation(config: Configuration, shift: MarkovShift,
                             coder) -> tuple[Word, Word, Word]:
    """Present a block-space defect in source cells via centered windows.

    A source cell is marked defective when the block window centered on it
    (offset -P//2) is not a vertex of the background shift; the presentation
    is (last window fully left of the marked run, the marked cells, first
    window fully right).
    """
    P = coder.P
    bad = [p for p in range(config.origin - 1, config.end + 1)
           if config.cell(p) not in shift.usable]
    if not bad:
        raise ValueError("no marked cells: width-0 defect has empty presentation")
    m0 = bad[0] + P // 2
    m1 = bad[-1] + P // 2

    def src(j: int) -> int:
        return coder.unpack(config.cell(j))[0]

    lword = tuple(src(j) for j in range(m0 - P, m0))
    dbits = tuple(src(j) for j in range(m0, m1 + 1))
    rword = tuple(src(j) for j in range(m1 + 1, m1 + 1 + P))
    return lword, dbits, rword
