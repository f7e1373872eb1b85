"""The ballistic regime: particle types by junction classification.

Over a sigma-periodic, jointly (shift, rule)-transitive background, each
half-infinite background is determined by its innermost symbol, so a tracked
defect is an autonomous finite dynamical system: a state is (left symbol,
padded defect word, right symbol), and the state determines its future.
Particle types are the cycles of that system; :func:`classify_junctions`
closes each one at the first repeat of a seed's configuration as seen from
its core.  Since that configuration determines the future, the seeds of one
call share one window stepper (:class:`~defectca.tracking._Stepper`): each
configuration is stepped by the rule once per call however many seeds pass
through it, and each cycle's orbit, words and velocity are built once.
Each (sigma-cycle word, phase) background is recoded to blocks once per
call, and each seed recodes only its core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import DefectcaError
from .lattice import (Configuration, PeriodicBackground, _block_background, _block_core,
                      periodic_config)
from .rules import LocalRule, normalize, phi_orbit_components
from .shifts import BlockCoder, map_cycles
from .tracking import _Stepper


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
    by the first repeat of a seed's configuration, seen from its core.
    ``T`` and ``width_cap`` are caps: a seed unrepeated by step T, or wider
    than ``width_cap`` cells, is unsettled and yields no type.
    """
    if T < 0:
        raise DefectcaError(f"T must be >= 0, got {T}")
    sys = normalize(rule, background)
    groups = []
    for g in phi_orbit_components(sys.rule, sys.shift):
        if all(len(g.followers(v)) == 1 for v in g.usable):
            # each sigma-cycle of a block component, decoded to a source word
            cycles, _ = map_cycles(sorted(g.usable), lambda v: g.followers(v)[0])
            words = [tuple(map(sys.coder.first_symbol, cyc)) for cyc in cycles]
            groups.append((frozenset(g.usable), words))
    coder = sys.coder
    # the block background of each (sigma-cycle word, phase), encoded once
    blocks = {(w, p): _block_background(coder, PeriodicBackground(w, p))
              for _, words in groups for w in words for p in range(len(w))}
    stepper = _Stepper(sys.rule, sys.shift, width_cap)
    shapes: dict = {}
    found: dict = {}
    for (lv, lwords), (rv, rwords) in product(groups, repeat=2):
        for lw, rw in product(lwords, rwords):
            for lp, rp in product(range(len(lw)), range(len(rw))):
                for clen in range(max_core + 1):
                    for core in product(range(rule.alphabet.size), repeat=clen):
                        lo, blocks_core = _block_core(coder, periodic_config(
                            rule.alphabet, lw, core, rw, left_phase=lp, right_phase=rp))
                        seed = Configuration(coder.target, blocks[lw, lp], blocks_core,
                                             blocks[rw, rp], lo)
                        shape = _first_cycle(stepper, seed, T, coder, shapes)
                        if shape is None:
                            continue
                        period, velocity, width, words, orbit = shape
                        # flanking components must match the seeded pair;
                        # otherwise the defect wandered off (e.g. decayed
                        # against a different background)
                        if orbit[0][0] in lv and orbit[0][2] in rv:
                            found.setdefault((lv, rv, orbit), ClassifiedType(
                                lv, rv, period, velocity, width, words, orbit))
    return sorted(found.values(),
                  key=lambda t: (sorted(t.left_vertices), sorted(t.right_vertices),
                                 t.defect_words))


def _first_cycle(stepper: _Stepper, seed: Configuration, T: int, coder: BlockCoder,
                 shapes: dict) -> Optional[tuple]:
    """(period, velocity, width, defect words, orbit) of the cycle that
    ``seed`` closes at its first repeat by step T; None when it splits,
    vanishes or outgrows the stepper's cap first, or has not repeated.

    ``shapes`` maps each key of a cycle already built to the shape a seed
    entering the cycle there gets: its orbit starts at the first least state
    from the entry on, as a walk from that entry would find it.
    """
    seen: dict = {}
    for key, origin, scan in stepper.walk(seed, T):
        if isinstance(scan, str):
            return None
        if key in seen:
            break
        seen[key] = origin, scan
    else:
        return None
    if key not in shapes:
        keys = list(seen)
        keys = keys[keys.index(key):]
        period = len(keys)
        scans = [seen[k][1] for k in keys]
        L = max(sc[1] for sc in scans)
        R = max(sc[2] for sc in scans)
        states = []
        for k, sc in zip(keys, scans):
            cfg = stepper.config(k)
            states.append(_padded_state(cfg, cfg.origin + sc[0], L, R))
        velocity = Fraction(origin - seen[key][0], period)
        least = min(states)
        starts = [j for j, st in enumerate(states) if st == least]
        built: dict = {}
        for j, k in enumerate(keys):
            m = next((i for i in starts if i >= j), starts[0])
            if m not in built:
                order = list(range(m, period)) + list(range(m))
                built[m] = (period, velocity, L + R + 1,
                            tuple(coder.decode_word(scans[i][3]) for i in order),
                            tuple(states[i] for i in order))
            shapes[k] = built[m]
    return shapes[key]
