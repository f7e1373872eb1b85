"""The ballistic regime: periodic background codes, the finite kinematic
system, and particle-type enumeration.

Over a sigma-periodic, jointly (shift, rule)-transitive background, each
half-infinite background is determined by its innermost symbol, so a tracked
defect becomes an autonomous finite dynamical system: a state is
(left symbol, padded defect word, right symbol), and its update composes the
defect automaton with the shift/rule permutations of the two codes.
Particle types are the cycles of that system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import DefectcaError, MultipleDefectsError
from .lattice import (Configuration, PeriodicBackground, apply_rule, encode_config,
                      periodic_config)
from .rules import LocalRule, RecodedSystem, normalize, phi_orbit_components
from .shifts import MarkovShift, Word, map_cycles, strongly_connected
from .tracking import DefectAutomaton, frame_of, locate_defect, track


@dataclass(frozen=True)
class PeriodicComponentCode:
    """Shift and rule actions on the symbols of a periodic component.

    ``sigma`` maps each symbol to its unique follower; ``phi`` maps it to the
    rule image read off the unique bi-infinite point through it.  Both are
    permutations of the component's symbol set.
    """

    sigma: dict[int, int]
    phi: dict[int, int]

    def sigma_pow(self, s: int, k: int) -> int:
        cycle = self.cycle_through(s)
        return cycle[k % len(cycle)]

    def cycle_through(self, s: int) -> Word:
        out = [s]
        cur = self.sigma[s]
        while cur != s:
            out.append(cur)
            cur = self.sigma[cur]
        return tuple(out)

    def background(self, s: int, anchor: int) -> PeriodicBackground:
        """The periodic background through ``s`` with cell(anchor) = s."""
        word = self.cycle_through(s)
        return PeriodicBackground(word, (-anchor) % len(word))


def build_periodic_code(component: MarkovShift,
                        rule: LocalRule) -> PeriodicComponentCode:
    """Build the code for a sigma-periodic, jointly transitive component.

    ``component`` may be a union of sigma-cycles provided the rule and shift
    actions together act transitively on its symbols (a single
    (shift, rule)-orbit).
    """
    if rule.radius != 1:
        raise ValueError("radius must be 1 (recode first)")
    syms = tuple(sorted(component.usable))
    for s in syms:
        if len(component.followers(s)) != 1 or len(component.predecessors(s)) != 1:
            raise DefectcaError("component not periodic")
    sigma = {s: component.followers(s)[0] for s in syms}
    pred = {s: component.predecessors(s)[0] for s in syms}
    phi = {s: rule((pred[s], s, sigma[s])) for s in syms}
    if sorted(phi.values()) != list(syms):
        raise DefectcaError("rule does not permute the component's symbols")
    # joint transitivity: sigma- and phi-edges must connect all symbols.
    # Both maps permute the symbols, so connected means strongly connected.
    if len(strongly_connected(syms, lambda s: (sigma[s], phi[s]))) != 1:
        raise DefectcaError("component is not (shift, rule)-transitive")
    return PeriodicComponentCode(sigma, phi)


@dataclass(frozen=True)
class KinematicSystem:
    """The finite system (X, xi, V) of a width-W particle family.

    States are (left symbol, padded defect word, right symbol); xi applies
    the defect automaton and advances both background codes by the rule and
    by sigma^velocity.
    """

    rule: LocalRule
    left: PeriodicComponentCode
    right: PeriodicComponentCode
    automaton: DefectAutomaton
    states: tuple
    xi: dict
    vel: dict

    def state_config(self, state) -> Configuration:
        l, d, r = state
        L, R = self.automaton.L, self.automaton.R
        left = self.left.background(l, -L - 1)
        right = self.right.background(r, R + 1)
        return Configuration(self.rule.alphabet, left, d, right, -L)


def build_kinematic_system(rule: LocalRule, left: PeriodicComponentCode,
                           right: PeriodicComponentCode,
                           automaton: DefectAutomaton) -> KinematicSystem:
    """Assemble xi(l, d, r) = (sigma^v phi(l), Upsilon(l,d,r), sigma^v phi(r))."""
    L, R = automaton.L, automaton.R
    xi: dict = {}
    vel: dict = {}
    for (lw, d, rw), d_next in automaton.upsilon.items():
        l, r = lw[-1], rw[0]
        state = (l, d, r)
        v = automaton.velocity[(lw, d, rw)]
        xi[state] = (left.sigma_pow(left.phi[l], v), d_next,
                     right.sigma_pow(right.phi[r], v))
        vel[state] = v
    # keep the states whose forward orbit stays in the observed table: the
    # ones whose orbit runs into a cycle of xi
    kept = map_cycles(xi, xi.get)[1]
    xi = {s: t for s, t in xi.items() if s in kept}
    vel = {s: vel[s] for s in xi}
    if not xi:
        raise DefectcaError("no kinematic states survive pruning")
    return KinematicSystem(rule, left, right, automaton,
                           tuple(sorted(xi)), xi, vel)


@dataclass(frozen=True)
class ParticleType:
    """A xi-cycle: the orbit, its period, and its average velocity."""

    orbit: tuple
    period: int
    velocity: Fraction


def enumerate_particle_types(system: KinematicSystem) -> tuple[list[ParticleType], dict]:
    """All xi-cycles, plus a map from each transient state to its cycle index."""
    cycles, cycle_of = map_cycles(system.states, system.xi.get)
    types = []
    for cyc in cycles:
        total = sum(system.vel[s] for s in cyc)
        vbar = Fraction(total, len(cyc))
        if not -1 <= vbar <= 1:
            raise DefectcaError(f"orbit velocity {vbar} outside [-1, 1]; "
                                "the extracted automaton is inconsistent")
        types.append(ParticleType(cyc, len(cyc), vbar))
    on_cycle = {s for cyc in cycles for s in cyc}
    transients = {s: cycle_of[s] for s in system.states if s not in on_cycle}
    return types, transients


def verify_conjugacy(system: KinematicSystem, ptype: ParticleType,
                     shift: MarkovShift) -> bool:
    """Direct simulation over one period returns to the same padded state
    displaced by exactly period * velocity."""
    L, R = system.automaton.L, system.automaton.R
    for phase in range(ptype.period):
        state = ptype.orbit[phase]
        cfg = system.state_config(state)
        traj = track(system.rule, shift, cfg, ptype.period, keep_configs=True)
        if not traj.verdict.is_particle:
            return False
        last = traj.records[-1]
        dz = last.z - traj.records[0].z
        if dz != ptype.period * ptype.velocity:
            return False
        if _padded_state(traj.configs[-1], last.z, L, R) != state:
            return False
    return True


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
