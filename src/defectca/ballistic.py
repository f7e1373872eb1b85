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
from .lattice import Configuration, PeriodicBackground, encode_config, periodic_config
from .rules import LocalRule, RecodedSystem, normalize, phi_orbit_components
from .shifts import MarkovShift, Word, build_markov_shift, map_cycles, transitive_components
from .tracking import DefectAutomaton, locate_defect, track


@dataclass(frozen=True)
class PeriodicComponentCode:
    """Shift and rule actions on the symbols of a periodic component.

    ``sigma`` maps each symbol to its unique follower; ``phi`` maps it to the
    rule image read off the unique bi-infinite point through it.  Both are
    permutations of the component's symbol set.
    """

    shift: MarkovShift
    symbols: tuple[int, ...]
    sigma: dict[int, int]
    phi: dict[int, int]

    @property
    def size(self) -> int:
        return len(self.symbols)

    def sigma_pow(self, s: int, k: int) -> int:
        if k >= 0:
            for _ in range(k):
                s = self.sigma[s]
            return s
        inv = {v: u for u, v in self.sigma.items()}
        for _ in range(-k):
            s = inv[s]
        return s

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
    joint = build_markov_shift(component.alphabet,
                               [(s, t) for s in syms for t in (sigma[s], phi[s])])
    if len(transitive_components(joint)) != 1:
        raise DefectcaError("component is not (shift, rule)-transitive")
    return PeriodicComponentCode(component, syms, sigma, phi)


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

    def state_config(self, state, z: int = 0) -> Configuration:
        l, d, r = state
        L, R = self.automaton.L, self.automaton.R
        left = self.left.background(l, z - L - 1)
        right = self.right.background(r, z + R + 1)
        return Configuration(self.rule.alphabet, left, d, right, z - L)


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
    # prune states whose forward orbit leaves the observed table
    changed = True
    while changed:
        changed = False
        for s in list(xi):
            if xi[s] not in xi:
                del xi[s]
                del vel[s]
                changed = True
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


def predict_trajectory(system: KinematicSystem, ptype: ParticleType,
                       z0: int, T: int, phase: int = 0) -> list[int]:
    """Integrate the velocity signal along the orbit from a given phase."""
    zs = [z0]
    for t in range(T):
        s = ptype.orbit[(phase + t) % ptype.period]
        zs.append(zs[-1] + system.vel[s])
    return zs


def verify_conjugacy(system: KinematicSystem, ptype: ParticleType,
                     shift: MarkovShift) -> bool:
    """Direct simulation over one period returns to the same padded state
    displaced by exactly period * velocity."""
    L, R = system.automaton.L, system.automaton.R
    for phase in range(ptype.period):
        state = ptype.orbit[phase]
        cfg = system.state_config(state, z=0)
        traj = track(system.rule, shift, cfg, ptype.period, keep_configs=True)
        if not traj.verdict.is_particle:
            return False
        last = traj.records[-1]
        dz = last.z - traj.records[0].z
        if dz != ptype.period * ptype.velocity:
            return False
        end_cfg = traj.configs[-1]
        end_state = (end_cfg.cell(last.z - L - 1),
                     end_cfg.window(last.z - L, last.z + R + 1),
                     end_cfg.cell(last.z + R + 1))
        if end_state != state:
            return False
    return True


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
    cells, tracks each single-defect seed, and collects the eventual state
    cycles of the particles.
    """
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
                        enc = encode_config(sys.coder, cfg)
                        try:
                            if locate_defect(enc, sys.shift) is None:
                                continue
                        except MultipleDefectsError:
                            continue
                        traj = track(sys.rule, sys.shift, enc, T,
                                     width_cap=width_cap, keep_configs=True)
                        if not traj.verdict.is_particle:
                            continue
                        item = _eventual_cycle(sys, traj, Lg, Rg)
                        if item is not None:
                            found.setdefault((item.left_vertices,
                                              item.right_vertices,
                                              item.orbit), item)
    return sorted(found.values(),
                  key=lambda t: (sorted(t.left_vertices), sorted(t.right_vertices),
                                 t.defect_words))


def _eventual_cycle(sys: RecodedSystem, traj, Lg: MarkovShift,
                    Rg: MarkovShift) -> Optional[ClassifiedType]:
    records, configs = traj.records, traj.configs
    tail = len(records) // 2
    recs = records[tail:]
    L = max(r.L for r in recs)
    R = max(r.R for r in recs)
    states = []
    for rec, cfg in zip(recs, configs[tail:]):
        states.append(((cfg.cell(rec.z - L - 1),
                        cfg.window(rec.z - L, rec.z + R + 1),
                        cfg.cell(rec.z + R + 1)), rec.z, rec))
    period = None
    n = len(states)
    for p in range(1, n // 2 + 1):
        ok = all(states[i][0] == states[i + p][0] and
                 states[i + p][1] - states[i][1] == states[p][1] - states[0][1]
                 for i in range(n - p))
        if ok:
            period = p
            break
    if period is None:
        return None
    dz = states[period][1] - states[0][1]
    cyc_states = tuple(s for s, _, _ in states[:period])
    k = min(range(period), key=lambda i: cyc_states[i])
    orbit = cyc_states[k:] + cyc_states[:k]
    # flanking components must match the seeded pair; otherwise the defect
    # wandered off (e.g. decayed against a different background)
    if states[0][0][0] not in Lg.usable or states[0][0][2] not in Rg.usable:
        return None
    words = []
    for i in range(period):
        rec = states[(k + i) % period][2]
        raw = rec.word
        words.append(sys.coder.decode_word(raw) if raw else ())
    return ClassifiedType(frozenset(Lg.usable), frozenset(Rg.usable),
                          period, Fraction(dz, period),
                          L + R + 1, tuple(words), orbit)


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
