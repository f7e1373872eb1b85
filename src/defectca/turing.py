"""The Turing regime: tape machines whose halves must stay admissible.

An (L, R)-machine's head sits between two tape cells; each step rewrites at
most the two cells beside the head subject to the background subshifts.  A
rule with pointwise-fixed backgrounds is one such machine (the defect is the
head); conversely every such machine embeds into a radius-2 rule.  With
positive-entropy backgrounds the tape can carry cycle-encoded bits, which is
what makes the regime Turing-complete.

A machine state is one tape, a :class:`~defectca.lattice.Configuration`,
with the head between two of its cells.  Each step writes the two cells
beside the head, and each CA embedding splices the head's cells into the
tape to encode and out of it to decode (:meth:`Configuration.splice`).

One step follows the slot rule.  Number the three cells left of, at and
right of the head 0, 1, 2.  After a step of velocity v the head sits in slot
1+v, and every other slot holds its tape rule's write: slot 0 holds
tau_L(l2,l1,d), slot 1 tau_C(l1,d,r1) and slot 2 tau_R(d,r1,r2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional, Sequence

from .errors import DefectcaError, InvalidMachineError
from .lattice import Configuration, periodic_config
from .rules import LocalRule, recode_rule
from .shifts import (
    Alphabet,
    BlockCoder,
    MarkovShift,
    Word,
    build_markov_shift,
    choice_point,
    equal_length_cycles,
    full_shift,
    higher_power,
    map_cycles,
    union_shift,
)
from .tracking import bad_transitions, frame_moves, frame_of, locate_defect


# ---------------------------------------------------------------------------
# Machines and their states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MachineState:
    """The head sits between tape cells z - 1 and z of ``tape``."""

    tape: Configuration
    head: object
    z: int


@dataclass(frozen=True)
class LRTuringMachine:
    """Head domain plus tape rules; the update rule must honor the velocity
    dependency restrictions (only (l2,l1,d) matters at v=-1, (l1,d,r1) at 0,
    (d,r1,r2) at +1), which is exactly what lets the machine ride inside a
    radius-2 cellular automaton."""

    alphabet: Alphabet
    head_domain: tuple
    left_shift: MarkovShift
    right_shift: MarkovShift
    tau_L: Callable
    tau_C: Callable
    tau_R: Callable
    upsilon: Callable
    velocity: Callable
    name: str = ""


def step_lrtm(machine: LRTuringMachine, state: MachineState) -> MachineState:
    """One step by the slot rule; raises :class:`InvalidMachineError` when a
    tape rule writes a symbol that breaks background admissibility.

    The two cells beside the head become a and b: a is tau_C at v=-1 and
    tau_L otherwise, b is tau_C at v=1 and tau_R otherwise.  The head lands
    in slot 1+v, so ``(a, b)[:1+v]`` ends up left of it and the rest right.
    """
    z, d = state.z, state.head
    l2, l1, r1, r2 = state.tape.window(z - 2, z + 2)
    v = machine.velocity(l1, d, r1)
    d_next = machine.upsilon(l2, l1, d, r1, r2)
    if v not in (-1, 0, 1):
        raise InvalidMachineError(f"velocity {v} outside {{-1,0,1}}")
    a = machine.tau_C(l1, d, r1) if v == -1 else machine.tau_L(l2, l1, d)
    b = machine.tau_C(l1, d, r1) if v == 1 else machine.tau_R(d, r1, r2)
    k = 1 + v
    _check_writes("left", machine.left_shift.edges, (l2, a, b)[:k + 1])
    _check_writes("right", machine.right_shift.edges, (a, b, r2)[k:])
    return MachineState(state.tape.splice(z - 1, z + 1, (a, b)), d_next, z + v)


def _check_writes(side: str, edges, cells: tuple) -> None:
    """Raise unless the written ``cells`` and the kept outer cell beside them
    form an admissible word of the ``side`` background."""
    if bad_transitions(cells, edges):
        raise InvalidMachineError(
            f"{side} write{'s' if len(cells) > 2 else ''} "
            f"({','.join(map(str, cells))}) inadmissible")


# ---------------------------------------------------------------------------
# CA -> machine (pointwise-fixed backgrounds)
# ---------------------------------------------------------------------------

def _check_pointwise_fixed(rule: LocalRule, shift: MarkovShift) -> None:
    r = rule.radius
    for w in shift.words(2 * r + 1):
        if rule(w) != w[r]:
            raise DefectcaError(f"background not pointwise rule-fixed at {w}")


@dataclass(frozen=True)
class CAConjugacy:
    """Coordinates of the machine <-> configuration correspondence: the
    stride-P ``coder`` from source configurations to the power-recoded
    alphabet, and the ``union`` of the recoded tape shifts, off which the
    head is located."""

    coder: BlockCoder
    union: MarkovShift

    def encode(self, state: MachineState) -> Configuration:
        return state.tape.splice(state.z, state.z, state.head)

    def decode(self, config: Configuration) -> MachineState:
        interval = locate_defect(config, self.union)
        if interval is None:
            raise DefectcaError("no defect to carry the head")
        z = frame_of(interval)[0]
        return MachineState(config.splice(z, z + 2, ()), config.window(z, z + 2), z)


def ca_to_turing(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                 W: int) -> tuple[LRTuringMachine, CAConjugacy]:
    """Extract the (L,R)-machine of a rule whose backgrounds are pointwise
    fixed.  The head carries the two-cell defect frame of the W-power
    recoding; tape rules are the rule images of the visible cells."""
    _check_pointwise_fixed(rule, L)
    _check_pointwise_fixed(rule, R)
    Lh, coder = higher_power(L, max(W, rule.radius, 1))
    Rh, _ = higher_power(R, coder.P)
    phi = recode_rule(rule, coder)
    union = union_shift(Lh, Rh)

    def vel(l1, d, r1):
        vs = set()
        for l2 in Lh.predecessors(l1):
            for r2 in Rh.followers(r1):
                vs |= frame_moves(phi, Lh, Rh, union, (l2, l1, *d, r1, r2))
        if len(vs) != 1:
            raise DefectcaError(f"velocity at ({l1},{d},{r1}) is not local")
        v = vs.pop()
        if v not in (-1, 0, 1):
            raise DefectcaError("defect left the machine regime")
        return v

    def ups(l2, l1, d, r1, r2):
        v = vel(l1, d, r1)
        return phi.image_word((l2, l1, *d, r1, r2))[1 + v:3 + v]

    def tau_L(l2, l1, d):
        return phi((l2, l1, d[0]))

    def tau_R(d, r1, r2):
        return phi((d[1], r1, r2))

    def tau_C(l1, d, r1):
        v = vel(l1, d, r1)
        return phi((l1, *d) if v == 1 else (*d, r1))

    size = phi.alphabet.size
    domain = tuple((a, b) for a in range(size) for b in range(size))
    machine = LRTuringMachine(phi.alphabet, domain, Lh, Rh,
                              tau_L, tau_C, tau_R, ups, vel,
                              name=f"machine[{rule.name}]")
    return machine, CAConjugacy(coder, union)


# ---------------------------------------------------------------------------
# Machine -> CA (head as a marker symbol, radius 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuringCAEmbedding:
    machine: LRTuringMachine
    alphabet: Alphabet  # tape symbols followed by head markers
    head_base: int

    def head_symbol(self, d) -> int:
        return self.head_base + self.machine.head_domain.index(d)

    def is_head(self, s: int) -> bool:
        return s >= self.head_base

    def head_state(self, s: int):
        return self.machine.head_domain[s - self.head_base]

    def encode(self, state: MachineState) -> Configuration:
        config = state.tape.splice(state.z, state.z, (self.head_symbol(state.head),))
        return replace(config, alphabet=self.alphabet)

    def decode(self, config: Configuration) -> MachineState:
        heads = [z for z in range(config.origin, config.end)
                 if self.is_head(config.cell(z))]
        if len(heads) != 1:
            raise DefectcaError(f"configuration holds {len(heads)} head markers")
        z = heads[0]
        tape = replace(config.splice(z, z + 1, ()), alphabet=self.machine.alphabet)
        return MachineState(tape, self.head_state(config.cell(z)), z)


def turing_to_ca(machine: LRTuringMachine) -> tuple[LocalRule, TuringCAEmbedding]:
    """Embed an (L,R)-machine into a radius-2 rule, one step per step.

    The head is a marker symbol; background cells two or more away from the
    marker are fixed, so L- and R-admissible regions are pointwise fixed.
    """
    tape = machine.alphabet
    heads = tuple(f"[{i}]" for i, _ in enumerate(machine.head_domain))
    for label in heads:
        if label in tape.labels:
            raise DefectcaError(f"tape label {label!r} is also the label of "
                                "a head symbol of the compiled CA")
    alpha = Alphabet(tape.labels + heads)
    base = tape.size
    emb = TuringCAEmbedding(machine, alpha, base)
    m = machine

    def fn(w):
        heads = [i for i, s in enumerate(w) if s >= base]
        if len(heads) != 1 or heads[0] in (0, 4):
            return w[2]
        pos = heads[0]
        # the cells around the marker; past the window edge the nearest
        # cell stands in, which only the velocity-restricted upsilon reads
        l2, l1, h, r1, r2 = (w[min(max(i, 0), 4)] for i in range(pos - 2, pos + 3))
        d = emb.head_state(h)
        v = m.velocity(l1, d, r1)
        slot = 3 - pos
        if slot == 1 + v:
            return emb.head_symbol(m.upsilon(l2, l1, d, r1, r2))
        if slot == 0:
            return m.tau_L(l2, l1, d)
        if slot == 1:
            return m.tau_C(l1, d, r1)
        return m.tau_R(d, r1, r2)

    rule = LocalRule(alpha, 2, fn, name=f"ca[{machine.name or 'machine'}]")
    return rule, emb


# ---------------------------------------------------------------------------
# Cycle encoders and classical machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleEncoder:
    """Bit blocks from two equal-length cycles at a shared vertex."""

    P: int
    w0: Word
    w1: Word

    def encode(self, bits: Sequence[int]) -> Word:
        out: list[int] = []
        for b in bits:
            out.extend(self.w1 if b else self.w0)
        return tuple(out)

    def decode(self, word: Sequence[int]) -> Word:
        w = tuple(word)
        if len(w) % self.P:
            raise ValueError("word length is not a whole number of blocks")
        bits = []
        for j in range(0, len(w), self.P):
            block = w[j:j + self.P]
            if block == self.w0:
                bits.append(0)
            elif block == self.w1:
                bits.append(1)
            else:
                raise ValueError(f"block {block} is not a code block")
        return tuple(bits)

    def encode_symbol(self, t: int, bits: int) -> Word:
        """The cells of symbol t written as ``bits`` bits, most significant first."""
        return self.encode(tuple((t >> (bits - 1 - i)) & 1 for i in range(bits)))

    def decode_symbol(self, cells: Sequence[int], size: int) -> int:
        """Invert :meth:`encode_symbol` for a symbol below ``size``."""
        t = 0
        for b in self.decode(cells):
            t = (t << 1) | b
        if t >= size:
            raise ValueError("decoded bits name no tape symbol")
        return t


def build_cycle_encoder(shift: MarkovShift) -> CycleEncoder:
    P, c0, c1 = equal_length_cycles(shift)
    return CycleEncoder(P, c0, c1)


@dataclass(frozen=True)
class ClassicalTM:
    """A standard Turing machine: head over a cell, total transition maps.

    A tape is a dict from cell to symbol; cells not listed in it hold the
    blank symbol 0.
    """

    tape_size: int
    head_domain: tuple
    tau: dict
    upsilon: dict
    velocity: dict

    def step(self, tape: dict, d, z: int):
        t = tape.get(z, 0)
        tape = dict(tape)
        tape[z] = self.tau[(t, d)]
        return tape, self.upsilon[(t, d)], z + self.velocity[(t, d)]


def regime_of(L: MarkovShift, R: MarkovShift) -> str:
    """Machine class of (L,R)-tape machines from the entropy sign pattern.

    A side has positive entropy exactly when it has a :func:`choice_point`,
    so the sign is read combinatorially, with no eigen-solve.
    """
    hl = choice_point(L) is not None
    hr = choice_point(R) is not None
    if hl and hr:
        return "turing-complete"
    if hl or hr:
        return "apda"
    return "ballistic"


@dataclass(frozen=True)
class LRCompiledMachine:
    """A classical machine compiled onto (L,R)-admissible tapes.

    Each tape symbol becomes ``bits`` cycle blocks of ``P`` cells; a macro
    step of the classical machine costs ``bits * P`` micro steps when the
    head moves and one micro step in place.
    """

    machine: LRTuringMachine
    tm: ClassicalTM
    bits: int
    enc_left: CycleEncoder
    enc_right: CycleEncoder

    @property
    def cells_per_symbol(self) -> int:
        return self.bits * self.enc_left.P

    def initial_state(self, tape: dict, d, z: int, window: int) -> MachineState:
        lcells: list[int] = []
        for k in range(z - window, z):
            lcells.extend(self.enc_left.encode_symbol(tape.get(k, 0), self.bits))
        rcells: list[int] = []
        for k in range(z + 1, z + window + 1):
            rcells.extend(self.enc_right.encode_symbol(tape.get(k, 0), self.bits))
        lbg = self.enc_left.encode_symbol(0, self.bits)
        rbg = self.enc_right.encode_symbol(0, self.bits)
        # both cell lists are whole blocks long, so the backgrounds keep phase 0
        config = periodic_config(self.machine.alphabet, lbg, lcells + rcells,
                                 rbg, -len(lcells))
        return MachineState(config, ("idle", d, tape.get(z, 0)), 0)

    def macro_step(self, state: MachineState) -> tuple[MachineState, int]:
        state = step_lrtm(self.machine, state)
        micro = 1
        while state.head[0] != "idle":
            state = step_lrtm(self.machine, state)
            micro += 1
        return state, micro

    def decode_state(self, state: MachineState, window: int):
        """Recover (tape window dict, head state, head position)."""
        if state.head[0] != "idle":
            raise ValueError("decode at macro boundaries (idle head) only")
        C = self.cells_per_symbol
        if state.z % C:
            raise ValueError("head is not block-aligned")
        z, zsym = state.z, state.z // C
        tape = {zsym: state.head[2]}
        for k in range(1, window + 1):
            cells = state.tape.window(z - k * C, z - (k - 1) * C)
            tape[zsym - k] = self.enc_left.decode_symbol(cells, self.tm.tape_size)
            cells = state.tape.window(z + (k - 1) * C, z + k * C)
            tape[zsym + k] = self.enc_right.decode_symbol(cells, self.tm.tape_size)
        return tape, state.head[1], zsym


def classical_to_lr(tm: ClassicalTM, L: MarkovShift,
                    R: MarkovShift) -> LRCompiledMachine:
    """Simulate a classical machine on (L,R)-admissible tapes.

    Requires positive entropy on both sides; tape symbols are carried as
    cycle-block strings and the head buffers reads and writes over
    ``bits * P`` micro steps per move.
    """
    if choice_point(L) is None or choice_point(R) is None:
        raise DefectcaError(
            "both sides need positive entropy; use the stack or finite-"
            "automaton construction instead")
    encL = build_cycle_encoder(L)
    encR = build_cycle_encoder(R)
    if encL.P != encR.P:
        P = math.lcm(encL.P, encR.P)
        encL = CycleEncoder(P, encL.w0 * (P // encL.P), encL.w1 * (P // encL.P))
        encR = CycleEncoder(P, encR.w0 * (P // encR.P), encR.w1 * (P // encR.P))
    bits = max(1, (tm.tape_size - 1).bit_length())
    C = bits * encL.P

    def launch(d, t0):
        return tm.tau[(t0, d)], tm.upsilon[(t0, d)], tm.velocity[(t0, d)]

    def vel(l1, head, r1):
        kind = head[0]
        if kind == "idle":
            return launch(head[1], head[2])[2]
        return 1 if kind == "right" else -1

    def transfer(head):
        """The transfer a head is in; an idle head that launches is one at
        j = 0, and an idle head that stays yields its next idle head."""
        if head[0] != "idle":
            return head
        t0p, dp, v = launch(head[1], head[2])
        if v == 0:
            return ("idle", dp, t0p)
        if v == 1:
            return ("right", dp, encL.encode_symbol(t0p, bits), 0, ())
        return ("left", dp, encR.encode_symbol(t0p, bits), 0, ())

    def ups(l2, l1, head, r1, r2):
        head = transfer(head)
        kind = head[0]
        if kind == "idle":
            return head
        _, dp, w, j, buf = head
        buf, enc = (buf + (r1,), encR) if kind == "right" else ((l1,) + buf, encL)
        if j + 1 == C:
            return ("idle", dp, enc.decode_symbol(buf, tm.tape_size))
        return (kind, dp, w, j + 1, buf)

    def tau_C(l1, head, r1):
        head = transfer(head)
        if head[0] == "idle":
            return l1
        kind, _, w, j, _ = head
        return w[j] if kind == "right" else w[C - 1 - j]

    def tau_L(l2, l1, head):
        return l1

    def tau_R(head, r1, r2):
        return r1

    cell_syms = sorted(L.usable | R.usable)
    heads = [("idle", d, t) for d in tm.head_domain for t in range(tm.tape_size)]
    for d in tm.head_domain:
        for t in range(tm.tape_size):
            for j in range(1, C):
                for buf in product(cell_syms, repeat=j):
                    heads.append(("right", d, encL.encode_symbol(t, bits), j, buf))
                    heads.append(("left", d, encR.encode_symbol(t, bits), j, buf))
    machine = LRTuringMachine(L.alphabet, tuple(dict.fromkeys(heads)), L, R,
                              tau_L, tau_C, tau_R, ups, vel, name="compiled-tm")
    return LRCompiledMachine(machine, tm, bits, encL, encR)


# ---------------------------------------------------------------------------
# Autonomous pushdown automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class APDA:
    """An input-free pushdown automaton: the stack fully drives the future."""

    stack_size: int
    head_domain: tuple
    upsilon: dict  # (t, d) -> d
    stack_rule: dict  # (t, d) -> ("push", t') | ("pop",) | ("noop",)

    def velocity(self, t: int, d) -> int:
        act = self.stack_rule[(t, d)]
        return -1 if act[0] == "push" else (1 if act[0] == "pop" else 0)


def runaway_cycles(apda: APDA) -> list[list]:
    """All periodic (head, top) orbits whose every move pushes.

    While pushing, the machine only ever reads symbols it just wrote, so the
    dynamics on (head, top) pairs is autonomous and the finite state space
    makes the search exhaustive.
    """
    def succ(node):
        d, t = node
        act = apda.stack_rule[(t, d)]
        if act[0] != "push":
            return None
        return (apda.upsilon[(t, d)], act[1])

    nodes = [(d, t) for d in apda.head_domain for t in range(apda.stack_size)]
    return sorted(list(c) for c in map_cycles(nodes, succ)[0])


def detect_runaway_cycle(apda: APDA) -> Optional[list]:
    """The least runaway cycle, or None when every leftward run ends."""
    cycles = runaway_cycles(apda)
    return cycles[0] if cycles else None


def apda_to_lr(apda: APDA) -> tuple[LRTuringMachine, int]:
    """Realize an APDA as a machine with a frozen left side and the stack on
    the right tape; returns the machine and the null symbol index."""
    labels = ("_",) + tuple(f"t{t}" for t in range(apda.stack_size))
    alpha = Alphabet(labels)
    L = build_markov_shift(alpha, [(0, 0)])
    R = full_shift(alpha, range(1, apda.stack_size + 1))

    def vel(l1, head, r1):
        d, t = head
        return apda.velocity(t, d)

    def ups(l2, l1, head, r1, r2):
        d, t = head
        act = apda.stack_rule[(t, d)]
        dn = apda.upsilon[(t, d)]
        if act[0] == "push":
            return (dn, act[1])
        if act[0] == "pop":
            return (dn, r1 - 1)  # the consumed cell becomes the carried top
        return (dn, t)

    def tau_C(l1, head, r1):
        d, t = head
        act = apda.stack_rule[(t, d)]
        if act[0] == "push":
            return t + 1  # the old carried top returns to the tape
        return 0  # moving right: refill the vacated left cell with null

    def tau_L(l2, l1, head):
        return 0

    def tau_R(head, r1, r2):
        return r1

    domain = tuple((d, t) for d in apda.head_domain
                   for t in range(apda.stack_size))
    machine = LRTuringMachine(alpha, domain, L, R, tau_L, tau_C, tau_R,
                              ups, vel, name="apda")
    return machine, 0
