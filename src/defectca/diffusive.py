"""The diffusive regime: Parry measures, resolving systems, exact random-walk
transition kernels, and Monte Carlo defect-walk sampling.

After reducing the defect to a two-cell frame with two visible cells on
each side, a step that moves the frame by v in {-1, 0, 1} makes the next
six-cell state from the four rule images of the inner cells plus 1-v fresh
cells on the left and 1+v on the right; over a resolving system that noise
lands uniformly, with mass 1/(P_L^(1-v) F_R^(1+v)), so the frame performs a
finite-state Markov chain with an exactly computable kernel.  The kernel and
the sampler model seeds of width W = 0 or 1, the widths that fit the frame.
The sampler checks the kernel cell by cell: each sample keeps a fixed 18-cell
window [z-8, z+10) around its frame start z and draws two fresh cells on the
left, then two on the right, per step.  The window's margin fixes the order
of the random draws, so changing it changes every sampled trajectory.
Kernels and stationary laws are exact rationals; floats appear only in
eigendata, empirical statistics and the float solve that proposes each
stationary law before an exact check proves it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DefectcaError, MultipleDefectsError
from .rules import LocalRule, check_invariance, is_right_resolving, mirror
from .shifts import (
    MarkovShift,
    Word,
    build_markov_shift,
    perron,
    regularity,
    reverse,
    strongly_connected,
    transitive_components,
)
from .tracking import bad_transitions, defect_run, frame_of


# ---------------------------------------------------------------------------
# Markov measures and the Parry measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovMeasure:
    """An initial distribution and a row-stochastic kernel on a shift's edges."""

    shift: MarkovShift
    initial: dict
    kernel: dict  # (a, b) -> probability, supported on edges

    def __post_init__(self):
        for s in self.shift.usable:
            row = sum(self.kernel.get((s, t), 0.0) for t in self.shift.followers(s))
            if abs(row - 1.0) > 1e-12:
                raise ValueError(f"kernel row at {s} sums to {row}")

    @property
    def stationary(self) -> bool:
        for b in self.shift.usable:
            flow = sum(self.initial[a] * self.kernel[(a, b)]
                       for a in self.shift.predecessors(b))
            if abs(flow - self.initial[b]) > 1e-12:
                return False
        return True

    def cylinder(self, word: Sequence[int]) -> float:
        w = tuple(word)
        if not w:
            return 1.0
        if w[0] not in self.initial:
            return 0.0
        p = self.initial[w[0]]
        for a, b in zip(w, w[1:]):
            p *= self.kernel.get((a, b), 0.0)
        return p

    def backward(self, a: int, b: int) -> float:
        """tau-bar(a, b) = mu0(a) tau(a, b) / mu0(b): the time-reversed kernel."""
        if self.initial.get(b, 0.0) == 0.0:
            return 0.0
        return self.initial.get(a, 0.0) * self.kernel.get((a, b), 0.0) / self.initial[b]

    def forward_row(self, a: int) -> list[tuple[int, float]]:
        return [(b, self.kernel[(a, b)]) for b in self.shift.followers(a)]

    def backward_row(self, b: int) -> list[tuple[int, float]]:
        return [(a, self.backward(a, b)) for a in self.shift.predecessors(b)]

    def entropy_rate(self) -> float:
        """Shannon entropy in bits per symbol."""
        h = 0.0
        for (a, b), p in self.kernel.items():
            if p > 0.0:
                h -= self.initial[a] * p * math.log2(p)
        return h


def parry_measure(shift: MarkovShift) -> MarkovMeasure:
    """The Markov measure of maximal entropy on an irreducible shift.

    Built from the Perron eigendata of the adjacency matrix and its
    transpose (:func:`~defectca.shifts.perron`); on right-regular
    shifts the rows come out uniform on follower sets, and on left-regular
    shifts the backward rows are uniform on predecessor sets.
    """
    comps = transitive_components(shift)
    if len(comps) != 1 or set(comps[0].usable) != set(shift.usable):
        names = [sorted(c.usable) for c in comps]
        raise DefectcaError(f"shift is reducible; components: {names}")
    syms = sorted(shift.usable)
    idx = {s: i for i, s in enumerate(syms)}
    n = len(syms)
    A = np.zeros((n, n))
    for a in syms:
        for b in shift.followers(a):
            A[idx[a], idx[b]] = 1.0
    _, right = perron(A)
    lam, left = perron(A.T)
    kernel = {}
    for a in syms:
        for b in shift.followers(a):
            kernel[(a, b)] = right[idx[b]] / (lam * right[idx[a]])
    weights = left * right
    weights = weights / weights.sum()
    initial = {s: float(weights[idx[s]]) for s in syms}
    # normalize rows exactly enough for the stochasticity check
    for a in syms:
        row = sum(kernel[(a, b)] for b in shift.followers(a))
        for b in shift.followers(a):
            kernel[(a, b)] /= row
    return MarkovMeasure(shift, initial, kernel)


def pushforward_cylinders(rule: LocalRule, measure: MarkovMeasure,
                          max_len: int) -> dict[Word, float]:
    """The image measure's cylinder weights up to ``max_len``.

    (Phi mu)[c] sums mu over the (len+2r)-word preimages of c.
    """
    out: dict[Word, float] = {}
    r = rule.radius
    syms = sorted(measure.shift.usable)
    for n in range(1, max_len + 1):
        for w in product(syms, repeat=n + 2 * r):
            p = measure.cylinder(w)
            if p == 0.0:
                continue
            c = rule.image_word(w)
            out[c] = out.get(c, 0.0) + p
    return out


# ---------------------------------------------------------------------------
# Resolving systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolvingSystemReport:
    """The four resolving-system conditions with failure witnesses."""

    union_markov: bool
    left_ok: bool
    right_ok: bool
    measures_ok: bool
    witnesses: tuple[str, ...]
    lam: Optional[MarkovMeasure]
    rho: Optional[MarkovMeasure]

    @property
    def passed(self) -> bool:
        return self.union_markov and self.left_ok and self.right_ok and self.measures_ok


def union_shift(L: MarkovShift, R: MarkovShift) -> MarkovShift:
    return build_markov_shift(L.alphabet, sorted(L.edges | R.edges))


def verify_resolving_system(rule: LocalRule, L: MarkovShift,
                            R: MarkovShift) -> ResolvingSystemReport:
    """Check the quadruple conditions and attach the two Parry measures."""
    notes: list[str] = []
    if L.usable == R.usable:
        union_ok = L.edges == R.edges
        if not union_ok:
            notes.append("L and R share symbols but have different edges")
    else:
        union_ok = not (L.usable & R.usable)
        if not union_ok:
            notes.append("L and R overlap without being equal")

    left = _side_notes(mirror(rule), reverse(L), "L", "left")
    right = _side_notes(rule, R, "R", "right")
    notes += left + right

    lam = rho = None
    measures_ok = True
    try:
        lam = parry_measure(L)
        rho = parry_measure(R)
    except DefectcaError as e:
        measures_ok = False
        notes.append(f"Parry measure unavailable: {e}")
    return ResolvingSystemReport(union_ok, not left, not right, measures_ok,
                                 tuple(notes), lam, rho)


def _side_notes(rule: LocalRule, S: MarkovShift, name: str,
                side: str) -> list[str]:
    """Why ``S`` fails as the right side of a resolving system under
    ``rule``; a left side is checked on the mirrored line."""
    notes = []
    if not regularity(S).right_regular:
        notes.append(f"{name} is not {side}-regular")
    if not check_invariance(rule, S):
        notes.append(f"rule does not preserve {name}")
    wit: list = []
    if not notes and not is_right_resolving(rule, S, witness=wit):
        w = wit[0] if side == "right" else wit[0][::-1]
        notes.append(f"{name} is not {side}-resolving: witness {w}")
    return notes


# ---------------------------------------------------------------------------
# The exact walk kernel
# ---------------------------------------------------------------------------

State = tuple  # (l2, l1, d0, d1, r1, r2)


@dataclass(frozen=True)
class WalkKernel:
    """Exact transition kernel of the defect's six-cell state chain."""

    rule: LocalRule
    left: MarkovShift
    right: MarkovShift
    union: MarkovShift
    W: int
    P_L: int
    F_R: int
    states: tuple
    vel: dict
    rows: dict  # state -> {state: Fraction}


def _frame_start(img: Word, edges, origin: int) -> int | str:
    """The frame start read off the one defect run of ``img``, whose first
    cell sits at ``origin``, or "vanished" / "split"."""
    try:
        run = defect_run(img, edges, origin)
    except MultipleDefectsError:
        return "split"
    return "vanished" if run is None else frame_of(run)[0]


def _frame_moves(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                 union: MarkovShift, state: State) -> set:
    """The next frame starts of ``state`` (cells -2..3, frame at [0, 1])
    over every outer noise pair."""
    return {_frame_start(rule.image_word((l3, *state, r3)), union.edges, -2)
            for l3 in L.predecessors(state[0]) for r3 in R.followers(state[5])}


def _velocity_of_state(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                       union: MarkovShift, state: State) -> Optional[int]:
    """The frame displacement, verified independent of the outer noise."""
    vs = _frame_moves(rule, L, R, union, state)
    if len(vs) != 1:
        raise DefectcaError(f"frame displacement at {state} depends on noise: {vs}")
    v = vs.pop()
    if v in ("split", "vanished"):
        return None  # the state leaves the walk regime
    if not -1 <= v <= 1:
        raise DefectcaError(f"frame moved by {v} at {state}; not a width-2 walk")
    return v


def _fresh_cells(n: int, edge: int, neighbours, fresh_images) -> list[tuple]:
    """The ``n`` (0, 1 or 2) fresh cells beyond ``edge``, innermost first.

    One fresh cell is any background neighbour of ``edge``; of two, the
    inner one is the image of one fresh background cell (``fresh_images()``)
    and the outer one any background neighbour of it.
    """
    if n == 0:
        return [()]
    if n == 1:
        return [(c,) for c in neighbours(edge)]
    return [(c, o) for c in sorted(fresh_images()) for o in neighbours(c)]


def _successors(rule: LocalRule, L: MarkovShift, R: MarkovShift, v: int,
                s: State, P_L: int, F_R: int) -> dict[State, Fraction]:
    """The next states of ``s`` when its frame moves by ``v``, with their mass.

    A next state is the four images l1' d0' d1' r1' of ``s`` with 1-v fresh
    cells on the left and 1+v on the right; a resolving system spreads the
    fresh left cells uniformly over P_L choices each and the right ones over
    F_R.
    """
    img = rule.image_word(s)
    lefts = _fresh_cells(1 - v, img[0], L.predecessors,
                         lambda: {rule((a, *s[:2])) for a in L.predecessors(s[0])})
    rights = _fresh_cells(1 + v, img[-1], R.followers,
                          lambda: {rule((*s[4:], b)) for b in R.followers(s[5])})
    mass = Fraction(1, P_L ** (1 - v) * F_R ** (1 + v))
    out = {(*left[::-1], *img, *right): mass for left in lefts for right in rights}
    if mass * len(out) != 1:
        raise DefectcaError(f"kernel row at {s} does not sum to 1")
    return out


def _delta_problem(W: int, delta) -> Optional[str]:
    """Why ``delta`` is no law on the middle words of a width-W seed, or
    None.  ``delta`` holds words, or maps them to masses; W is 0 or 1."""
    if W == 0:
        return ("must be empty at W=0: a width-0 seed has no middle cell to "
                "draw") if delta else None
    bad = [w for w in delta if len(w) != W]
    if bad:
        return f"keys must be words of length W={W}, got {bad[0]}"
    if isinstance(delta, dict):
        masses = list(delta.values())
        if not (all(p >= 0 for p in masses) and abs(sum(masses) - 1) <= 1e-9):
            return f"masses must be non-negative and sum to 1, got {masses}"
    return None


def _check_walk(rule: LocalRule, L: MarkovShift, R: MarkovShift, W: int,
                delta) -> ResolvingSystemReport:
    """The one check of walk inputs: the seed width, ``delta`` and the
    resolving system, whose report carries the two Parry measures."""
    if rule.radius != 1:
        raise DefectcaError(f"rule radius {rule.radius} is not supported here: "
                            "walks need a radius-1 rule")
    if W not in (0, 1):
        raise DefectcaError(f"seed width 'W' must be 0 or 1, got {W}: the "
                            "two-cell frame models seeds of width 0 and 1 only")
    why = _delta_problem(W, delta)
    if why:
        raise DefectcaError(f"'delta' {why}")
    report = verify_resolving_system(rule, L, R)
    if not report.passed:
        raise DefectcaError("not a resolving system: " + "; ".join(report.witnesses))
    return report


_NO_DEFECT = "no seeded junction breaks admissibility; no defect to track"


def build_walk_kernel(rule: LocalRule, L: MarkovShift, R: MarkovShift, W: int,
                      delta_support: Optional[Iterable] = None) -> WalkKernel:
    """The exact kernel on reachable six-cell states, in rational arithmetic.

    ``W`` is the seeded defect width, 0 or 1: at W=0 the frame starts on the
    junction of the two backgrounds, at W=1 its left cell is a middle cell,
    restricted by ``delta_support`` (defaults to every symbol), which must
    be empty at W=0.  Raises :class:`DefectcaError` when no seed junction
    carries a defect.
    """
    support = None if delta_support is None else list(delta_support)
    _check_walk(rule, L, R, W, support or ())
    d0s = (range(rule.alphabet.size) if support is None
           else sorted({w[0] for w in support}))
    union = union_shift(L, R)
    P_L = regularity(L).P_S
    F_R = regularity(R).F_S
    seeds = [(l2, l1, d0, d1, r1, r2)
             for l2, l1 in L.edges
             for d0 in (L.followers(l1) if W == 0 else d0s)
             for d1 in sorted(R.usable)
             for r1 in R.followers(d1)
             for r2 in R.followers(r1)]
    # the seed junction: W middle cells between the innermost background cells
    if not any(bad_transitions(s[2 - W:4], union.edges) for s in seeds):
        raise DefectcaError(_NO_DEFECT)
    vel: dict = {}
    rows: dict = {}
    work = list(dict.fromkeys(seeds))
    while work:
        s = work.pop()
        if s in rows or s in vel:
            continue
        v = _velocity_of_state(rule, L, R, union, s)
        if v is None:
            vel[s] = None  # degenerate state: kernel leaves the walk regime
            continue
        vel[s] = v
        row = _successors(rule, L, R, v, s, P_L, F_R)
        rows[s] = row
        work.extend(t for t in row if t not in rows and t not in vel)
    reachable = tuple(sorted(rows))
    vel = {s: vel[s] for s in reachable}
    return WalkKernel(rule, L, R, union, W, P_L, F_R, reachable, vel, rows)


# ---------------------------------------------------------------------------
# Stationary distributions and theoretical drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecurrentClassStats:
    states: tuple
    stationary: dict
    drift: Fraction


def _recurrent_classes(kernel: WalkKernel) -> list[tuple]:
    """The closed strongly connected classes, in kernel state order."""
    rows = kernel.rows
    comps = strongly_connected(kernel.states,
                               lambda s: [t for t in rows[s] if t in rows])
    return [tuple(c) for c in comps if all(t in c for s in c for t in rows[s])]


# Largest denominator a float solve is rounded to: q**2 = 1e14 stays well
# inside float precision, so a law whose denominators are at most q comes
# back exactly, and any other proposal fails the exact check.
_MAX_DEN = 10 ** 7


def _stationary_exact(states: tuple, rows: dict) -> dict:
    """The stationary law of the closed class ``states``, in Fractions.

    Solve, then certify (Dixon, Numer. Math. 40, 1982): a float solve of
    pi P = pi, sum(pi) = 1 proposes pi, each entry is rounded to the nearest
    fraction with denominator at most :data:`_MAX_DEN`, and the proposal is
    checked exactly.  A closed communicating class has exactly one
    stationary law, so a proposal that passes is the answer.  When the
    float solve fails or the check does, exact elimination decides.
    """
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    A = -np.eye(n)  # P^T - I, with the last equation replaced by sum = 1
    for s in states:
        for t, p in rows[s].items():
            A[idx[t], idx[s]] += float(p)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        x = None
    if x is not None and np.isfinite(x).all():
        pi = {s: Fraction(v).limit_denominator(_MAX_DEN)
              for s, v in zip(states, x.tolist())}
        if _is_stationary(pi, rows):
            return pi
    return _stationary_elimination(states, rows)


def _is_stationary(pi: dict, rows: dict) -> bool:
    """Whether sum(pi) = 1 and pi P = pi hold exactly, at O(nonzeros) cost."""
    flow = dict.fromkeys(pi, Fraction(0))
    for s, p in pi.items():
        for t, q in rows[s].items():
            flow[t] += p * q
    return sum(pi.values()) == 1 and flow == pi


def _stationary_elimination(states: tuple, rows: dict) -> dict:
    """Solve pi P = pi, sum(pi) = 1 by Gauss-Jordan elimination over sparse
    rows of Fractions; column n holds the right-hand side."""
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    eqs: list[dict] = [{i: Fraction(-1)} for i in range(n)]  # row t: (pi P - pi)(t)
    for s in states:
        for t, p in rows[s].items():
            row = eqs[idx[t]]
            row[idx[s]] = row.get(idx[s], Fraction(0)) + p
    eqs[-1] = dict.fromkeys(range(n + 1), Fraction(1))
    eqs = [{j: x for j, x in row.items() if x} for row in eqs]
    for col in range(n):
        piv = next((r for r in range(col, n) if col in eqs[r]), None)
        if piv is None:
            raise RuntimeError(f"stationary system of a {n}-state class is "
                               "singular; the class is not closed and irreducible")
        eqs[col], eqs[piv] = eqs[piv], eqs[col]
        inv = 1 / eqs[col][col]
        pivot = eqs[col] = {j: x * inv for j, x in eqs[col].items()}
        for row in eqs[:col] + eqs[col + 1:]:
            f = row.get(col)
            if f is None:
                continue
            for j, x in pivot.items():
                y = row.get(j, Fraction(0)) - f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return {s: eqs[idx[s]].get(n, Fraction(0)) for s in states}


def stationary_and_drift(kernel: WalkKernel) -> list[RecurrentClassStats]:
    """Exact stationary distribution and drift per recurrent class.

    Each law is a dict of Fractions.  Floats only propose it: a float solve
    is rounded to fractions and checked exactly against pi P = pi and
    sum(pi) = 1, which proves it, since a closed class has one stationary
    law.  Exact elimination runs only when that check fails or the float
    solve is singular.
    """
    out = []
    for states in _recurrent_classes(kernel):
        pi = _stationary_exact(states, kernel.rows)
        drift = sum((pi[s] * kernel.vel[s] for s in states), Fraction(0))
        out.append(RecurrentClassStats(states, pi, drift))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo sampling of the defect walk
# ---------------------------------------------------------------------------

@dataclass
class WalkStatistics:
    sample_count: int
    horizon: int
    excluded: int
    empirical_drift: float
    variance_per_step: float
    transition_counts: dict
    pair_counts: dict
    theoretical: Optional[list[RecurrentClassStats]] = None

    @property
    def theoretical_drifts(self) -> Optional[list[Fraction]]:
        return None if self.theoretical is None else [c.drift for c in self.theoretical]


class _NoiseSource:
    """Per-sample uniforms from a deterministic (seed, index) stream, drawn
    in batches of 4096."""

    def __init__(self, master_seed: int, index: int):
        rng = np.random.default_rng([master_seed, index])
        self._uniforms = (u for _ in repeat(None)
                          for u in rng.random(4096).tolist())

    def choose(self, options_probs) -> int:
        u = next(self._uniforms)
        acc = 0.0
        for sym, p in options_probs:
            acc += p
            if u < acc:
                return sym
        return options_probs[-1][0]


# Share of samples allowed to vanish or split before sample_walks gives up.
MAX_EXCLUDED_FRAC = 0.001


def _tally(counts: dict, keys: Iterable, nexts: Iterable) -> None:
    """Add each (key, next) pair to ``counts``, a dict of per-key dicts."""
    for (key, nxt), c in Counter(zip(keys, nexts)).items():
        row = counts.setdefault(key, {})
        row[nxt] = row.get(nxt, 0) + c


def sample_walks(rule: LocalRule, L: MarkovShift, R: MarkovShift, delta: dict,
                 T: int, n: int, seed: int, *, W: int = 1,
                 kernel: Optional[WalkKernel] = None
                 ) -> tuple[list[list[int]], WalkStatistics]:
    """Track n independent defect walks of T steps each.

    Each sample holds the 18 cells [z-8, z+10) around its frame start z.
    It draws the seed junction (W=1: the middle cell from ``delta``, a
    probability dict over width-1 words, then the right and the left cell;
    W=0: the left, then the right cell, and ``delta`` must be empty), then
    the rest of the window leftward, then rightward, from the Parry
    measures.  Each step draws two fresh left cells, then two right ones,
    images the 22 cells to 20 and keeps the 18 around the new frame.  The
    six state cells need less room, but the margin fixes which draw lands
    in which cell: changing it changes every trajectory.

    Samples whose defect vanishes or splits are excluded; exceeding
    :data:`MAX_EXCLUDED_FRAC`, or keeping no sample, aborts the run with a
    :class:`DefectcaError`.  So does a frame that moves by more than one
    cell in a step: that is not a width-2 walk.
    """
    report = _check_walk(rule, L, R, W, delta)
    lam, rho = report.lam, report.rho
    edges = union_shift(L, R).edges
    fwd = {s: rho.forward_row(s) for s in R.usable}
    bwd = {s: lam.backward_row(s) for s in L.usable}
    draws = [(0, sorted(lam.initial.items())), (1 + W, sorted(rho.initial.items()))]
    if W == 1:
        draws = [(1, [(w[0], p) for w, p in sorted(delta.items())])] + draws[::-1]

    def grow(noise: _NoiseSource, cells, left: int, right: int) -> list:
        cells = list(cells)
        for _ in range(left):
            cells.insert(0, noise.choose(bwd[cells[0]]))
        for _ in range(right):
            cells.append(noise.choose(fwd[cells[-1]]))
        return cells

    trajectories: list[list[int]] = []
    counts: dict = {}
    pair_counts: dict = {}
    seen: dict = {}  # one stored copy per distinct state
    for i in range(n):
        noise = _NoiseSource(seed, i)
        # the junction covers [-W, 2), the frame [0, 1]; the walk measure lives
        # on defect-carrying junctions, so the draw repeats until it has one
        for _ in range(10_000):
            cells = [0] * (W + 2)
            for j, law in draws:
                cells[j] = noise.choose(law)
            if bad_transitions(cells, edges):
                break
        else:
            raise DefectcaError(_NO_DEFECT)
        cells = grow(noise, cells, 8 - W, 8)
        zs = [0]
        states = []
        for t in range(T):
            img = rule.image_word(grow(noise, cells, 2, 2))  # [z-9, z+11)
            v = _frame_start(img, edges, -9)
            if isinstance(v, str):  # the defect vanished or split
                break
            if abs(v) > 1:
                raise DefectcaError(f"frame moved by {v} at step {t} of "
                                    f"sample {i}; not a width-2 walk")
            zs.append(zs[-1] + v)
            state = img[v + 7:v + 13]
            states.append(seen.setdefault(state, state))
            cells = img[v + 1:v + 19]
        else:
            trajectories.append(zs)
        _tally(counts, states, states[1:])
        _tally(pair_counts, zip(states, states[1:]), states[2:])
        excluded = i + 1 - len(trajectories)
        if excluded > max(1, MAX_EXCLUDED_FRAC * n) or excluded == n:
            raise DefectcaError(
                f"{excluded} of {i + 1} samples vanished or split; "
                "the system is not behaving as a persistent walk")
    moved = [tr[-1] - tr[0] for tr in trajectories]
    drift = float(np.mean([d / T for d in moved]))
    var = float(np.var(moved) / T)
    return trajectories, WalkStatistics(
        len(moved), T, n - len(moved), drift, var, counts, pair_counts,
        stationary_and_drift(kernel) if kernel else None)


def sample_kernel_chain(kernel: WalkKernel, delta: dict, T: int, n: int,
                        seed: int) -> tuple[list[list[int]], dict]:
    """Sample the kernel chain directly: an independent sampler of the same
    process, used to cross-validate the cellular simulation."""
    lam = parry_measure(kernel.left)
    rho = parry_measure(kernel.right)
    init = []
    # initial law: lambda (x) delta (x) rho read off the six visible cells
    for s in kernel.states:
        l2, l1, d0, d1, r1, r2 = s
        mid = delta.get((d0,), 0.0) if kernel.W == 1 else lam.kernel.get((l1, d0), 0.0)
        p = (lam.initial.get(l1, 0.0) * lam.backward(l2, l1) * mid *
             rho.initial.get(d1, 0.0) * rho.kernel.get((d1, r1), 0.0) *
             rho.kernel.get((r1, r2), 0.0))
        if p > 0:
            init.append((s, p))
    total = sum(p for _, p in init)
    init = [(s, p / total) for s, p in init]
    laws = {s: [(t, float(p)) for t, p in sorted(row.items())]
            for s, row in kernel.rows.items()}
    trajectories = []
    counts: dict = {}
    for i in range(n):
        noise = _NoiseSource(seed, i)
        path = [noise.choose(init)]
        for _ in range(T):
            path.append(noise.choose(laws[path[-1]]))
        _tally(counts, path, path[1:])
        trajectories.append(list(accumulate((kernel.vel[s] for s in path[:-1]),
                                            initial=0)))
    return trajectories, counts


# ---------------------------------------------------------------------------
# Markov property testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowComparison:
    state: object
    visits: int
    tv: float
    tolerance: float
    conclusive: bool
    passed: bool


@dataclass(frozen=True)
class MarkovTestReport:
    rows: tuple[RowComparison, ...]
    order1_rows: tuple[RowComparison, ...]
    passed: bool
    max_tv: Optional[float]  # None when no row was compared


def _compare_rows(counts: dict, expected_row, visit_floor: int,
                  tv_tol: float) -> list[RowComparison]:
    out = []
    for state, row in sorted(counts.items()):
        n_vis = sum(row.values())
        exp = expected_row(state)
        if exp is None:
            continue
        support = set(row) | set(exp)
        tv = 0.5 * sum(abs(row.get(t, 0) / n_vis - float(exp.get(t, 0)))
                       for t in support)
        if n_vis >= visit_floor:
            tol = tv_tol
            passed = tv <= tol
            conclusive = True
        else:
            # binomial bound per entry; 4.5 sigma keeps the familywise false
            # failure rate below ~1% across the hundreds of compared entries
            z = 4.5
            tol = max(z * math.sqrt(0.25 / max(n_vis, 1)), 1.0 / max(n_vis, 1))
            passed = all(abs(row.get(t, 0) / n_vis - float(exp.get(t, 0))) <=
                         max(z * math.sqrt(float(exp.get(t, 0)) *
                                           (1 - float(exp.get(t, 0))) / n_vis),
                             2.0 / n_vis)
                         for t in support)
            conclusive = n_vis >= 50
        out.append(RowComparison(state, n_vis, tv, tol, conclusive, passed))
    return out


def markov_property_test(stats: WalkStatistics, kernel: WalkKernel, *,
                         visit_floor: int = 100_000,
                         tv_tol: float = 0.01) -> MarkovTestReport:
    """Compare empirical next-state frequencies against the exact kernel.

    Rows with at least ``visit_floor`` visits must match within total
    variation ``tv_tol``; thinner rows fall back to 4.5-sigma binomial bounds
    per entry and are marked inconclusive below 50 visits.  Also checks
    order-1 sufficiency: conditioning on the previous two states gives the
    same rows.
    """
    rows = _compare_rows(stats.transition_counts, kernel.rows.get, visit_floor, tv_tol)
    rows1 = _compare_rows(stats.pair_counts, lambda pair: kernel.rows.get(pair[1]),
                          visit_floor, tv_tol)
    relevant = [r for r in rows + rows1 if r.conclusive]
    passed = all(r.passed for r in relevant) and bool(rows)
    max_tv = max((r.tv for r in rows), default=None)
    return MarkovTestReport(tuple(rows), tuple(rows1), passed, max_tv)


# ---------------------------------------------------------------------------
# Subsampled walks with one frozen side
# ---------------------------------------------------------------------------

def subsampled_walk(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                   fixed_side: str, delta: dict, T: int, n: int, seed: int,
                   *, W: int = 0
                   ) -> list[tuple[float, list[list[int]], WalkStatistics]]:
    """Random walks with one frozen side.

    The frozen side must satisfy Phi = id and sigma = id pointwise; it
    decomposes into fixed points, and each contributes one walk component
    weighted by its share, sampled by :func:`sample_walks`.
    """
    if fixed_side not in ("left", "right"):
        raise ValueError("fixed_side must be 'left' or 'right'")
    fixed = L if fixed_side == "left" else R
    comps = transitive_components(fixed)
    for comp in comps:
        for s in comp.usable:
            if comp.followers(s) != (s,):
                raise DefectcaError("frozen side is not sigma-fixed")
            if rule((s, s, s)) != s:
                raise DefectcaError("frozen side is not rule-fixed")
    weight = 1.0 / len(comps)
    out = []
    for j, comp in enumerate(comps):
        Lc = comp if fixed_side == "left" else L
        Rc = comp if fixed_side == "right" else R
        trajs, stats = sample_walks(rule, Lc, Rc, delta, T, n, seed + j, W=W)
        out.append((weight, trajs, stats))
    return out
