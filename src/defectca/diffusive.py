"""The diffusive regime: Parry measures, resolving systems, exact random-walk
transition kernels, and Monte Carlo defect-walk sampling.

After reducing the defect to a two-cell frame with two visible cells on
each side, a step that moves the frame by v in {-1, 0, 1} makes the next
six-cell state from the four rule images of the inner cells plus 1-v fresh
cells on the left and 1+v on the right; over a resolving system that noise
lands uniformly, with mass 1/(P_L^(1-v) F_R^(1+v)), so the frame performs a
finite-state Markov chain with an exactly computable kernel.  The frame step
is :func:`~defectca.tracking.frame_moves`, which the Turing regime shares.
The kernel and the samplers model seeds of width W = 0 or 1, the widths that
fit the frame, and check their inputs in one place.  A side that sigma and
the rule fix pointwise needs no sampler of its own: each of its fixed points
is one background of :func:`sample_walks` at W = 0.
The sampler checks the kernel cell by cell: each sample keeps a fixed 18-cell
window [z-8, z+10) around its frame start z and draws two fresh cells on the
left, then two on the right, per step.  The window's margin fixes the order
of the random draws, so changing it changes every sampled trajectory.  Each
sample reads a buffered list of uniforms from its own (seed, index) stream,
each law is a table of cumulative masses searched by bisection, and a step
scans for inadmissible transitions only in the light cone of the last
defect run.  The images of the two half-windows and each step's result are
memoised for the length of one call: each distinct half-window is imaged,
and each distinct step scanned, once.
Kernels and stationary laws are exact rationals; floats appear only in
eigendata, empirical statistics and the float solve that proposes each
stationary law before an exact check proves it.  The Markov-property test
compares sampled rows with the kernel's entry by entry, at 4.5 sigma.
numpy is imported by the functions that use it, not when the module loads:
the Perron eigendata behind :func:`parry_measure`, the float proposal of
each stationary law, each sample's random stream and the sampled moments.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterable, Iterator, Optional

from .errors import DefectcaError
from .rules import LocalRule, check_invariance, is_right_resolving, mirror
from .shifts import (
    MarkovShift,
    adjacency_matrix,
    perron,
    regularity,
    reverse,
    strongly_connected,
    transitive_components,
    union_shift,
)
from .tracking import bad_transitions, frame_moves


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
    A = adjacency_matrix(shift, syms)
    _, right = perron(A)
    lam, left = perron(list(zip(*A)))
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


# ---------------------------------------------------------------------------
# Resolving systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolvingSystemReport:
    """The resolving-system check: one witness per failed condition, and
    the two Parry measures when both exist."""

    witnesses: tuple[str, ...]
    lam: Optional[MarkovMeasure]
    rho: Optional[MarkovMeasure]

    @property
    def passed(self) -> bool:
        return not self.witnesses


def verify_resolving_system(rule: LocalRule, L: MarkovShift,
                            R: MarkovShift) -> ResolvingSystemReport:
    """Check the quadruple conditions and attach the two Parry measures."""
    notes: list[str] = []
    if L.usable == R.usable:
        if L.edges != R.edges:
            notes.append("L and R share symbols but have different edges")
    elif L.usable & R.usable:
        notes.append("L and R overlap without being equal")
    notes += _side_notes(mirror(rule), reverse(L), "L", "left")
    notes += _side_notes(rule, R, "R", "right")
    lam = rho = None
    try:
        lam = parry_measure(L)
        rho = parry_measure(R)
    except DefectcaError as e:
        notes.append(f"Parry measure unavailable: {e}")
    return ResolvingSystemReport(tuple(notes), lam, rho)


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
    W: int
    states: tuple
    vel: dict
    rows: dict  # state -> {state: Fraction}


def _velocity_of_state(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                       union: MarkovShift, state: State) -> Optional[int]:
    """The frame displacement, verified independent of the outer noise."""
    vs = frame_moves(rule, L, R, union, state)
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
    return WalkKernel(rule, L, R, W, reachable, vel, rows)


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
    numpy, which makes the float solve, is imported here on the first call.
    """
    import numpy as np

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


def _uniforms(seed: int, index: int) -> Iterator[float]:
    """One sample's uniforms: the stream of ``default_rng([seed, index])``,
    drawn 4096 at a time into a list that is then read in order."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    while True:
        yield from rng.random(4096).tolist()


def _inverse_cdf(law) -> tuple[list, list[float]]:
    """(symbols, cumulative masses) of a law given as (symbol, mass) pairs.

    The masses are added up left to right from 0.0 and the last sum is
    replaced by inf, so ``symbols[bisect_right(cum, u)]`` is the first
    symbol whose running sum exceeds ``u``, and the last symbol when
    rounding leaves ``u`` at or above every sum.  A zero-mass symbol is
    never drawn, unless it is that last one.
    """
    syms = [s for s, _ in law]
    cum = [float(c) for c in accumulate((p for _, p in law), initial=0.0)][1:]
    cum[-1] = math.inf
    return syms, cum


# Share of samples allowed to vanish or split before sample_walks gives up.
MAX_EXCLUDED_FRAC = 0.001


def _check_sampling(T: int, n: int) -> None:
    """Walks last at least one step, and at least one is sampled."""
    for name, value in (("T", T), ("n", n)):
        if value < 1:
            raise DefectcaError(f"{name} must be >= 1, got {value}")


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

    Sample i reads its uniforms in order from the stream of
    ``default_rng([seed, i])``, buffered 4096 at a time, and turns each
    into a cell through the cumulative table of its law (see
    :func:`_inverse_cdf`).  A step scans only the image transitions in the
    light cone of the last defect run, those whose four cells meet it:
    fresh cells extend the backgrounds and the rule preserves both, so no
    other transition can be inadmissible.  States are counted by index and
    turned back into six-cell tuples once, at the end.

    Three memos, made afresh by each call and freed when it returns, make
    the step cheap and change no result.  The rule has radius 1, so the
    window's cells [0, 12) determine image cells [0, 10) and its cells
    [10, 22) image cells [10, 20): each half is imaged once per distinct
    half and the two images are joined.  Everything after the image, the
    cone scan, the vanish/split test, the frame move v, the next cone and
    the state img[v+7:v+13], reads only img[lo:hi], with lo = min(cone[0], 6)
    and hi = max(cone[-1] + 2, 14), so the step's result, or that the
    defect vanished or split, is kept under the last run's width and that
    slice.  A state's index is given, and a frame jump raised, the first
    time its window occurs, so both match a step-by-step scan.  The memos
    grow with the distinct windows visited, not with n*T.

    Samples whose defect vanishes or splits are excluded; exceeding
    :data:`MAX_EXCLUDED_FRAC`, or keeping no sample, aborts the run with a
    :class:`DefectcaError`.  So does a frame that moves by more than one
    cell in a step: that is not a width-2 walk.  ``T`` and ``n`` must be at
    least 1.  The drift and variance are numpy's mean and variance of the
    displacements, and numpy is imported here, as it is by :func:`_uniforms`.
    """
    import numpy as np

    _check_sampling(T, n)
    report = _check_walk(rule, L, R, W, delta)
    lam, rho = report.lam, report.rho
    edges = union_shift(L, R).edges
    fwd = {s: _inverse_cdf(rho.forward_row(s)) for s in R.usable}
    bwd = {s: _inverse_cdf(lam.backward_row(s)) for s in L.usable}
    draws = [(0, sorted(lam.initial.items())), (1 + W, sorted(rho.initial.items()))]
    if W == 1:
        draws = [(1, [(w[0], p) for w, p in sorted(delta.items())])] + draws[::-1]
    draws = [(j, _inverse_cdf(law)) for j, law in draws]
    # cones[w]: the transitions of the next image that read a cell of the
    # last run, of width w, once the window is centred on the run's frame
    cones = [range(max(8 - (w + 1) // 2, 0), min(10 + w // 2, 18) + 1)
             for w in range(19)]
    # spans[w]: the image cells a step reads after a run of width w, the
    # cone's transitions and the six state cells [6, 14) at any move
    spans = [(min(c[0], 6), max(c[-1] + 2, 14)) for c in cones]
    lefts: dict = {}  # (l2, l1) + cells[:10] -> image cells [0, 10)
    rights: dict = {}  # cells[8:] + (r1, r2) -> image cells [10, 20)
    steps: dict = {}  # (w, img[spans[w]]) -> (v, next w, state id), or ()

    trajectories: list[list[int]] = []
    counts: dict = {}
    pair_counts: dict = {}
    ids: dict = {}  # state -> its index in order of first visit
    for i in range(n):
        noise = _uniforms(seed, i)
        # the junction covers [-W, 2), the frame [0, 1]; the walk measure lives
        # on defect-carrying junctions, so the draw repeats until it has one
        for _ in range(10_000):
            cells = [0] * (W + 2)
            for (j, (syms, cum)), u in zip(draws, noise):
                cells[j] = syms[bisect_right(cum, u)]
            if bad_transitions(cells, edges):
                break
        else:
            raise DefectcaError(_NO_DEFECT)
        for u in islice(noise, 8 - W):
            syms, cum = bwd[cells[0]]
            cells.insert(0, syms[bisect_right(cum, u)])
        for u in islice(noise, 8):
            syms, cum = fwd[cells[-1]]
            cells.append(syms[bisect_right(cum, u)])
        cells = tuple(cells)
        w = W  # the junction's: the frame starts as if its run had width W
        vs = []
        path = []
        for t, u1, u2, u3, u4 in zip(range(T), noise, noise, noise, noise):
            syms, cum = bwd[cells[0]]
            l1 = syms[bisect_right(cum, u1)]
            syms, cum = bwd[l1]
            half = (syms[bisect_right(cum, u2)], l1) + cells[:10]
            left = lefts.get(half)
            if left is None:
                left = lefts[half] = rule.image_word(half)
            syms, cum = fwd[cells[-1]]
            r1 = syms[bisect_right(cum, u3)]
            syms, cum = fwd[r1]
            half = cells[8:] + (r1, syms[bisect_right(cum, u4)])
            right = rights.get(half)
            if right is None:
                right = rights[half] = rule.image_word(half)
            # img is [z-9, z+11); transition j joins cells z-9+j and z-8+j
            img = left + right
            lo, hi = spans[w]
            key = (w, img[lo:hi])
            step = steps.get(key)
            if step is None:  # the first visit of this window
                bad = [j for j in cones[w] if (img[j], img[j + 1]) not in edges]
                if not bad or bad[-1] - bad[0] != len(bad) - 1:
                    step = ()  # the defect vanished or split
                else:
                    nw = bad[-1] - bad[0]
                    v = bad[0] - 9 + (nw + 1) // 2  # tracking.frame_of's start, less z
                    if not -1 <= v <= 1:
                        raise DefectcaError(f"frame moved by {v} at step {t} of "
                                            f"sample {i}; not a width-2 walk")
                    step = (v, nw, ids.setdefault(img[v + 7:v + 13], len(ids)))
                steps[key] = step
            if not step:
                break
            v, w, state = step
            vs.append(v)
            path.append(state)
            cells = img[v + 1:v + 19]
        else:
            trajectories.append(list(accumulate(vs, initial=0)))
        _tally(counts, path, path[1:])
        _tally(pair_counts, zip(path, path[1:]), path[2:])
        excluded = i + 1 - len(trajectories)
        if excluded > max(1, MAX_EXCLUDED_FRAC * n) or excluded == n:
            raise DefectcaError(
                f"{excluded} of {i + 1} samples vanished or split; "
                "the system is not behaving as a persistent walk")
    states = list(ids)
    counts = {states[a]: {states[b]: c for b, c in row.items()}
              for a, row in counts.items()}
    pair_counts = {(states[a], states[b]): {states[c]: k for c, k in row.items()}
                   for (a, b), row in pair_counts.items()}
    moved = [tr[-1] - tr[0] for tr in trajectories]
    drift = float(np.mean([d / T for d in moved]))
    var = float(np.var(moved) / T)
    return trajectories, WalkStatistics(
        len(moved), T, n - len(moved), drift, var, counts, pair_counts,
        stationary_and_drift(kernel) if kernel else None)


def sample_kernel_chain(kernel: WalkKernel, delta: dict, T: int, n: int,
                        seed: int) -> tuple[list[list[int]], dict]:
    """Sample the kernel chain directly: an independent sampler of the same
    process, used to cross-validate the cellular simulation.

    ``delta``, ``T`` and ``n`` are checked as :func:`sample_walks` checks
    them; a law that puts no mass on any kernel state raises
    :class:`DefectcaError`, and so does a chain that reaches a state with no
    kernel row, where the walk leaves its regime.
    """
    _check_sampling(T, n)
    report = _check_walk(kernel.rule, kernel.left, kernel.right, kernel.W, delta)
    lam, rho = report.lam, report.rho
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
    if not init:
        raise DefectcaError("'delta' puts no mass on any state of the kernel")
    total = sum(p for _, p in init)
    init = [(s, p / total) for s, p in init]
    init_syms, init_cum = _inverse_cdf(init)
    laws = {s: _inverse_cdf([(t, float(p)) for t, p in sorted(row.items())])
            for s, row in kernel.rows.items()}
    trajectories = []
    counts: dict = {}
    for i in range(n):
        noise = _uniforms(seed, i)
        s = init_syms[bisect_right(init_cum, next(noise))]
        path = [s]
        try:
            for u in islice(noise, T):
                syms, cum = laws[s]
                s = syms[bisect_right(cum, u)]
                path.append(s)
        except KeyError:
            raise DefectcaError(f"the chain reached state {s}, which has no "
                                "kernel row: there the walk leaves its "
                                "regime") from None
        _tally(counts, path, path[1:])
        trajectories.append(list(accumulate((kernel.vel[s] for s in path[:-1]),
                                            initial=0)))
    return trajectories, counts


# ---------------------------------------------------------------------------
# Markov property testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowComparison:
    visits: int
    tv: float
    conclusive: bool
    passed: bool


@dataclass(frozen=True)
class MarkovTestReport:
    rows: tuple[RowComparison, ...]
    passed: bool
    max_tv: Optional[float]  # None when no row was compared


def _compare_rows(counts: dict, expected_row) -> list[RowComparison]:
    out = []
    for state, row in sorted(counts.items()):
        n_vis = sum(row.values())
        exp = expected_row(state)
        if exp is None:
            continue
        p = {t: float(q) for t, q in exp.items()}
        support = set(row) | set(p)
        tv = 0.5 * sum(abs(row.get(t, 0) / n_vis - p.get(t, 0.0)) for t in support)
        # binomial bound per entry; 4.5 sigma keeps the familywise false
        # failure rate below ~1% across the hundreds of compared entries
        z = 4.5
        passed = all(abs(row.get(t, 0) / n_vis - p.get(t, 0.0)) <=
                     max(z * math.sqrt(p.get(t, 0.0) * (1 - p.get(t, 0.0)) / n_vis),
                         2.0 / n_vis)
                     for t in support)
        out.append(RowComparison(n_vis, tv, n_vis >= 50, passed))
    return out


def markov_property_test(stats: WalkStatistics,
                         kernel: WalkKernel) -> MarkovTestReport:
    """Compare empirical next-state frequencies against the exact kernel.

    Each entry of a row must lie within 4.5 binomial standard deviations
    of the kernel's, or within 2/visits where that is wider; rows with
    fewer than 50 visits are inconclusive and do not count.  Also checks
    order-1 sufficiency: conditioning on the previous two states gives the
    same rows.  The test passes when every conclusive row passes and at
    least one row was compared, so a sample whose rows are all
    inconclusive passes.
    """
    rows = _compare_rows(stats.transition_counts, kernel.rows.get)
    rows1 = _compare_rows(stats.pair_counts, lambda pair: kernel.rows.get(pair[1]))
    relevant = [r for r in rows + rows1 if r.conclusive]
    passed = all(r.passed for r in relevant) and bool(rows)
    max_tv = max((r.tv for r in rows), default=None)
    return MarkovTestReport(tuple(rows), passed, max_tv)
