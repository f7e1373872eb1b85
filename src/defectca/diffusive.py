"""The diffusive regime: Parry measures, resolving systems, exact random-walk
transition kernels, and Monte Carlo defect-walk sampling.

After reducing the defect to a two-cell frame, the next frame contents are
the rule images of the visible six-cell state, except for the one or two
cells that depend on fresh background noise; over a resolving system that
noise lands uniformly, with mass 1/(P_L*F_R), 1/P_L^2 or 1/F_R^2 according
to the step direction, so the frame performs a finite-state Markov chain
with an exactly computable kernel.  Kernels are exact rationals; floats
appear only in eigendata and empirical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DefectcaError, MultipleDefectsError
from .rules import (LocalRule, check_invariance, is_left_resolving, is_right_resolving,
                    power_recode_rule)
from .shifts import (
    Alphabet,
    MarkovShift,
    Word,
    build_markov_shift,
    higher_power,
    perron,
    regularity,
    transitive_components,
)
from .tracking import defect_run, frame_of


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

    left_ok = True
    if not regularity(L).left_regular:
        left_ok = False
        notes.append("L is not left-regular")
    if not check_invariance(rule, L):
        left_ok = False
        notes.append("rule does not preserve L")
    wit: list = []
    if left_ok and not is_left_resolving(rule, L, witness=wit):
        left_ok = False
        notes.append(f"L is not left-resolving: witness {wit[0]}")

    right_ok = True
    if not regularity(R).right_regular:
        right_ok = False
        notes.append("R is not right-regular")
    if not check_invariance(rule, R):
        right_ok = False
        notes.append("rule does not preserve R")
    wit = []
    if right_ok and not is_right_resolving(rule, R, witness=wit):
        right_ok = False
        notes.append(f"R is not right-resolving: witness {wit[0]}")

    lam = rho = None
    measures_ok = True
    try:
        lam = parry_measure(L)
        rho = parry_measure(R)
    except DefectcaError as e:
        measures_ok = False
        notes.append(f"Parry measure unavailable: {e}")
    return ResolvingSystemReport(union_ok, left_ok, right_ok, measures_ok,
                                 tuple(notes), lam, rho)


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

    def row(self, s: State) -> dict:
        return self.rows[s]


def _one_step(rule: LocalRule, union: MarkovShift, state: State,
              l3: int, r3: int) -> int | str:
    """The frame's next start for one noise choice, or "vanished" / "split".

    ``state`` holds cells z-2..z+3 with the frame at [z, z+1] and z = 0 here.
    The image is computed on -2..3 and the new frame start is read off the
    unique bad-transition run.
    """
    img = rule.image_word((l3, *state, r3))
    try:
        run = defect_run(img, union.edges, -2)
    except MultipleDefectsError:
        return "split"
    if run is None:
        return "vanished"
    return frame_of(run)[0]


def _velocity_of_state(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                       union: MarkovShift, state: State) -> Optional[int]:
    """The frame displacement, verified independent of the outer noise."""
    vs = set()
    for l3 in L.predecessors(state[0]):
        for r3 in R.followers(state[5]):
            vs.add(_one_step(rule, union, state, l3, r3))
    if len(vs) != 1:
        raise DefectcaError(f"frame displacement at {state} depends on noise: {vs}")
    v = vs.pop()
    if v in ("split", "vanished"):
        return None  # the state leaves the walk regime
    if not -1 <= v <= 1:
        raise DefectcaError(f"frame moved by {v} at {state}; not a width-2 walk")
    return v


def _phi_left_set(rule: LocalRule, L: MarkovShift, l2: int, l1: int) -> list[int]:
    return sorted({rule((a, l2, l1)) for a in L.predecessors(l2)})


def _phi_right_set(rule: LocalRule, R: MarkovShift, r1: int, r2: int) -> list[int]:
    return sorted({rule((r1, r2, d)) for d in R.followers(r2)})


def _successors(rule: LocalRule, L: MarkovShift, R: MarkovShift, v: int,
                s: State, P_L: int, F_R: int) -> dict[State, Fraction]:
    l2, l1, d0, d1, r1, r2 = s
    phi = rule
    out: dict[State, Fraction] = {}
    if v == 0:
        l1n = phi((l2, l1, d0))
        d0n = phi((l1, d0, d1))
        d1n = phi((d0, d1, r1))
        r1n = phi((d1, r1, r2))
        mass = Fraction(1, P_L * F_R)
        for l2n in L.predecessors(l1n):
            for r2n in R.followers(r1n):
                out[(l2n, l1n, d0n, d1n, r1n, r2n)] = mass
    elif v == -1:
        d0n = phi((l2, l1, d0))
        d1n = phi((l1, d0, d1))
        r1n = phi((d0, d1, r1))
        r2n = phi((d1, r1, r2))
        mass = Fraction(1, P_L * P_L)
        for l1n in _phi_left_set(rule, L, l2, l1):
            for l2n in L.predecessors(l1n):
                out[(l2n, l1n, d0n, d1n, r1n, r2n)] = mass
    else:
        l2n = phi((l2, l1, d0))
        l1n = phi((l1, d0, d1))
        d0n = phi((d0, d1, r1))
        d1n = phi((d1, r1, r2))
        mass = Fraction(1, F_R * F_R)
        for r1n in _phi_right_set(rule, R, r1, r2):
            for r2n in R.followers(r1n):
                out[(l2n, l1n, d0n, d1n, r1n, r2n)] = mass
    if sum(out.values()) != 1:
        raise DefectcaError(f"kernel row at {s} does not sum to 1")
    return out


def build_walk_kernel(rule: LocalRule, L: MarkovShift, R: MarkovShift, W: int,
                      delta_support: Optional[Iterable] = None) -> WalkKernel:
    """The exact kernel on reachable six-cell states, in rational arithmetic.

    ``W`` is the seeded defect width; widths above one are power-recoded so
    the frame spans two cells internally.  ``delta_support`` restricts the
    initial middle cells (defaults to every alphabet word of length W).
    """
    report = verify_resolving_system(rule, L, R)
    if not report.passed:
        raise DefectcaError("not a resolving system: " + "; ".join(report.witnesses))
    if W >= 2:
        rule_w = power_recode_rule(rule, W)
        L_w, coder = higher_power(L, W)
        R_w, _ = higher_power(R, W)
        if delta_support is None:
            d0s = list(range(rule_w.alphabet.size))
        else:
            d0s = sorted({coder.pack(w) for w in delta_support})
        return _assemble_kernel(rule_w, L_w, R_w, W, d0s)
    if W == 1:
        d0s = (sorted(range(rule.alphabet.size)) if delta_support is None
               else sorted({w[0] for w in delta_support}))
        return _assemble_kernel(rule, L, R, W, d0s)
    return _assemble_kernel(rule, L, R, 0, None)


def _assemble_kernel(rule: LocalRule, L: MarkovShift, R: MarkovShift, W: int,
                     d0s) -> WalkKernel:
    union = union_shift(L, R)
    P_L = regularity(L).P_S
    F_R = regularity(R).F_S
    seeds = []
    if W == 0:
        for l2, l1 in L.edges:
            for d0 in L.followers(l1):
                for d1 in sorted(R.usable):
                    for r1 in R.followers(d1):
                        for r2 in R.followers(r1):
                            seeds.append((l2, l1, d0, d1, r1, r2))
    else:
        for l2, l1 in L.edges:
            for d0 in d0s:
                for d1 in sorted(R.usable):
                    for r1 in R.followers(d1):
                        for r2 in R.followers(r1):
                            seeds.append((l2, l1, d0, d1, r1, r2))
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
    index = {s: i for i, s in enumerate(kernel.states)}
    edges = [(index[s], index[t]) for s in kernel.states
             for t in kernel.rows[s] if t in index]
    shiftlike = build_markov_shift(_IndexAlphabet(len(kernel.states)), edges)
    comps = transitive_components(shiftlike)
    classes = []
    for comp in comps:
        states = tuple(kernel.states[i] for i in sorted(comp.usable))
        if all(t in states for s in states for t in kernel.rows[s]):
            classes.append(states)
    return classes


def _IndexAlphabet(n: int):
    return Alphabet(tuple(f"s{i}" for i in range(n)))


def _stationary_exact(states: tuple, rows: dict) -> dict:
    """Solve pi P = pi, sum(pi) = 1 over the rationals by Gaussian elimination."""
    n = len(states)
    idx = {s: i for i, s in enumerate(states)}
    A = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for s in states:
        for t, p in rows[s].items():
            A[idx[t]][idx[s]] += p
    for i in range(n):
        A[i][i] -= 1
    for j in range(n):  # replace the last equation with sum = 1
        A[n - 1][j] = Fraction(1)
    A[n - 1][n] = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return {s: A[idx[s]][n] for s in states}


def stationary_and_drift(kernel: WalkKernel) -> list[RecurrentClassStats]:
    """Exact stationary distribution and drift per recurrent class."""
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
        if self.theoretical is None:
            return None
        return [c.drift for c in self.theoretical]


class _NoiseSource:
    """Batched per-sample RNG with deterministic (seed, index) streams."""

    def __init__(self, master_seed: int, index: int):
        self.rng = np.random.default_rng([master_seed, index])
        self._buf = self.rng.random(4096)
        self._pos = 0

    def uniform(self) -> float:
        if self._pos == len(self._buf):
            self._buf = self.rng.random(4096)
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return float(u)

    def choose(self, options_probs) -> int:
        u = self.uniform()
        acc = 0.0
        for sym, p in options_probs:
            acc += p
            if u < acc:
                return sym
        return options_probs[-1][0]


# Share of samples allowed to vanish or split before sample_walks gives up.
MAX_EXCLUDED_FRAC = 0.001


def sample_walks(rule: LocalRule, L: MarkovShift, R: MarkovShift, delta: dict,
                 T: int, n: int, seed: int, *, W: int = 1,
                 kernel: Optional[WalkKernel] = None
                 ) -> tuple[list[list[int]], WalkStatistics]:
    """Track n independent defect walks of T steps each.

    Backgrounds are sampled lazily from the Parry measures (backward kernel
    leftward, forward kernel rightward); the middle cells are drawn from
    ``delta``, a probability dict over width-W words.  Returns the recorded
    trajectories and aggregate statistics; samples whose defect vanishes or
    splits are excluded, and exceeding :data:`MAX_EXCLUDED_FRAC` aborts the
    run.
    """
    if W not in (0, 1):
        raise NotImplementedError("sampler is implemented for width 0 and 1 seeds")
    report = verify_resolving_system(rule, L, R)
    if not report.passed:
        raise DefectcaError("not a resolving system: " + "; ".join(report.witnesses))
    lam, rho = report.lam, report.rho
    union = union_shift(L, R)
    fwd = {s: rho.forward_row(s) for s in R.usable}
    bwd = {s: lam.backward_row(s) for s in L.usable}
    lam0 = sorted(lam.initial.items())
    rho0 = sorted(rho.initial.items())
    delta_items = sorted(delta.items())
    edges = union.edges

    margin = 6
    trajectories: list[list[int]] = []
    counts: dict = {}
    pair_counts: dict = {}
    excluded = 0
    drifts = []
    # The seed junction is the innermost left-background cell, W middle
    # cells and the innermost right-background cell.  W=1 draws the middle,
    # then the right, then the left cell; W=0 draws the left, then the right.
    if W == 1:
        draws = ((1, [(w[0], p) for w, p in delta_items]), (2, rho0), (0, lam0))
    else:
        draws = ((0, lam0), (1, rho0))
    for i in range(n):
        noise = _NoiseSource(seed, i)
        # initial window: frame at [0, 1].  The walk measure lives on
        # defect-carrying junctions, so the junction draw is rejection-
        # conditioned on actually breaking admissibility.
        for _ in range(10_000):
            cells = [0] * (W + 2)
            for j, law in draws:
                cells[j] = noise.choose(law)
            if any(pair not in edges for pair in zip(cells, cells[1:])):
                break
        else:
            raise DefectcaError("no seeded junction breaks admissibility; "
                                "no defect to track")
        lo = -margin - 2
        for _ in range(-W - lo):
            cells.insert(0, noise.choose(bwd[cells[0]]))
        hi = margin + 4
        for _ in range(hi - 2):
            cells.append(noise.choose(fwd[cells[-1]]))
        # cells now covers [lo, hi)
        z = 0
        zs = [0]
        prev_state = None
        prev_pair = None
        ok = True
        for t in range(T):
            # extend so the post-image window always covers the trim target
            while z - lo < margin + 4:
                cells.insert(0, noise.choose(bwd[cells[0]]))
                lo -= 1
            while hi - z < margin + 6:
                cells.append(noise.choose(fwd[cells[-1]]))
                hi += 1
            cells = rule.image_word(cells)
            lo += 1
            hi -= 1
            try:
                run = defect_run(cells, edges, lo)
            except MultipleDefectsError:
                run = None
            if run is None:
                ok = False
                break
            z = frame_of(run)[0]
            zs.append(z)
            state = cells[z - 2 - lo: z + 4 - lo]
            if prev_state is not None:
                row = counts.setdefault(prev_state, {})
                row[state] = row.get(state, 0) + 1
                if prev_pair is not None:
                    prow = pair_counts.setdefault(prev_pair, {})
                    prow[state] = prow.get(state, 0) + 1
                prev_pair = (prev_state, state)
            else:
                prev_pair = None
            prev_state = state
            # trim the window around the new frame
            new_lo = z - margin - 2
            new_hi = z + margin + 4
            cells = list(cells[new_lo - lo: new_hi - lo])
            lo, hi = new_lo, new_hi
        if not ok:
            excluded += 1
            if excluded > max(1, MAX_EXCLUDED_FRAC * n):
                raise DefectcaError(
                    f"{excluded} of {i + 1} samples vanished or split; "
                    "the system is not behaving as a persistent walk")
            continue
        drifts.append((zs[-1] - zs[0]) / T)
        trajectories.append(zs)
    kept = len(trajectories)
    drift = float(np.mean(drifts)) if drifts else float("nan")
    var = float(np.var([(tr[-1] - tr[0]) for tr in trajectories]) / T) if kept else float("nan")
    stats = WalkStatistics(kept, T, excluded, drift, var, counts, pair_counts,
                           stationary_and_drift(kernel) if kernel else None)
    return trajectories, stats


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
        if kernel.W == 1:
            mid = delta.get((d0,), 0.0)
        else:
            mid = lam.kernel.get((l1, d0), 0.0)
        p = (lam.initial.get(l1, 0.0) * lam.backward(l2, l1) * mid *
             rho.initial.get(d1, 0.0) * rho.kernel.get((d1, r1), 0.0) *
             rho.kernel.get((r1, r2), 0.0))
        if p > 0:
            init.append((s, p))
    total = sum(p for _, p in init)
    init = [(s, p / total) for s, p in init]
    trajectories = []
    counts: dict = {}
    for i in range(n):
        noise = _NoiseSource(seed, i)
        s = noise.choose(init)
        z = 0
        zs = [z]
        for t in range(T):
            row = sorted(kernel.rows[s].items())
            nxt = noise.choose([(j, float(p)) for j, (_, p) in enumerate(row)])
            s_next = row[nxt][0]
            c = counts.setdefault(s, {})
            c[s_next] = c.get(s_next, 0) + 1
            z += kernel.vel[s]
            zs.append(z)
            s = s_next
        trajectories.append(zs)
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
    max_tv: float


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
    def expected(state):
        return kernel.rows.get(state)

    rows = _compare_rows(stats.transition_counts, expected, visit_floor, tv_tol)

    def expected_pair(pair):
        return kernel.rows.get(pair[1])

    rows1 = _compare_rows(stats.pair_counts, expected_pair, visit_floor, tv_tol)
    relevant = [r for r in rows + rows1 if r.conclusive]
    passed = all(r.passed for r in relevant) and bool(rows)
    max_tv = max((r.tv for r in rows), default=float("nan"))
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
