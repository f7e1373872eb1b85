"""Locating and tracking a single defect against a Markov background.

A defect is a maximal run of inadmissible transitions.  Tracking iterates
the rule and relocates the run; :func:`~defectca.lattice.apply_rule` keeps
the core trimmed to the cells that differ from the backgrounds, so each
step costs work in proportion to the defect, not to the elapsed time.

A configuration seen from its core, (one period of left background next to
the core, the core, one period of right background next to it), fixes the
configuration up to translation, and so fixes its future: the scan for its
defect and its image under the rule, up to the same translation.  The
window stepper :class:`_Stepper` keys on that triple and steps and scans
each key once, on its first visit; after that a step is one dict lookup.
:func:`track` makes one stepper per call, and junction classification
(:mod:`defectca.ballistic`) one per call shared by all its seeds, so a
periodic particle costs its transient plus one period of rule
applications however long it is tracked.  The memo lives as long as the
call and grows with the distinct configurations met, not with T.

The defect frame is defined here once: :func:`frame_of` centres a frame on a
run, :func:`next_frame` reads the next frame start off an imaged word, and
:func:`frame_moves` steps a two-cell frame over every outer noise pair.  The
diffusive walk kernels and the CA-to-machine extraction both use that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DefectcaError, MultipleDefectsError
from .lattice import Configuration, apply_rule
from .rules import LocalRule
from .shifts import MarkovShift, Word


class DefectInterval(NamedTuple):
    """Maximal run [i..k] of inadmissible transitions; width w = k - i."""

    i: int
    k: int

    @property
    def w(self) -> int:
        return self.k - self.i


@dataclass(frozen=True)
class DefectRecord:
    """One tracked step: frame center z, raw extents, raw defect word.

    Conventions: L = ceil(w/2) - 1, R = floor(w/2), z = i + L + 1, and the
    word is the configuration restricted to [z-L, z+R] (empty when w = 0).
    """

    t: int
    z: int
    L: int
    R: int
    word: Word

    @property
    def width(self) -> int:
        return self.L + self.R + 1


@dataclass(frozen=True)
class Verdict:
    kind: str  # "particle" | "blight" | "vanished" | "split"
    width: Optional[int] = None
    t: Optional[int] = None

    @property
    def is_particle(self) -> bool:
        return self.kind == "particle"


@dataclass(frozen=True)
class DefectTrajectory:
    records: tuple[DefectRecord, ...]
    verdict: Verdict


def frame_of(interval: DefectInterval) -> tuple[int, int, int]:
    """(z, L, R) of the roughly-centered frame for a transition run."""
    w = interval.w
    L = (w + 1) // 2 - 1
    R = w // 2
    return interval.i + L + 1, L, R


def bad_transitions(word: Sequence[int], edges) -> list[int]:
    """Indices j whose transition (word[j], word[j+1]) is not in ``edges``."""
    return [j for j in range(len(word) - 1) if (word[j], word[j + 1]) not in edges]


def defect_run(word: Sequence[int], edges, origin: int) -> Optional[DefectInterval]:
    """The single maximal run of inadmissible transitions in a word.

    Transition j is reported at ``origin + j``.  None when every transition
    is admissible; raises :class:`MultipleDefectsError` when the bad
    transitions form more than one run.
    """
    bad = bad_transitions(word, edges)
    if not bad:
        return None
    if bad[-1] - bad[0] != len(bad) - 1:
        cuts = [n for n in range(1, len(bad)) if bad[n] != bad[n - 1] + 1]
        runs = [(origin + bad[a], origin + bad[b - 1])
                for a, b in zip([0] + cuts, cuts + [len(bad)])]
        raise MultipleDefectsError(f"{len(runs)} separated defects at {runs}")
    return DefectInterval(origin + bad[0], origin + bad[-1])


def next_frame(img: Word, edges, origin: int) -> int | str:
    """The frame start read off the one defect run of ``img``, whose first
    cell sits at ``origin``, or "vanished" / "split"."""
    try:
        run = defect_run(img, edges, origin)
    except MultipleDefectsError:
        return "split"
    return "vanished" if run is None else frame_of(run)[0]


def frame_moves(rule: LocalRule, L: MarkovShift, R: MarkovShift,
                union: MarkovShift, state: Sequence[int]) -> set:
    """The next frame starts of the six-cell ``state`` (cells -2..3, frame
    at [0, 1]) over every outer noise pair: one step of the two-cell defect
    frame between a left background ``L`` and a right one ``R``."""
    return {next_frame(rule.image_word((l3, *state, r3)), union.edges, -2)
            for l3 in L.predecessors(state[0]) for r3 in R.followers(state[5])}


def _scan_window(config: Configuration) -> tuple[int, Word]:
    """The cells [origin - 1, end + 1): every transition touching the core."""
    lo = config.origin - 1
    return lo, config.window(lo, config.end + 1)


def locate_defect(config: Configuration, shift: MarkovShift) -> Optional[DefectInterval]:
    """The unique maximal run of inadmissible transitions touching the core.

    Backgrounds are assumed admissible, so only transitions involving a core
    cell are scanned.  Raises :class:`MultipleDefectsError` when more than
    one separated run is present.
    """
    lo, word = _scan_window(config)
    return defect_run(word, shift.edges, lo)


def _key(config: Configuration) -> tuple:
    """(one period of left background next to the core, the core, one period
    of right background next to it): the configuration up to translation."""
    o, e = config.origin, config.end
    return (config.left.cells(o - len(config.left.word), o), config.core,
            config.right.cells(e, e + len(config.right.word)))


class _Stepper:
    """The defect's dynamics up to translation, memoised for one call.

    Each key (see :func:`_key`) holds a configuration with that key, its
    scan and, once stepped, (next key, origin move).  A scan is a verdict
    kind ("split", "vanished" or "blight" past ``width_cap``) or (frame
    start z, L, R, defect word) with z relative to the core's origin.
    """

    def __init__(self, rule: LocalRule, shift: MarkovShift, width_cap: int):
        self.rule, self.edges, self.width_cap = rule, shift.edges, width_cap
        self._memo: dict = {}

    def _enter(self, config: Configuration) -> tuple:
        key = _key(config)
        if key not in self._memo:
            self._memo[key] = [config, self._scan(config), None]
        return key

    def _scan(self, config: Configuration):
        lo, word = _scan_window(config)
        try:
            run = defect_run(word, self.edges, lo)
        except MultipleDefectsError:
            return "split"
        if run is None:
            return "vanished"
        if run.w > self.width_cap:
            return "blight"
        z, L, R = frame_of(run)
        # the frame covers [i + 1, k + 1), inside the scan window
        return z - config.origin, L, R, word[run.i + 1 - lo:run.k + 1 - lo]

    def walk(self, config: Configuration, T: int) -> Iterator[tuple]:
        """(key, core origin, scan) at steps 0..T from ``config``; the
        caller stops at a verdict kind or where it has seen enough."""
        memo = self._memo
        key, origin = self._enter(config), config.origin
        entry = memo[key]
        yield key, origin, entry[1]
        for _ in range(T):
            if entry[2] is None:
                cur = entry[0]
                nxt = apply_rule(self.rule, cur)
                entry[2] = self._enter(nxt), nxt.origin - cur.origin
            key, move = entry[2]
            origin += move
            entry = memo[key]
            yield key, origin, entry[1]

    def config(self, key: tuple) -> Configuration:
        """A configuration with this key, its core at its own origin."""
        return self._memo[key][0]


def track(rule: LocalRule, shift: MarkovShift, config: Configuration, T: int,
          width_cap: int = 64) -> DefectTrajectory:
    """Track a single defect for T steps.

    Verdicts: ``particle`` if the width never exceeds ``width_cap`` through
    step T (the cap is a judgment, not a proof of boundedness), ``blight``
    when the cap is exceeded, ``vanished`` when the configuration becomes
    fully admissible, ``split`` when separate runs appear.
    """
    if T < 0:
        raise DefectcaError(f"T must be >= 0, got {T}")
    records: list[DefectRecord] = []
    steps = _Stepper(rule, shift, width_cap).walk(config, T)
    for t, (_, origin, scan) in enumerate(steps):
        if isinstance(scan, str):
            verdict = Verdict(scan, t=t)
            break
        z, L, R, word = scan
        records.append(DefectRecord(t, origin + z, L, R, word))
    else:
        verdict = Verdict("particle", width=max(r.width for r in records))
    return DefectTrajectory(tuple(records), verdict)


def check_velocity_bounds(traj: DefectTrajectory) -> list[str]:
    """Violations of the one-step displacement bounds, empty when all hold.

    (a) edges advance at most one cell: z0-L0-1 <= z1-L1 and
        z1+R1 <= z0+R0+1;
    (b) z0-L0-2 <= z1 <= z0+R0+1.
    """
    bad = []
    for a, b in zip(traj.records, traj.records[1:]):
        if not (a.z - a.L - 1 <= b.z - b.L and b.z + b.R <= a.z + a.R + 1):
            bad.append(f"(a) violated at t={a.t}: {a} -> {b}")
        if not (a.z - a.L - 2 <= b.z <= a.z + a.R + 1):
            bad.append(f"(b) violated at t={a.t}: {a} -> {b}")
    return bad
