"""Locating and tracking a single defect against a Markov background.

A defect is a maximal run of inadmissible transitions.  Tracking iterates
the rule and relocates the run; :func:`~defectca.lattice.apply_rule` keeps
the core trimmed to the cells that differ from the backgrounds, so each
step costs work in proportion to the defect, not to the elapsed time.
Locating the defect and recording it share one window read per step: the
record's word is sliced from the scan window of :func:`locate_defect`.

The defect frame is defined here once: :func:`frame_of` centres a frame on a
run, :func:`next_frame` reads the next frame start off an imaged word, and
:func:`frame_moves` steps a two-cell frame over every outer noise pair.  The
diffusive walk kernels and the CA-to-machine extraction both use that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    cur = config
    for t in range(T + 1):
        if t:
            cur = apply_rule(rule, cur)
        lo, word = _scan_window(cur)
        try:
            interval = defect_run(word, shift.edges, lo)
        except MultipleDefectsError:
            verdict = Verdict("split", t=t)
            break
        if interval is None:
            verdict = Verdict("vanished", t=t)
            break
        if interval.w > width_cap:
            verdict = Verdict("blight", t=t)
            break
        # the record covers [i + 1, k + 1), inside the scan window
        z, L, R = frame_of(interval)
        records.append(DefectRecord(t, z, L, R,
                                    word[interval.i + 1 - lo:interval.k + 1 - lo]))
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
