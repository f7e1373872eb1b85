"""Serialization: shift/rule/configuration JSON, trajectory CSV, PBM/PGM.

All formats are plain text and bit-exact, so reruns with the same seed can
be compared byte for byte.
"""

from __future__ import annotations

import csv
import io as _io
import json
from typing import Optional, Sequence

from .errors import DefectcaError
from .lattice import Configuration, PeriodicBackground, apply_rule
from .rules import LocalRule, from_linear, from_wolfram_number, rule_from_table
from .shifts import SFT, Alphabet, MarkovShift, Word, build_markov_shift, build_sft
from .tracking import DefectTrajectory, bad_transitions


# ---------------------------------------------------------------------------
# Alphabets and words
# ---------------------------------------------------------------------------

def _parse_word(alphabet: Alphabet, spec) -> Word:
    if isinstance(spec, str):
        return alphabet.word_from_text(spec)
    return tuple(int(s) for s in spec)


def _format_word(alphabet: Alphabet, word: Sequence[int]):
    if all(len(l) == 1 for l in alphabet.labels):
        return "".join(alphabet.labels[s] for s in word)
    return list(word)


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def load_shift(spec: dict):
    """Parse {"alphabet", "edges"} into a Markov shift or
    {"alphabet", "radius", "admissible"} into an SFT."""
    alphabet = Alphabet(tuple(str(l) for l in spec["alphabet"]))
    if "edges" in spec:
        return build_markov_shift(alphabet,
                                  [(int(a), int(b)) for a, b in spec["edges"]])
    if "admissible" in spec:
        q = int(spec["radius"])
        words = [_parse_word(alphabet, w) for w in spec["admissible"]]
        return build_sft(alphabet, q, words)
    raise DefectcaError("shift spec needs 'edges' or 'radius'+'admissible'")


def save_shift(shift) -> dict:
    if isinstance(shift, MarkovShift):
        return {"alphabet": list(shift.alphabet.labels),
                "edges": sorted([a, b] for a, b in shift.edges)}
    return {"alphabet": list(shift.alphabet.labels), "radius": shift.q,
            "admissible": sorted(_format_word(shift.alphabet, w)
                                 for w in shift.admissible)}


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def load_rule(spec: dict) -> LocalRule:
    """Parse {"wolfram": n} | {"linear": ...} | explicit total tables."""
    if "wolfram" in spec:
        return from_wolfram_number(int(spec["wolfram"]))
    if "linear" in spec:
        lin = spec["linear"]
        return from_linear(int(lin["n"]), tuple(int(c) for c in lin["coeffs"]))
    if "table" in spec:
        alphabet = Alphabet(tuple(str(l) for l in spec["alphabet"]))
        radius = int(spec["radius"])
        table = {_parse_word(alphabet, k): alphabet.index(str(v))
                 for k, v in spec["table"].items()}
        want = alphabet.size ** (2 * radius + 1)
        if len(table) != want:
            raise DefectcaError(
                f"rule table is partial: {len(table)} of {want} neighborhoods")
        return rule_from_table(alphabet, radius, table)
    raise DefectcaError("rule spec needs 'wolfram', 'linear' or 'table'")


def save_rule(rule: LocalRule) -> dict:
    table = rule.dense_table()
    return {"alphabet": list(rule.alphabet.labels), "radius": rule.radius,
            "table": {rule.alphabet.word_to_text(k): rule.alphabet.labels[v]
                      for k, v in sorted(table.items())}}


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def load_config(spec: dict, alphabet: Alphabet) -> Configuration:
    def bg(s):
        return PeriodicBackground(_parse_word(alphabet, s["word"]),
                                  int(s.get("phase", 0)))
    return Configuration(alphabet, bg(spec["left"]),
                         _parse_word(alphabet, spec.get("core", "")),
                         bg(spec["right"]), int(spec.get("origin", 0)))


def save_config(config: Configuration) -> dict:
    a = config.alphabet
    return {"left": {"word": _format_word(a, config.left.word),
                     "phase": config.left.phase},
            "core": _format_word(a, config.core),
            "right": {"word": _format_word(a, config.right.word),
                      "phase": config.right.phase},
            "origin": config.origin}


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def trajectory_csv(traj: DefectTrajectory, alphabet: Alphabet) -> str:
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "z", "L", "R", "defect_word"])
    for r in traj.records:
        w.writerow([r.t, r.z, r.L, r.R, alphabet.word_to_text(r.word)])
    return buf.getvalue()


def trajectory_summary(traj: DefectTrajectory) -> dict:
    v = traj.verdict
    out = {"verdict": v.kind, "steps": len(traj.records)}
    if v.width is not None:
        out["width"] = v.width
    if v.t is not None:
        out["t"] = v.t
    if len(traj.records) >= 2:
        first, last = traj.records[0], traj.records[-1]
        out["mean_velocity"] = (last.z - first.z) / (last.t - first.t)
    return out


# ---------------------------------------------------------------------------
# Spacetime bitmaps
# ---------------------------------------------------------------------------

def render_spacetime(rows: Sequence[Sequence[int]], alphabet: Alphabet,
                     highlight: Optional[Sequence[Sequence[bool]]] = None
                     ) -> tuple[bytes, Optional[bytes]]:
    """Rows of symbols to a PBM (binary alphabets) or PGM image.

    Time increases downward.  An optional boolean mask of the same shape is
    rendered as a companion PBM.
    """
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DefectcaError("ragged spacetime rows")
    lines: list[str]
    if alphabet.size == 2:
        lines = [f"P1", f"{width} {len(rows)}"]
        for r in rows:
            lines.append(" ".join(str(int(s)) for s in r))
    else:
        levels = alphabet.size - 1
        lines = [f"P2", f"{width} {len(rows)}", "255"]
        for r in rows:
            lines.append(" ".join(str(int(round(255 * s / levels))) for s in r))
    image = ("\n".join(lines) + "\n").encode()
    mask_bytes = None
    if highlight is not None:
        mlines = ["P1", f"{width} {len(rows)}"]
        for r in highlight:
            mlines.append(" ".join("1" if b else "0" for b in r))
        mask_bytes = ("\n".join(mlines) + "\n").encode()
    return image, mask_bytes


def spacetime_rows(rule: LocalRule, config: Configuration, steps: int,
                   lo: int, hi: int,
                   shift: Optional[MarkovShift] = None
                   ) -> tuple[list[Word], list[list[bool]]]:
    """Evolve a configuration and collect a window per step.

    When a background shift is given, the mask flags cells adjacent to an
    inadmissible transition (the defect cells); otherwise it holds all-False
    rows.
    """
    rows = []
    masks = []
    cur = config
    for t in range(steps):
        row = cur.window(lo - 1, hi + 1)
        rows.append(row[1:-1])
        if shift is not None:
            bad = [False] * (len(row) - 1)
            for j in bad_transitions(row, shift.edges):
                bad[j] = True
            masks.append([bad[j] or bad[j + 1] for j in range(hi - lo)])
        else:
            masks.append([False] * (hi - lo))
        cur = apply_rule(rule, cur)
    return rows, masks


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
