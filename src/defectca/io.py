"""Serialization: shift/rule/configuration JSON, trajectory CSV, PBM/PGM.

All formats are plain text and bit-exact, so reruns with the same seed can
be compared byte for byte.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
from contextlib import contextmanager
from typing import Optional, Sequence

from .errors import DefectcaError, EmptySubshiftError
from .lattice import Configuration, PeriodicBackground, apply_rule
from .rules import LocalRule, from_linear, from_wolfram_number, rule_from_table
from .shifts import (Alphabet, MarkovShift, Word, build_markov_shift, build_sft,
                     check_word)
from .tracking import DefectTrajectory, bad_transitions
from .turing import ClassicalTM


# ---------------------------------------------------------------------------
# Config fields
# ---------------------------------------------------------------------------

class Field:
    """A config value, its dotted path (``seed_config.left.word``,
    ``tm.rules[3]``) and the directory its file references are relative to.

    Every accessor checks the value and raises a :class:`DefectcaError`
    that names the path, so bad input fails where it is read.
    """

    def __init__(self, value, path: str = "", base: str = "."):
        self.value, self.path, self.base = value, path, base

    @classmethod
    def read(cls, path: str) -> "Field":
        """A config file's top-level object; its directory is the base."""
        try:
            value = read_json(path)
        except (OSError, ValueError) as exc:
            raise DefectcaError(f"cannot read config file {path!r}: {exc}") \
                from exc
        if not isinstance(value, dict):
            raise DefectcaError(f"config file {path!r} must hold a JSON object")
        return cls(value, "", os.path.dirname(os.path.abspath(path)))

    def error(self, msg: str) -> DefectcaError:
        return DefectcaError(f"config field {self.path!r} {msg}")

    @contextmanager
    def feeds(self):
        """Re-raise a constructor's rejection of this value as an error
        that names the field."""
        try:
            yield
        except (ValueError, EmptySubshiftError) as exc:
            raise self.error(f"is invalid: {exc}") from exc

    def _child(self, value, key: str) -> "Field":
        return Field(value, f"{self.path}.{key}" if self.path else key,
                     self.base)

    def obj(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.error(f"must be an object, got {self.value!r}")
        return self.value

    def __contains__(self, key: str) -> bool:
        return key in self.obj()

    def __getitem__(self, key: str) -> "Field":
        if key not in self:
            if not self.path:
                raise DefectcaError(f"config field {key!r} is missing")
            raise self.error(f"needs the field {key!r}")
        return self._child(self.value[key], key)

    def get(self, key: str, default) -> "Field":
        return self[key] if key in self else self._child(default, key)

    def items(self) -> list[tuple[str, "Field"]]:
        return [(k, self._child(v, k)) for k, v in self.obj().items()]

    def list(self, length: Optional[int] = None) -> list["Field"]:
        if not isinstance(self.value, list):
            raise self.error(f"must be a list, got {self.value!r}")
        if length is not None and len(self.value) != length:
            raise self.error(f"must list {length} items, got {len(self.value)}")
        return [Field(v, f"{self.path}[{i}]", self.base)
                for i, v in enumerate(self.value)]

    def int(self, least: Optional[int] = None,
            most: Optional[int] = None) -> int:
        val = self.value
        if isinstance(val, bool) or not isinstance(val, int):
            raise self.error(f"must be an integer, got {val!r}")
        if least is not None and val < least:
            raise self.error(f"must be >= {least}, got {val}")
        if most is not None and val > most:
            raise self.error(f"must be <= {most}, got {val}")
        return val

    def number(self) -> float:
        if isinstance(self.value, bool) or \
                not isinstance(self.value, (int, float)):
            raise self.error(f"must be a number, got {self.value!r}")
        return float(self.value)

    def str(self) -> str:
        if not isinstance(self.value, str):
            raise self.error(f"must be a string, got {self.value!r}")
        return self.value

    def choice(self, options: Sequence):
        if self.value not in options:
            raise self.error(f"must be one of {list(options)}, "
                             f"got {self.value!r}")
        return self.value

    def file(self) -> "Field":
        """The value, or the JSON file a string value names."""
        if not isinstance(self.value, str):
            return self
        try:
            value = read_json(os.path.join(self.base, self.value))
        except (OSError, ValueError) as exc:
            raise self.error(f"references {self.value!r}, which is not a "
                             f"readable JSON file: {exc}") from exc
        return Field(value, self.path, self.base)

    def word(self, alphabet: Alphabet) -> Word:
        """Label text (concatenated, or comma-separated for longer labels)
        or a list of symbol indices."""
        with self.feeds():
            if isinstance(self.value, str):
                return alphabet.word_from_text(self.value) if self.value else ()
            return check_word(alphabet, [s.int() for s in self.list()])


def _field(spec, name: str) -> Field:
    return spec if isinstance(spec, Field) else Field(spec, name)


def _alphabet(f: Field) -> Alphabet:
    with f.feeds():
        return Alphabet(tuple(str(l.value) for l in f.list()))


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def load_shift(spec):
    """Parse {"alphabet", "edges"} into a Markov shift or
    {"alphabet", "radius", "admissible"} into an SFT."""
    f = _field(spec, "shift")
    alphabet = _alphabet(f["alphabet"])
    if "edges" in f:
        edges = f["edges"]
        pairs = [tuple(x.int() for x in e.list(2)) for e in edges.list()]
        with edges.feeds():
            return build_markov_shift(alphabet, pairs)
    if "admissible" in f:
        q = f["radius"].int(least=1)
        adm = f["admissible"]
        words = [w.word(alphabet) for w in adm.list()]
        with adm.feeds():
            return build_sft(alphabet, q, words)
    raise f.error("needs 'edges' or 'radius'+'admissible'")


def save_shift(shift) -> dict:
    if isinstance(shift, MarkovShift):
        return {"alphabet": list(shift.alphabet.labels),
                "edges": sorted([a, b] for a, b in shift.edges)}
    return {"alphabet": list(shift.alphabet.labels), "radius": shift.q,
            "admissible": sorted(shift.alphabet.word_to_text(w)
                                 for w in shift.admissible)}


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def load_rule(spec) -> LocalRule:
    """Parse {"wolfram": n} | {"linear": ...} | explicit total tables."""
    f = _field(spec, "rule")
    if "wolfram" in f:
        n = f["wolfram"]
        with n.feeds():
            return from_wolfram_number(n.int())
    if "linear" in f:
        lin = f["linear"]
        n, coeffs = lin["n"], lin["coeffs"].list(3)
        with n.feeds():
            return from_linear(n.int(), tuple(c.int() for c in coeffs))
    if "table" in f:
        alphabet = _alphabet(f["alphabet"])
        radius = f["radius"].int(least=0)
        k = 2 * radius + 1
        entries = f["table"]
        table = {}
        for key, out in entries.items():
            nbhd = Field(key, out.path).word(alphabet)
            if len(nbhd) != k:
                raise out.error(f"is not a neighborhood of {k} cells")
            with out.feeds():
                table[nbhd] = alphabet.index(str(out.value))
        with entries.feeds():
            return rule_from_table(alphabet, radius, table)
    raise f.error("needs 'wolfram', 'linear' or 'table'")


def save_rule(rule: LocalRule) -> dict:
    table = rule.dense_table()
    return {"alphabet": list(rule.alphabet.labels), "radius": rule.radius,
            "table": {rule.alphabet.word_to_text(k): rule.alphabet.labels[v]
                      for k, v in sorted(table.items())}}


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def load_config(spec, alphabet: Alphabet) -> Configuration:
    f = _field(spec, "seed_config")

    def bg(side):
        word = f[side]["word"]
        period = word.word(alphabet)
        if not period:
            raise word.error("must be a non-empty word")
        return PeriodicBackground(period, f[side].get("phase", 0).int())
    return Configuration(alphabet, bg("left"),
                         f.get("core", "").word(alphabet),
                         bg("right"), f.get("origin", 0).int())


# ---------------------------------------------------------------------------
# Turing machines
# ---------------------------------------------------------------------------

def load_tm(spec) -> ClassicalTM:
    """Parse {"states", "tape_size", "rules"}, one rule
    [state, read, write, move, next] per state and tape symbol."""
    f = _field(spec, "tm")
    states = tuple(s.str() for s in f["states"].list())
    if not states:
        raise f["states"].error("must name at least one state")
    tape_size = f["tape_size"].int(least=1)
    tau, ups, vel = {}, {}, {}
    for rule in f["rules"].list():
        state, read, write, move, nxt = rule.list(5)
        key = (read.int(0, tape_size - 1), state.choice(states))
        tau[key] = write.int(0, tape_size - 1)
        vel[key] = move.int(-1, 1)
        ups[key] = nxt.choice(states)
    want = len(states) * tape_size
    if len(tau) != want:
        raise f["rules"].error(f"is partial: {len(tau)} of {want} rules")
    return ClassicalTM(tape_size, states, tau, ups, vel)


def load_tape(spec, tape_size: int) -> dict[int, int]:
    """Parse {"z": symbol}, the tape cells that are not blank."""
    f = _field(spec, "tape")
    tape = {}
    for z, sym in f.items():
        with sym.feeds():
            cell = int(z)
        tape[cell] = sym.int(0, tape_size - 1)
    return tape


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
