"""Serialization: shift/rule/configuration JSON, trajectory CSV, PBM/PGM.

All formats are plain text and bit-exact, so reruns with the same seed can
be compared byte for byte.
"""

from __future__ import annotations

import csv
import io as _io
import json
import operator
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

# bytes 0 and 1 to the digits "0" and "1", every other byte to NUL, which
# no digit is
_DIGITS = b"01" + bytes(254)

def _width(rows: Sequence[Sequence[int]], what: str) -> int:
    """The one length of every row, which must be at least 1."""
    if not rows:
        raise DefectcaError(f"{what} has no rows")
    width = len(rows[0])
    if not width:
        raise DefectcaError(f"{what} row 0 is empty")
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DefectcaError(f"{what} row {i} has {len(r)} cells, "
                                f"row 0 has {width}")
    return width


def _bad_cell(rows: Sequence[Sequence[int]], n: int,
              what: str) -> DefectcaError:
    """The error naming the first cell of ``rows`` that is not in 0..n-1."""
    for i, r in enumerate(rows):
        for v in r:
            try:
                if 0 <= operator.index(v) < n:
                    continue
            except TypeError:
                pass
            return DefectcaError(f"{what} row {i} holds {v!r}, "
                                 f"not a value in 0..{n - 1}")
    return DefectcaError(f"{what} rows do not read as one byte per cell")


def _pbm(rows: Sequence[Sequence[int]], width: int, what: str) -> bytes:
    """A P1 image of 0/1 rows of ``width`` cells: the rows joined into one
    byte string, translated to digits and interleaved with separators."""
    try:
        digits = b"".join(map(bytes, rows)).translate(_DIGITS)
    except (TypeError, ValueError):
        digits = b""
    if len(digits) != width * len(rows) or b"\0" in digits:
        raise _bad_cell(rows, 2, what)
    text = bytearray(b" ") * (2 * len(digits))
    text[::2] = digits
    text[2 * width - 1::2 * width] = b"\n" * len(rows)
    return f"P1\n{width} {len(rows)}\n".encode() + text


def render_spacetime(rows: Sequence[Sequence[int]], alphabet: Alphabet,
                     highlight: Optional[Sequence[Sequence[int]]] = None
                     ) -> tuple[bytes, Optional[bytes]]:
    """Rows of symbols to a PBM (binary alphabets) or PGM image.

    Time increases downward.  An optional 0/1 mask of the same shape (rows
    of bools, ints or ``bytes``, as :func:`spacetime_rows` gives them) is
    rendered as a companion PBM.  Raises :class:`DefectcaError`, naming
    the row, when there are no rows, a row is empty or of another length,
    a cell is not a symbol of ``alphabet`` or a mask cell is not 0 or 1.
    """
    width = _width(rows, "spacetime diagram")
    if alphabet.size == 2:
        image = _pbm(rows, width, "spacetime diagram")
    else:
        levels = alphabet.size - 1
        gray = {s: str(int(round(255 * s / levels))).encode()
                for s in range(alphabet.size)}
        try:
            lines = [b" ".join(map(gray.__getitem__, r)) for r in rows]
        except (KeyError, TypeError):
            raise _bad_cell(rows, alphabet.size, "spacetime diagram") from None
        image = f"P2\n{width} {len(rows)}\n255\n".encode() + \
            b"\n".join(lines) + b"\n"
    if highlight is None:
        return image, None
    if len(highlight) != len(rows) or _width(highlight, "mask") != width:
        raise DefectcaError(f"mask is not {width} by {len(rows)} cells, "
                            "the shape of the diagram")
    return image, _pbm(highlight, width, "mask")


def _defect_mask(config: Configuration, edges, lo: int, hi: int,
                 blank: bytes) -> bytes:
    """The cells [lo, hi) next to an inadmissible transition, as 0/1 bytes.

    Transition p joins cells p and p + 1; the row's are p in [lo - 1, hi).
    Those touching the core are scanned in its window [origin - 1,
    end + 1), clipped to the row; those inside a background repeat with
    its period, so its word is scanned once, cyclically, and each bad
    residue is tiled across the background's part of the row.
    """
    o, e = config.origin, config.end
    bad = []
    for bg, start, stop in ((config.left, lo - 1, min(o - 1, hi)),
                            (config.right, max(e, lo - 1), hi)):
        if start < stop:
            w = bg.word
            for k in bad_transitions(w + w[:1], edges):
                bad.extend(range(start + (k - bg.phase - start) % len(w),
                                 stop, len(w)))
    a, b = max(o - 1, lo - 1), min(e + 1, hi + 1)
    if b - a > 1:
        bad.extend(a + j for j in bad_transitions(config.window(a, b), edges))
    if not bad:
        return blank
    mask = bytearray(blank)
    for p in bad:
        if p >= lo:
            mask[p - lo] = 1
        if p + 1 < hi:
            mask[p + 1 - lo] = 1
    return bytes(mask)


def spacetime_rows(rule: LocalRule, config: Configuration, steps: int,
                   lo: int, hi: int,
                   shift: Optional[MarkovShift] = None
                   ) -> tuple[list[Word], list[bytes]]:
    """Evolve a configuration and collect the window [lo, hi) per step.

    Each step also gives a mask row of ``hi - lo`` bytes: with a background
    shift, 1 marks a cell next to a transition the shift forbids (a defect
    cell) and 0 every other cell.  It is exact whether or not the
    backgrounds are admissible, but scans only the core's transitions and
    one period of each background.  Without a shift every mask row is the
    same all-0 row.  Raises :class:`DefectcaError` when the window holds no
    cell.
    """
    if hi <= lo:
        raise DefectcaError(f"spacetime window [{lo}, {hi}) holds no cell")
    blank = bytes(hi - lo)
    rows = []
    masks = []
    cur = config
    for _ in range(steps):
        rows.append(cur.window(lo, hi))
        masks.append(blank if shift is None else
                     _defect_mask(cur, shift.edges, lo, hi, blank))
        cur = apply_rule(rule, cur)
    return rows, masks


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
