"""Local rules: construction, invariance, permutativity, resolving checks.

A rule is stored as a total map from radius-``r`` neighborhoods to symbols,
either as a dense table (small alphabets) or as a callable with memoization
(block alphabets can be far too large to tabulate).  Each side check is
written for the right: a left-hand property is the right-hand one of the
mirrored line, whose rule is :func:`mirror` and whose shift is
:func:`~defectca.shifts.reverse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .errors import DefectcaError
from .shifts import (
    SFT,
    Alphabet,
    BlockCoder,
    MarkovShift,
    Word,
    binary_alphabet,
    block_alphabet,
    markov_presentation,
    markov_to_sft,
    pack_word,
    reverse,
    strongly_connected,
    transitive_components,
    unpack_word,
)


class LocalRule:
    """A radius-``r`` local rule ``phi: A^(2r+1) -> A``.

    ``fn`` must be total on neighborhoods; lookups are memoized.  Use
    :meth:`dense_table` only on alphabets small enough to enumerate.
    """

    def __init__(self, alphabet: Alphabet, radius: int,
                 fn: Callable[[Word], int], name: str = ""):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.alphabet = alphabet
        self.radius = radius
        self.name = name
        self._fn = fn
        self._memo: dict[Word, int] = {}
        self._images: dict[Word, Word] = {}
        # word[d:] for each offset d of a neighbourhood
        self._offsets = tuple(slice(d, None) for d in range(2 * radius + 1))

    def __repr__(self):
        return f"LocalRule({self.name or 'anonymous'}, radius={self.radius})"

    def __call__(self, nbhd: Sequence[int]) -> int:
        key = tuple(nbhd)
        out = self._memo.get(key)
        if out is None:
            if len(key) != 2 * self.radius + 1:
                raise ValueError(f"neighborhood must have length {2 * self.radius + 1}")
            out = self._fn(key)
            if not (0 <= out < self.alphabet.size):
                raise DefectcaError(f"rule output {out} outside alphabet")
            self._memo[key] = out
        return out

    def image_word(self, word: Sequence[int]) -> Word:
        """Apply the rule along a word; output is shorter by 2r."""
        try:
            return tuple(map(self._memo.__getitem__,
                             zip(*map(word.__getitem__, self._offsets))))
        except KeyError:  # a neighbourhood not yet memoised
            return tuple(map(self, zip(*map(word.__getitem__, self._offsets))))

    def periodic_image(self, word: Word) -> Word:
        """One period of the image of the periodic point ...word word...,
        anchored like ``word``; memoised on the rule by word."""
        out = self._images.get(word)
        if out is None:
            n, r = len(word), self.radius
            out = self.image_word(tuple(word[(k - r) % n] for k in range(n + 2 * r)))
            self._images[word] = out
        return out

    def dense_table(self) -> dict[Word, int]:
        k = 2 * self.radius + 1
        return {n: self(n) for n in product(range(self.alphabet.size), repeat=k)}


def rule_from_table(alphabet: Alphabet, radius: int,
                    table: dict[Word, int], name: str = "") -> LocalRule:
    k = 2 * radius + 1
    if len(table) != alphabet.size ** k:
        raise ValueError("rule table must be total on all neighborhoods")
    t = dict(table)
    return LocalRule(alphabet, radius, lambda n: t[n], name=name)


def from_wolfram_number(n: int) -> LocalRule:
    """Elementary CA rule: binary alphabet, radius 1, phi(i,j,k) = bit 4i+2j+k of n."""
    if not 0 <= n <= 255:
        raise ValueError("Wolfram number must be in [0, 255]")
    table = {(i, j, k): (n >> (4 * i + 2 * j + k)) & 1
             for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    return rule_from_table(binary_alphabet(), 1, table, name=f"ECA{n}")


def from_linear(n: int, coeffs: tuple[int, int, int]) -> LocalRule:
    """phi(a, b, c) = (c-1*a + c0*b + c1*c) mod n on the alphabet 0..n-1."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    cm, c0, cp = coeffs
    alpha = Alphabet(tuple(str(i) for i in range(n)))
    return LocalRule(alpha, 1,
                     lambda w: (cm * w[0] + c0 * w[1] + cp * w[2]) % n,
                     name=f"linear{coeffs}mod{n}")


def identity_rule(alphabet: Alphabet) -> LocalRule:
    return LocalRule(alphabet, 1, lambda w: w[1], name="identity")


def mirror(rule: LocalRule) -> LocalRule:
    """The rule of the mirrored line: phi~(w) = phi(reversed w)."""
    return LocalRule(rule.alphabet, rule.radius, lambda w: rule(w[::-1]),
                     name=f"mirror({rule.name})")


# ---------------------------------------------------------------------------
# Invariance / permutativity / resolving
# ---------------------------------------------------------------------------

def _as_sft(background) -> SFT:
    if isinstance(background, MarkovShift):
        return markov_to_sft(background)
    return background


def check_invariance(rule: LocalRule, background) -> bool:
    """True iff the image of every admissible (q+2r)-word is admissible."""
    sft = _as_sft(background)
    q, r = sft.q, rule.radius
    words = [w for w in product(range(rule.alphabet.size), repeat=q + 2 * r)
             if sft.is_locally_admissible(w)]
    return all(rule.image_word(w) in sft.admissible for w in words)


def is_left_permutative(rule: LocalRule, subalphabet: Iterable[int]) -> bool:
    """The leftmost argument acts bijectively on the subalphabet."""
    return is_right_permutative(mirror(rule), subalphabet)


def is_right_permutative(rule: LocalRule, subalphabet: Iterable[int]) -> bool:
    """The rightmost argument acts bijectively on the subalphabet."""
    syms = sorted(subalphabet)
    if rule.radius != 1:
        raise ValueError("permutativity checks need a radius-1 rule")
    for a in syms:
        for b in syms:
            image = {rule((a, b, c)) for c in syms}
            if image != set(syms):
                return False
    return True


def is_left_resolving(rule: LocalRule, shift: MarkovShift) -> bool:
    """For each admissible (b,c,d), predecessors of b map injectively under
    a -> phi(a,b,c) into the predecessors of phi(b,c,d)."""
    return is_right_resolving(mirror(rule), reverse(shift))


def is_right_resolving(rule: LocalRule, shift: MarkovShift,
                       witness: Optional[list] = None) -> bool:
    """For each admissible (a,b,c), followers of c map injectively under
    d -> phi(b,c,d) into the followers of phi(a,b,c)."""
    if rule.radius != 1:
        raise ValueError("radius must be 1 (recode first)")
    for a, b in shift.edges:
        for c in shift.followers(b):
            e = rule((a, b, c))
            seen = {}
            for d in shift.followers(c):
                out = rule((b, c, d))
                if out in seen or out not in shift.followers(e):
                    if witness is not None:
                        witness.append((a, b, c, d))
                    return False
                seen[out] = d
    return True


def is_surjective_on(rule: LocalRule, shift: MarkovShift) -> bool:
    """Check Phi(S) = S on 3-words: every admissible 3-word has an
    admissible preimage."""
    images = {rule.image_word(w) for w in shift.words(3 + 2 * rule.radius)}
    return set(shift.words(3)) <= images


def find_travelling_wave_backgrounds(rule: LocalRule, p: int, v: int,
                                     max_period: int) -> list[list[Word]]:
    """All periodic points w with period <= max_period and Phi^p(w) = sigma^(p*v)(w).

    Returns sigma-orbits, each listed from its lexicographically least
    rotation; orbits are keyed by primitive period.
    """
    if p < 1 or max_period < 1:
        raise ValueError("p and max_period must be >= 1")
    seen: set[Word] = set()
    orbits: list[list[Word]] = []
    for n in range(1, max_period + 1):
        for w in product(range(rule.alphabet.size), repeat=n):
            if w in seen:
                continue
            rots = [tuple(w[(i + k) % n] for i in range(n)) for k in range(n)]
            if len(set(rots)) != n:
                continue  # not primitive: counted at its primitive period
            cur = w
            for _ in range(p):
                cur = rule.periodic_image(cur)
            if cur == rots[p * v % n]:
                orbit = sorted(set(rots))
                seen.update(rots)
                orbits.append(orbit)
    return orbits


# ---------------------------------------------------------------------------
# Radius/window normalization: the block recoding of rule + background
# ---------------------------------------------------------------------------

def recode_rule(rule: LocalRule, coder: BlockCoder) -> LocalRule:
    """Lift a rule to the coder's block alphabet as a radius-1 rule.

    Block z holds the source window [s*z, s*z + P) for stride s, so
    a block neighbourhood (u, v, w) fuses to the source cells
    ``u[:s] + v[:s] + w`` and the new v is the image of their middle; that
    needs radius r <= s.  One block step is one application of the rule.
    On consistent neighbourhoods this is the conjugated dynamics;
    inconsistent ones (which no recoded configuration ever produces) map to
    the lexicographically least block symbol.  A one-cell coder keeps the
    source alphabet.
    """
    P, s, alpha = coder.P, coder.stride, coder.source
    if rule.radius > s:
        raise DefectcaError(f"rule radius {rule.radius} is not supported here: "
                            f"a stride-{s} block recoding needs radius <= {s}")
    base = rule if rule.radius else LocalRule(
        rule.alphabet, 1, lambda w, _r=rule: _r((w[1],)), name=rule.name)
    if P == 1:
        return base
    r, keep = base.radius, P - s
    target = block_alphabet(alpha, P)
    head, tail, whole = alpha.size ** s, alpha.size ** keep, alpha.size ** P

    def fn(nbhd: Word) -> int:
        # in base n, u % n**keep is u[s:] and v // n**s is v[:keep]
        u, v, w = nbhd
        if u % tail != v // head or v % tail != w // head:
            return 0
        # u[:s] + v + w[keep:], which is u[:s] + v[:s] + w on consistent blocks
        fused = unpack_word(alpha, ((u // tail) * whole + v) * head + w % head,
                            P + 2 * s)
        return pack_word(alpha, base.image_word(fused[s - r:s + P + r]))

    return LocalRule(target, 1, fn, name=f"{rule.name}^[{P}/{s}]")


@dataclass(frozen=True)
class RecodedSystem:
    """A rule/background pair normalized to radius 1 over a Markov shift.

    All coordinates inside the recoded system are block positions; block z
    covers source cells [z, z+P).  ``coder`` converts words back to source
    symbols.
    """

    rule: LocalRule
    shift: MarkovShift
    coder: BlockCoder


def normalize(rule: LocalRule, background) -> RecodedSystem:
    """Apply the standard reduction to a radius-1 rule over a Markov shift.

    An SFT of radius q > 2 is read in overlapping q-blocks (P = q); a Markov
    background (q <= 2) keeps its alphabet (P = 1).  Rules of radius > 1
    raise :class:`DefectcaError`.
    """
    sft = _as_sft(background)
    shift, coder = markov_presentation(sft, sft.q if sft.q > 2 else 1)
    return RecodedSystem(recode_rule(rule, coder), shift, coder)


def phi_orbit_components(rule: LocalRule, shift: MarkovShift) -> list[MarkovShift]:
    """Group the sigma-transitive components of a rule-invariant shift into
    rule-orbits; each group is returned as one sub-shift (their union)."""
    if rule.radius != 1:
        raise ValueError("radius must be 1 (recode first)")
    comps = transitive_components(shift)
    owner = {v: i for i, comp in enumerate(comps) for v in comp.usable}
    # the component map, symmetrised: its weak components are the orbits
    adj: list[set[int]] = [set() for _ in comps]
    for i, comp in enumerate(comps):
        # probe: image of any admissible 3-word's center
        v = min(comp.usable)
        img = rule((comp.predecessors(v)[0], v, comp.followers(v)[0]))
        if img not in owner:
            raise DefectcaError(f"rule image of component {i} leaves the shift")
        adj[i].add(owner[img])
        adj[owner[img]].add(i)
    return [shift.restrict(v for i in group for v in comps[i].usable)
            for group in strongly_connected(range(len(comps)), adj.__getitem__)]
