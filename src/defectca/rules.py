"""Local rules: construction, invariance, resolving checks, radius
normalization and the rule-orbits of a shift's components.

A rule is stored as a total map from radius-``r`` neighborhoods to symbols,
either as a dense table (small alphabets) or as a callable with memoization
(block alphabets can be far too large to tabulate).  Each side check is
written for the right: a left-hand property is the right-hand one of the
mirrored line, whose rule is :func:`mirror` and whose shift is
:func:`~defectca.shifts.reverse`.  A Markov shift S is rule-invariant when
the image of every admissible (2+2r)-word is an edge of S, which is
Phi(S) ⊆ S for the sliding block code Phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DefectcaError
from .shifts import (
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

    ``fn`` must be total on neighborhoods; lookups are memoized.
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


def mirror(rule: LocalRule) -> LocalRule:
    """The rule of the mirrored line: phi~(w) = phi(reversed w)."""
    return LocalRule(rule.alphabet, rule.radius, lambda w: rule(w[::-1]),
                     name=f"mirror({rule.name})")


# ---------------------------------------------------------------------------
# Invariance / resolving
# ---------------------------------------------------------------------------

def _escaping_word(rule: LocalRule, shift: MarkovShift) -> Optional[Word]:
    """The first admissible (2+2r)-word of ``shift`` whose image is not an
    edge of ``shift``, or None when the rule preserves it."""
    return next((w for w in shift.words(2 + 2 * rule.radius)
                 if rule.image_word(w) not in shift.edges), None)


def check_invariance(rule: LocalRule, background) -> bool:
    """True iff the image of every admissible (q+2r)-word is admissible."""
    if isinstance(background, MarkovShift):
        return _escaping_word(rule, background) is None
    return all(rule.image_word(w) in background.admissible
               for w in background.words(background.q + 2 * rule.radius))


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


# ---------------------------------------------------------------------------
# Radius/window normalization: the block recoding of rule + background
# ---------------------------------------------------------------------------

# the most neighbourhoods of source cells one chunk table holds: 1,024
# ten-cell binary words
_CHUNK_ENTRIES = 1 << 10


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

    The middle P + 2r cells stay one base-n integer, cut into overlapping
    (k + 2r)-digit chunks.  Each chunk's k-digit image comes from a table
    filled from the source rule on the chunk's first use, with k as large
    as a table of at most 1,024 chunks allows.  The table lives on the
    recoded rule, so block neighbourhoods share the images of their chunks:
    the #110 ether's junction classification asks the source rule for 739
    ten-cell chunks instead of 2,647 sixteen-cell words.
    """
    P, s, alpha = coder.P, coder.stride, coder.source
    if rule.radius > s:
        raise DefectcaError(f"rule radius {rule.radius} is not supported here: "
                            f"a stride-{s} block recoding needs radius <= {s}")
    base = rule if rule.radius else LocalRule(
        rule.alphabet, 1, lambda w, _r=rule: _r((w[1],)), name=rule.name)
    if P == 1:
        return base
    n, r, keep = alpha.size, base.radius, P - s
    target = block_alphabet(alpha, P)
    head, tail, whole = n ** s, n ** keep, n ** P
    cut, middle = n ** (s - r), n ** (P + 2 * r)
    k = 1  # image cells per chunk
    while k < P and n ** (k + 1 + 2 * r) <= _CHUNK_ENTRIES:
        k += 1
    span, width = k + 2 * r, n ** (k + 2 * r)
    # (place, size) of each chunk: the chunk at i images the cells
    # [i, i + span) of the middle to the cells [i, i + k) of the new block,
    # both at place n**(P - i - k); when k does not divide P, a last chunk
    # at P - k gives only its last P % k cells
    chunks = [(n ** (P - i - k), n ** k) for i in range(0, P - k + 1, k)]
    if P % k:
        chunks.append((1, n ** (P % k)))
    table: dict[int, int] = {}

    def image(chunk: int) -> int:
        out = table.get(chunk)
        if out is None:
            out = table[chunk] = pack_word(alpha, base.image_word(
                unpack_word(alpha, chunk, span)))
        return out

    def fn(nbhd: Word) -> int:
        # in base n, u % n**keep is u[s:] and v // n**s is v[:keep]
        u, v, w = nbhd
        if u % tail != v // head or v % tail != w // head:
            return 0
        # the middle of u[:s] + v + w[keep:], which is u[:s] + v[:s] + w on
        # consistent blocks
        x = (((u // tail) * whole + v) * head + w % head) // cut % middle
        return sum(image(x // d % width) % m * d for d, m in chunks)

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
    sft = markov_to_sft(background) if isinstance(background, MarkovShift) \
        else background
    shift, coder = markov_presentation(sft, sft.q if sft.q > 2 else 1)
    return RecodedSystem(recode_rule(rule, coder), shift, coder)


def phi_orbit_components(rule: LocalRule, shift: MarkovShift) -> list[MarkovShift]:
    """Group the sigma-transitive components of a rule-invariant shift into
    rule-orbits; each group is returned as one sub-shift (their union).

    Raises :class:`DefectcaError` naming an admissible 4-word whose image
    is not an edge when the rule does not preserve the shift."""
    if rule.radius != 1:
        raise ValueError("radius must be 1 (recode first)")
    word = _escaping_word(rule, shift)
    if word is not None:
        text = shift.alphabet.word_to_text
        raise DefectcaError(f"the rule does not preserve the shift: it maps the "
                            f"admissible word {text(word)} to "
                            f"{text(rule.image_word(word))}, which is not an edge")
    comps = transitive_components(shift)
    owner = {v: i for i, comp in enumerate(comps) for v in comp.usable}
    # the component map, symmetrised: its weak components are the orbits
    adj: list[set[int]] = [set() for _ in comps]
    for i, comp in enumerate(comps):
        # the image of any admissible 3-word's center
        v = min(comp.usable)
        img = rule((comp.predecessors(v)[0], v, comp.followers(v)[0]))
        if img not in owner:
            raise DefectcaError(f"rule image of component {i} leaves the shift")
        adj[i].add(owner[img])
        adj[owner[img]].add(i)
    return [shift.restrict(v for i in group for v in comps[i].usable)
            for group in strongly_connected(range(len(comps)), adj.__getitem__)]
