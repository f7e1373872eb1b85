"""Alphabets, words, Markov subshifts, SFTs and their recodings.

Words are plain tuples of symbol indices; the alphabet that gives them
meaning travels with the container (shift, configuration, coder) rather than
with each word.  A Markov subshift is a digraph on the alphabet: its points
are the bi-infinite directed paths.  An SFT of radius ``q`` is given by its
set of admissible ``q``-words and can always be recoded to a Markov subshift
over an alphabet of overlapping windows (:func:`markov_presentation`,
:func:`higher_block`).

Every block presentation is one :class:`BlockCoder`: block z holds the
source window ``[stride*z, stride*z + P)``, with stride 1 for overlapping
blocks (:func:`higher_block`) and stride P for non-overlapping powers
(:func:`higher_power`).  At P = 1 the block alphabet is the source
alphabet.  :func:`reverse` reads a Markov shift on the mirrored line, where
followers become predecessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, EmptySubshiftError, NoChoicePointError

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """A finite ordered alphabet; symbols are the indices ``0..size-1``."""

    labels: tuple[str, ...]
    # stored, not a property: every packed word and rule lookup reads it
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ValueError("alphabet must have at least one symbol")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("alphabet labels must be distinct")
        object.__setattr__(self, "size", len(self.labels))

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"{label!r} is not a label of {list(self.labels)}")
        return self.labels.index(label)

    def word_to_text(self, word: Sequence[int]) -> str:
        """Render a word; concatenates when all labels are single characters."""
        if all(len(l) == 1 for l in self.labels):
            return "".join(self.labels[s] for s in word)
        return ",".join(self.labels[s] for s in word)

    def word_from_text(self, text: str) -> Word:
        if all(len(l) == 1 for l in self.labels):
            return tuple(self.index(ch) for ch in text)
        return tuple(self.index(part) for part in text.split(","))


def binary_alphabet() -> Alphabet:
    return Alphabet(("0", "1"))


def check_word(alphabet: Alphabet, word: Sequence[int]) -> Word:
    w = tuple(word)
    if any(not (0 <= s < alphabet.size) for s in w):
        raise ValueError(f"word {w!r} has symbols outside alphabet of size {alphabet.size}")
    return w


# ---------------------------------------------------------------------------
# Markov subshifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkovShift:
    """Bi-infinite paths in a digraph whose vertices are alphabet symbols.

    ``edges`` holds only transitions between *usable* vertices: vertices that
    survive iterated removal of anything lacking an in- or out-edge.  Symbols
    of the alphabet outside :attr:`usable` occur in no point of the shift
    (but may still occur in defective configurations).
    """

    alphabet: Alphabet
    edges: frozenset[tuple[int, int]]

    @cached_property
    def usable(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.edges) | frozenset(b for _, b in self.edges)

    @cached_property
    def _followers(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {s: [] for s in self.usable}
        for a, b in sorted(self.edges):
            out[a].append(b)
        return {s: tuple(v) for s, v in out.items()}

    @cached_property
    def _predecessors(self) -> dict[int, tuple[int, ...]]:
        pre: dict[int, list[int]] = {s: [] for s in self.usable}
        for a, b in sorted(self.edges):
            pre[b].append(a)
        return {s: tuple(v) for s, v in pre.items()}

    def followers(self, s: int) -> tuple[int, ...]:
        return self._followers.get(s, ())

    def predecessors(self, s: int) -> tuple[int, ...]:
        return self._predecessors.get(s, ())

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self.edges

    def is_admissible(self, word: Sequence[int]) -> bool:
        """True iff every symbol is usable and every adjacent pair is an edge."""
        w = tuple(word)
        if any(s not in self.usable for s in w):
            return False
        return all((w[j], w[j + 1]) in self.edges for j in range(len(w) - 1))

    def words(self, n: int) -> list[Word]:
        """All admissible words of length ``n`` (lexicographic order)."""
        if n == 0:
            return [()]
        out: list[Word] = [(s,) for s in sorted(self.usable)]
        for _ in range(n - 1):
            out = [w + (b,) for w in out for b in self.followers(w[-1])]
        return out

    def restrict(self, vertices: Iterable[int]) -> "MarkovShift":
        vs = set(vertices)
        kept = frozenset((a, b) for a, b in self.edges if a in vs and b in vs)
        if not kept:
            raise EmptySubshiftError("restriction has no edges")
        return MarkovShift(self.alphabet, kept)


def build_markov_shift(alphabet: Alphabet, edge_list: Iterable[tuple[int, int]]) -> MarkovShift:
    """Build a Markov shift, iteratively pruning unusable vertices.

    Raises :class:`EmptySubshiftError` if nothing survives pruning.
    """
    edges = set()
    for a, b in edge_list:
        if not (0 <= a < alphabet.size and 0 <= b < alphabet.size):
            raise ValueError(f"edge ({a},{b}) outside alphabet range")
        edges.add((a, b))
    while True:
        has_out = {a for a, _ in edges}
        has_in = {b for _, b in edges}
        keep = has_out & has_in
        pruned = {(a, b) for a, b in edges if a in keep and b in keep}
        if pruned == edges:
            break
        edges = pruned
    if not edges:
        raise EmptySubshiftError("empty subshift")
    return MarkovShift(alphabet, frozenset(edges))


def full_shift(alphabet: Alphabet, symbols: Optional[Iterable[int]] = None) -> MarkovShift:
    """The full shift on a subset of symbols (all transitions allowed)."""
    syms = list(symbols) if symbols is not None else list(range(alphabet.size))
    return build_markov_shift(alphabet, [(a, b) for a in syms for b in syms])


def reverse(shift: MarkovShift) -> MarkovShift:
    """The shift of the mirrored line: every edge turned around."""
    return MarkovShift(shift.alphabet, frozenset((b, a) for a, b in shift.edges))


def union_shift(L: MarkovShift, R: MarkovShift) -> MarkovShift:
    """The shift whose edges are those of ``L`` and of ``R``: the transitions
    a configuration of two backgrounds may use away from its defect."""
    return build_markov_shift(L.alphabet, sorted(L.edges | R.edges))


# ---------------------------------------------------------------------------
# SFTs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SFT:
    """A subshift of finite type given by its admissible ``q``-words."""

    alphabet: Alphabet
    q: int
    admissible: frozenset[Word]

    def is_locally_admissible(self, word: Sequence[int]) -> bool:
        """True iff every length-``q`` window of ``word`` is admissible."""
        w = tuple(word)
        return all(w[j:j + self.q] in self.admissible for j in range(len(w) - self.q + 1))


def build_sft(alphabet: Alphabet, q: int, words: Iterable[Sequence[int]]) -> SFT:
    """Build an SFT, pruning q-words that extend in no bi-infinite point."""
    if q < 1:
        raise ValueError("SFT radius must be >= 1")
    adm = {check_word(alphabet, w) for w in words}
    if any(len(w) != q for w in adm):
        raise ValueError("all admissible words must have length q")
    if q == 1:
        if not adm:
            raise EmptySubshiftError("empty subshift")
        return SFT(alphabet, q, frozenset(adm))
    while True:
        prefixes = {w[:-1] for w in adm}
        suffixes = {w[1:] for w in adm}
        kept = {w for w in adm if w[1:] in prefixes and w[:-1] in suffixes}
        if kept == adm:
            break
        adm = kept
    if not adm:
        raise EmptySubshiftError("empty subshift")
    return SFT(alphabet, q, frozenset(adm))


def periodic_orbit_sft(alphabet: Alphabet, word: Sequence[int]) -> SFT:
    """The orbit closure of one periodic point, as an SFT of radius ``len(word)``.

    Valid when the cyclic rotations are distinct and no two rotations share a
    length-``(n-1)`` prefix, which makes the n-windows determine the point.
    """
    w = check_word(alphabet, word)
    n = len(w)
    rots = [tuple(w[(i + k) % n] for i in range(n)) for k in range(n)]
    if len(set(rots)) != n:
        raise ValueError("periodic word has a smaller primitive period")
    if len({r[:-1] for r in rots}) != n:
        raise ValueError("rotations are not determined by their (n-1)-prefixes")
    return build_sft(alphabet, n, rots)


# ---------------------------------------------------------------------------
# Block alphabets and coders
# ---------------------------------------------------------------------------

def _block_label(alphabet: Alphabet, word: Word) -> str:
    if len(word) == 1 or all(len(l) == 1 for l in alphabet.labels):
        return "".join(alphabet.labels[s] for s in word)
    return "(" + ",".join(alphabet.labels[s] for s in word) + ")"


@lru_cache(maxsize=16)
def block_alphabet(alphabet: Alphabet, P: int) -> Alphabet:
    """The alphabet of all ``P``-words over ``alphabet``, in base-`size` order.

    Cached by value: a P=14 binary block alphabet has 16,384 labels.
    """
    labels = [_block_label(alphabet, w) for w in product(range(alphabet.size), repeat=P)]
    return Alphabet(tuple(labels))


def pack_word(alphabet: Alphabet, word: Sequence[int]) -> int:
    """Index of a word in the corresponding block alphabet."""
    idx, n = 0, alphabet.size
    for s in word:
        idx = idx * n + s
    return idx


def unpack_word(alphabet: Alphabet, index: int, P: int) -> Word:
    out, n = [], alphabet.size
    for _ in range(P):
        out.append(index % n)
        index //= n
    return tuple(reversed(out))


@dataclass(frozen=True)
class BlockCoder:
    """Recoding between an alphabet and its length-``P`` words.

    Block z holds the source window ``[stride*z, stride*z + P)``, so one
    target shift step equals ``stride`` source steps and consecutive blocks
    overlap in ``P - stride`` cells.  ``stride=1`` is the overlapping
    higher block (de Bruijn) presentation, ``stride=P`` the non-overlapping
    higher power presentation (Lind & Marcus, *An Introduction to Symbolic
    Dynamics and Coding*, sections 1.4 and 2.3).
    Each block owns its first ``stride`` cells; decoding inverts encoding on
    consistent sequences.
    """

    source: Alphabet
    target: Alphabet
    P: int
    stride: int = 1

    def unpack(self, symbol: int) -> Word:
        return unpack_word(self.source, symbol, self.P)

    def first_symbol(self, symbol: int) -> int:
        """The first source symbol of a block: its leading base-n digit."""
        return symbol // self.source.size ** (self.P - 1)

    def encode_word(self, word: Sequence[int]) -> Word:
        """The blocks of a word of length ``P + k*stride``, each rolled from
        the last as ``(b * n**stride + pack(next stride cells)) % n**P``."""
        w, P, s = tuple(word), self.P, self.stride
        if len(w) < P or (len(w) - P) % s:
            raise ValueError(f"word length {len(w)} is not {P} + k*{s}")
        A, n = self.source, self.source.size
        ns, nP = n ** s, n ** P
        b = pack_word(A, w[:P])
        out = [b]
        for j in range(P, len(w), s):
            b = (b * ns + pack_word(A, w[j:j + s])) % nP
            out.append(b)
        return tuple(out)

    def decode_word(self, blocks: Sequence[int]) -> Word:
        bs = [self.unpack(b) for b in blocks]
        if not bs:
            return ()
        s = self.stride
        for u, v in zip(bs, bs[1:]):
            if u[s:] != v[:self.P - s]:
                raise ValueError("inconsistent overlapping blocks")
        return tuple(x for b in bs[:-1] for x in b[:s]) + bs[-1]


def _lift(sft: SFT, P: int, stride: int) -> tuple[MarkovShift, BlockCoder]:
    """The Markov shift on the locally admissible ``P``-words of an SFT read
    at ``stride``: u -> v iff v is the last P symbols of a locally
    admissible extension of u by ``stride`` symbols."""
    A, q, adm = sft.alphabet, sft.q, sft.admissible

    def extend(words: list[Word], n: int) -> list[Word]:
        for _ in range(n):
            longer = []
            for w in words:
                for a in range(A.size):
                    x = w + (a,)
                    if len(x) < q or x[-q:] in adm:
                        longer.append(x)
            words = longer
        return words

    edges = [(pack_word(A, u), pack_word(A, x[stride:]))
             for u in extend([()], P) for x in extend([u], stride)]
    target = block_alphabet(A, P)
    return build_markov_shift(target, edges), BlockCoder(A, target, P, stride)


def markov_presentation(sft: SFT, P: Optional[int] = None) -> tuple[MarkovShift, BlockCoder]:
    """Recode an SFT as a Markov shift on admissible ``P``-windows.

    Vertices are the locally admissible P-words; there is an edge u -> v iff
    u and v overlap in P-1 symbols and the fused (P+1)-word is locally
    admissible.  ``P`` defaults to ``q-1``, the smallest window that captures
    the SFT's constraints; the shift lives over the full block alphabet so
    that defective configurations can use out-of-shift windows.
    """
    if P is None:
        P = max(sft.q - 1, 1)
    if P < sft.q - 1:
        raise ValueError(f"window {P} too small for SFT of radius {sft.q}")
    return _lift(sft, P, 1)


def markov_to_sft(shift: MarkovShift) -> SFT:
    return SFT(shift.alphabet, 2, frozenset((a, b) for a, b in shift.edges))


def higher_block(shift: MarkovShift, P: int) -> tuple[MarkovShift, BlockCoder]:
    """The overlapping P-block presentation of a Markov shift (stride 1)."""
    if P < 1:
        raise ValueError("block length must be >= 1")
    return _lift(markov_to_sft(shift), P, 1)


def higher_power(shift: MarkovShift, W: int) -> tuple[MarkovShift, BlockCoder]:
    """The non-overlapping W-power presentation of a Markov shift (stride W).

    One target shift step equals W source steps; block z holds the source
    cells [W*z, W*z + W).
    """
    if W < 1:
        raise ValueError("power must be >= 1")
    return _lift(markov_to_sft(shift), W, W)


# ---------------------------------------------------------------------------
# Structure: components, cycles, entropy, regularity
# ---------------------------------------------------------------------------

def strongly_connected(nodes: Iterable, succ: Callable) -> list[list]:
    """Tarjan's strongly connected components of the digraph ``succ``.

    ``succ(v)`` lists the successors of node ``v``; they must be among
    ``nodes``.  Each component lists its nodes in ``nodes`` order, and the
    components come in the order of their first node.  Tarjan, *Depth-first
    search and linear graph algorithms* (SIAM J. Comput. 1, 1972), with an
    explicit stack.
    """
    rank = {v: i for i, v in enumerate(nodes)}
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    sccs: list[list] = []
    counter = 0

    for root in rank:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on.add(w)
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp, key=rank.__getitem__))
    return sorted(sccs, key=lambda comp: rank[comp[0]])


def _cyclic_sccs(shift: MarkovShift) -> list[list[int]]:
    """SCCs that contain at least one cycle."""
    out = []
    for comp in strongly_connected(sorted(shift.usable), shift.followers):
        if len(comp) > 1 or shift.has_edge(comp[0], comp[0]):
            out.append(comp)
    return out


def transitive_components(shift: MarkovShift) -> list[MarkovShift]:
    """The strongly connected pieces of the digraph that carry a cycle."""
    return [shift.restrict(comp) for comp in _cyclic_sccs(shift)]


def _scc_is_simple_cycle(shift: MarkovShift, comp: list[int]) -> bool:
    cs = set(comp)
    return all(sum(1 for f in shift.followers(v) if f in cs) == 1 for v in comp)


def _branching_sccs(shift: MarkovShift) -> list[list[int]]:
    """The cyclic SCCs that are not a single simple cycle: the components
    whose vertices lie on two distinct cycles, and so carry entropy."""
    return [comp for comp in _cyclic_sccs(shift)
            if not _scc_is_simple_cycle(shift, comp)]


def choice_point(shift: MarkovShift) -> Optional[int]:
    """The least vertex lying on two distinct cycles, or None.

    A vertex sits on two distinct cycles exactly when its strongly connected
    component is not a single simple cycle; existence is equivalent to
    positive entropy.
    """
    return min((min(comp) for comp in _branching_sccs(shift)), default=None)


def adjacency_matrix(shift: MarkovShift, vertices: Sequence[int]) -> np.ndarray:
    """The dense 0/1 matrix of ``shift``'s edges among ``vertices``, rows
    and columns in the order given."""
    idx = {v: i for i, v in enumerate(vertices)}
    A = np.zeros((len(idx), len(idx)))
    for v in vertices:
        for w in shift.followers(v):
            if w in idx:
                A[idx[v], idx[w]] = 1.0
    return A


def perron(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and eigenvector (max entry 1) of an irreducible nonnegative matrix.

    One dense eigen-solve.  The Perron root is the eigenvalue of largest
    real part: the other eigenvalues of largest modulus are the root times
    nontrivial roots of unity.  Raises :class:`ConvergenceError` when the
    eigen-solve does not converge.
    """
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigen-solve of a {M.shape[0]}-vertex matrix "
                               f"did not converge: {exc}") from exc
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    return float(vals[k].real), v / float(v.max())


def entropy(shift: MarkovShift) -> float:
    """Topological entropy in bits per symbol.

    Exactly 0.0 when no vertex lies on two distinct cycles (combinatorial
    check, no numerics); otherwise log2 of the adjacency spectral radius,
    the largest :func:`perron` root over the strongly connected components.
    """
    comps = _branching_sccs(shift)
    if not comps:
        return 0.0
    rad = 0.0
    for comp in comps:
        rad = max(rad, perron(adjacency_matrix(shift, comp))[0])
    return math.log2(rad)


def map_cycles(nodes: Iterable, succ: Callable) -> tuple[list[tuple], dict]:
    """The cycles of a partial self-map, and the cycle each node runs into.

    Follows ``succ`` from each of ``nodes`` in turn; ``succ`` returns None
    where the map is undefined.  Each cycle is rotated to start at its least
    node, and cycles are listed in the order the scan meets them.  The dict
    maps every visited node whose forward orbit enters a cycle to that
    cycle's index.
    """
    cycles: list[tuple] = []
    cycle_of: dict = {}
    seen: set = set()
    for start in nodes:
        path: list = []
        pos: dict = {}
        cur = start
        while cur is not None and cur not in seen and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = succ(cur)
        seen.update(path)
        if cur is None:
            continue
        if cur in pos:
            cyc = path[pos[cur]:]
            k = min(range(len(cyc)), key=cyc.__getitem__)
            cycle_of[cur] = len(cycles)
            cycles.append(tuple(cyc[k:] + cyc[:k]))
        if cur in cycle_of:
            for q in path:
                cycle_of[q] = cycle_of[cur]
    return cycles, cycle_of


def simple_cycles_at(shift: MarkovShift, v: int) -> list[Word]:
    """Simple cycles through ``v`` (no repeated intermediate vertex), sorted."""
    out: list[Word] = []

    def walk(path: list[int], seen: set[int]):
        for w in shift.followers(path[-1]):
            if w == v:
                out.append(tuple(path))
            elif w not in seen:
                seen.add(w)
                path.append(w)
                walk(path, seen)
                path.pop()
                seen.discard(w)

    walk([v], {v})
    return sorted(out)


def equal_length_cycles(shift: MarkovShift) -> tuple[int, Word, Word]:
    """Two distinct equal-length cycles starting at one vertex.

    Takes the least vertex that lies on two simple cycles of a component
    that is not a single cycle, its two lexicographically least simple
    cycles of lengths Q0 and Q1, sets P = lcm(Q0, Q1) and chains P/Qi
    copies of each.  Every such component has that vertex (one with two
    followers in it), but the :func:`choice_point` may lie on one simple
    cycle only (0 in the shift 0->1, 1->0, 1->1).  Requires positive
    entropy.
    """
    for c in sorted(v for comp in _branching_sccs(shift) for v in comp):
        cycles = simple_cycles_at(shift, c)
        if len(cycles) > 1:
            b0, b1 = cycles[0], cycles[1]
            P = math.lcm(len(b0), len(b1))
            return P, b0 * (P // len(b0)), b1 * (P // len(b1))
    raise NoChoicePointError("no choice point: shift has zero entropy")


def period_of(shift: MarkovShift) -> Optional[int]:
    """Least P with every point sigma^P-fixed, for one transitive component.

    None when the component has positive entropy; an error when the shift is
    not a single transitive component.
    """
    comps = _cyclic_sccs(shift)
    if len(comps) != 1 or set(comps[0]) != set(shift.usable):
        raise ValueError("shift is not a single transitive component")
    if not _scc_is_simple_cycle(shift, comps[0]):
        return None
    return len(comps[0])


@dataclass(frozen=True)
class RegularityReport:
    left_regular: bool
    P_S: Optional[int]
    right_regular: bool
    F_S: Optional[int]


def regularity(shift: MarkovShift) -> RegularityReport:
    """Constant predecessor/follower cardinalities, when they exist."""
    pred_sizes = {len(shift.predecessors(s)) for s in shift.usable}
    foll_sizes = {len(shift.followers(s)) for s in shift.usable}
    left = len(pred_sizes) == 1
    right = len(foll_sizes) == 1
    return RegularityReport(
        left_regular=left,
        P_S=pred_sizes.pop() if left else None,
        right_regular=right,
        F_S=foll_sizes.pop() if right else None,
    )
