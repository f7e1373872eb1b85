"""Oracles the tests check the library against.

Each of these is a construct of the paper or an inverse of a library
function that no CLI mode, demo or benchmark workload needs: the inverse
recoding, the shift map on configurations, membership in a shift's
language, an explicit-stack APDA run, push-forward cylinder weights, a
rule's table as a config spec, the identity rule, the G* background of
ECA#184, the paper's source-cell presentation of a block-space defect, and
the unpruned enumerations of an SFT's words that the block lift and the
invariance check once made, the block rule that images each block
neighbourhood as one unpacked word, and the block alphabet's labels built
word by word.  :func:`small_shifts` draws the random Markov shifts that
several test modules check invariants on.
"""

from itertools import product

from hypothesis import strategies as st

from defectca import zoo
from defectca.errors import EmptySubshiftError
from defectca.lattice import Configuration, PeriodicBackground
from defectca.rules import LocalRule
from defectca.shifts import (Alphabet, BlockCoder, binary_alphabet, block_alphabet,
                             build_markov_shift, markov_to_sft, pack_word,
                             periodic_orbit_sft, unpack_word)


def decode_config(coder, config):
    """Invert :func:`~defectca.lattice.encode_config` on consistent block
    configurations."""
    s = coder.stride

    def unblock_bg(bg):
        word = tuple(x for b in bg.word for x in coder.unpack(b)[:s])
        return PeriodicBackground(word, s * bg.phase)

    return Configuration(coder.source, unblock_bg(config.left),
                         coder.decode_word(config.core), unblock_bg(config.right),
                         s * config.origin)


def shifted(config, k):
    """The shift sigma^k: new.cell(z) = old.cell(z + k)."""
    return Configuration(config.alphabet, config.left.shifted(k), config.core,
                         config.right.shifted(k), config.origin - k)


def is_admissible(shift, word):
    """True iff every symbol is usable and every adjacent pair is an edge."""
    w = tuple(word)
    if any(s not in shift.usable for s in w):
        return False
    return all((w[j], w[j + 1]) in shift.edges for j in range(len(w) - 1))


def run_apda(apda, d, stack, steps):
    """Run against an explicit stack (top first).

    Returns the history of (head, top, velocity) triples; stops early if the
    stack runs dry.
    """
    st = list(stack)
    hist = []
    for _ in range(steps):
        if not st:
            break
        t = st[0]
        act = apda.stack_rule[(t, d)]
        hist.append((d, t, apda.velocity(t, d)))
        d = apda.upsilon[(t, d)]
        if act[0] == "push":
            st.insert(0, act[1])
        elif act[0] == "pop":
            st.pop(0)
    return hist


def cylinder(measure, word):
    """The measure of the cylinder of ``word``."""
    w = tuple(word)
    if not w:
        return 1.0
    if w[0] not in measure.initial:
        return 0.0
    p = measure.initial[w[0]]
    for a, b in zip(w, w[1:]):
        p *= measure.kernel.get((a, b), 0.0)
    return p


def pushforward_cylinders(rule, measure, max_len):
    """The image measure's cylinder weights up to ``max_len``.

    (Phi mu)[c] sums mu over the (len+2r)-word preimages of c.
    """
    out = {}
    r = rule.radius
    syms = sorted(measure.shift.usable)
    for n in range(1, max_len + 1):
        for w in product(syms, repeat=n + 2 * r):
            p = cylinder(measure, w)
            if p == 0.0:
                continue
            c = rule.image_word(w)
            out[c] = out.get(c, 0.0) + p
    return out


def dense_table(rule):
    """The rule's image of every neighbourhood, for small alphabets."""
    k = 2 * rule.radius + 1
    return {n: rule(n) for n in product(range(rule.alphabet.size), repeat=k)}


def save_rule(rule):
    """The table spec that :func:`~defectca.io.load_rule` reads back."""
    table = dense_table(rule)
    return {"alphabet": list(rule.alphabet.labels), "radius": rule.radius,
            "table": {rule.alphabet.word_to_text(k): rule.alphabet.labels[v]
                      for k, v in sorted(table.items())}}


def identity_rule(alphabet):
    """The trivial rule, under which every defect is at rest."""
    return LocalRule(alphabet, 1, lambda w: w[1], name="identity")


def gstar_shift():
    """G*, the alternating background of ECA#184."""
    return build_markov_shift(binary_alphabet(), [(0, 1), (1, 0)])


def marked_cell_presentation(config, shift, coder):
    """Present a block-space defect in source cells via centered windows.

    A source cell is marked defective when the block window centered on it
    (offset -P//2) is not a vertex of the background shift; the presentation
    is (last window fully left of the marked run, the marked cells, first
    window fully right).
    """
    P = coder.P
    bad = [p for p in range(config.origin - 1, config.end + 1)
           if config.cell(p) not in shift.usable]
    if not bad:
        raise ValueError("no marked cells: width-0 defect has empty presentation")
    m0 = bad[0] + P // 2
    m1 = bad[-1] + P // 2

    def src(j):
        return coder.first_symbol(config.cell(j))

    lword = tuple(src(j) for j in range(m0 - P, m0))
    dbits = tuple(src(j) for j in range(m0, m1 + 1))
    rword = tuple(src(j) for j in range(m1 + 1, m1 + 1 + P))
    return lword, dbits, rword


def is_locally_admissible(sft, word):
    """True iff every length-``q`` window of ``word`` is admissible."""
    w = tuple(word)
    return all(w[j:j + sft.q] in sft.admissible for j in range(len(w) - sft.q + 1))


def zoo_sfts():
    """The SFTs of the worked systems, by name: the backgrounds of ECA#184,
    #54 and #110, (001)^inf, and the radius-2 SFTs of G* and of the
    marked walker's and wall walker's Markov backgrounds."""
    return {"G184": zoo.eca184_background(), "B54": zoo.eca54_background(),
            "ether": zoo.eca110_ether(),
            "001": periodic_orbit_sft(binary_alphabet(), (0, 0, 1)),
            "G*": markov_to_sft(gstar_shift()),
            "walker": markov_to_sft(zoo.diffusive_background()),
            "wall": markov_to_sft(zoo.wall_right_shift())}


def lift_unpruned(sft, P, stride):
    """:func:`~defectca.shifts._lift` by extending every word shorter than
    q with no check, so that a q-periodic orbit builds 2^(q-1) words."""
    A, q, adm = sft.alphabet, sft.q, sft.admissible

    def extend(words, n):
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


def invariant_unpruned(rule, sft):
    """:func:`~defectca.rules.check_invariance` on an SFT, over every word
    of length q + 2r filtered by local admissibility."""
    words = [w for w in product(range(rule.alphabet.size), repeat=sft.q + 2 * rule.radius)
             if is_locally_admissible(sft, w)]
    return all(rule.image_word(w) in sft.admissible for w in words)


def recode_unchunked(rule, coder):
    """:func:`~defectca.rules.recode_rule` with each block neighbourhood
    unpacked to its P + 2s source cells, imaged whole and packed again."""
    P, s, alpha = coder.P, coder.stride, coder.source
    base = rule if rule.radius else LocalRule(
        rule.alphabet, 1, lambda w: rule((w[1],)), name=rule.name)
    if P == 1:
        return base
    r, keep = base.radius, P - s
    head, tail, whole = alpha.size ** s, alpha.size ** keep, alpha.size ** P

    def fn(nbhd):
        u, v, w = nbhd
        if u % tail != v // head or v % tail != w // head:
            return 0
        fused = unpack_word(alpha, ((u // tail) * whole + v) * head + w % head,
                            P + 2 * s)
        return pack_word(alpha, base.image_word(fused[s - r:s + P + r]))

    return LocalRule(block_alphabet(alpha, P), 1, fn)


def block_label(alphabet, word):
    """The label of one block, built from its word alone: the word's labels
    concatenated, parenthesised and comma-separated when the word is longer
    than one symbol and some label is longer than one character."""
    if len(word) == 1 or all(len(l) == 1 for l in alphabet.labels):
        return "".join(alphabet.labels[s] for s in word)
    return "(" + ",".join(alphabet.labels[s] for s in word) + ")"


def small_shifts():
    """Random pruned digraphs on up to 5 symbols."""
    def build(n, pairs):
        alpha = Alphabet(tuple("abcde"[:n]))
        try:
            return build_markov_shift(alpha, [(a % n, b % n) for a, b in pairs])
        except EmptySubshiftError:
            return None
    return st.builds(
        build,
        st.integers(min_value=1, max_value=5),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=12),
    ).filter(lambda s: s is not None)
