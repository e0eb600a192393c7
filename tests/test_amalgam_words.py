import random
from collections import Counter

import pytest

from cremona.amalgam_words import (
    FactorTable,
    RadiusTooLarge,
    TaggedWord,
    abelianize,
    ball_to_dot,
    bass_serre_ball,
    concat,
    inverse,
    left_translate,
    normal_form,
    parse_word,
    signature,
)

T3 = FactorTable(("b1", "b2", "b3"), ("j", "g"))


def rand_word(rnd, k, table=T3):
    letters = []
    for _ in range(k):
        if rnd.random() < 0.5:
            letters.append(("b", rnd.choice(table.bertini_ids)))
        else:
            letters.append(
                ("e", ((rnd.choice(table.e_alphabet), rnd.choice([1, -1])),))
            )
    return TaggedWord(letters)


def reduce_random_order(w, rnd):
    """Independent reducer applying one random local rewrite at a time."""
    letters = list(w.letters)
    while True:
        sites = []
        for i, (kind, payload) in enumerate(letters):
            if kind == "e":
                for j in range(len(payload) - 1):
                    if payload[j][0] == payload[j + 1][0] and payload[j][1] == -payload[j + 1][1]:
                        sites.append(("cancel", i, j))
                if not payload:
                    sites.append(("drop", i, None))
            if i + 1 < len(letters):
                k2, p2 = letters[i + 1]
                if kind == "e" and k2 == "e":
                    sites.append(("merge", i, None))
                if kind == "b" and k2 == "b" and payload == p2:
                    sites.append(("bb", i, None))
        if not sites:
            break
        op, i, j = rnd.choice(sites)
        if op == "cancel":
            kind, payload = letters[i]
            letters[i] = ("e", payload[:j] + payload[j + 2:])
            if not letters[i][1]:
                letters.pop(i)
        elif op == "drop":
            letters.pop(i)
        elif op == "merge":
            letters[i] = ("e", letters[i][1] + letters[i + 1][1])
            letters.pop(i + 1)
        else:
            letters.pop(i)
            letters.pop(i)
    return TaggedWord(letters)


def test_involution_cancels():
    assert parse_word("b1 b1").letters == ()


def test_free_cancellation_within_e_block():
    w = parse_word("e:g e:h e:h^-1 b1")
    assert w.as_string() == "e:g b1"


def test_alternating_words_have_length_2n():
    for n in (1, 2, 10, 100):
        w = parse_word(" ".join(["b1 e:j"] * n))
        assert len(w.letters) == 2 * n
        assert w.letters[0][0] == "b" and w.letters[-1][0] == "e"


def rand_raw_word(rnd, k, table=T3):
    """A word of k letters whose e-letters carry 0 to 3 tokens, neither
    free-reduced nor merged, the empty payload included."""
    letters = []
    for _ in range(k):
        if rnd.random() < 0.5:
            letters.append(("b", rnd.choice(table.bertini_ids)))
        else:
            letters.append(("e", tuple(
                (rnd.choice(table.e_alphabet), rnd.choice([1, -1]))
                for _ in range(rnd.randrange(4))
            )))
    return TaggedWord(letters)


def test_normal_form_idempotent_and_confluent():
    rnd = random.Random(61)
    for _ in range(2000):
        w = rand_raw_word(rnd, rnd.randrange(0, 41))
        nf = normal_form(w)
        assert normal_form(nf) == nf
        assert nf.is_normal()
        assert reduce_random_order(w, rnd) == nf


def test_inverse():
    rnd = random.Random(62)
    for _ in range(200):
        w = normal_form(rand_word(rnd, 8))
        assert concat(w, inverse(w)).letters == ()
        assert concat(inverse(w), w).letters == ()


def test_signature_is_homomorphism():
    rnd = random.Random(63)
    for _ in range(1000):
        u = rand_word(rnd, rnd.randrange(0, 10))
        v = rand_word(rnd, rnd.randrange(0, 10))
        lhs = signature(concat(u, v))
        rhs = normal_form(TaggedWord(signature(u).letters + signature(v).letters))
        assert lhs == rhs


def test_signature_examples_and_kernel():
    assert signature(parse_word("e:g e:h e:k")).letters == ()
    assert signature(parse_word("b1 e:g b2 e:g b1")).as_string() == "b1 b2 b1"
    assert signature(parse_word("b1")).as_string() == "b1"
    rnd = random.Random(64)
    for _ in range(300):
        w = rand_word(rnd, 8)
        killed = signature(w).letters == ()
        bword = normal_form(TaggedWord([l for l in w.letters if l[0] == "b"]))
        assert killed == (bword.letters == ())


def test_abelianize():
    assert abelianize(TaggedWord(), T3) == (0, 0, 0)
    assert abelianize(parse_word("b1 b2 b1"), T3) == (0, 1, 0)
    rnd = random.Random(65)
    for _ in range(1000):
        w = rand_word(rnd, 10)
        assert abelianize(w, T3) == abelianize(signature(w), T3)


def test_parse_rejects_unknown_labels():
    with pytest.raises(ValueError):
        parse_word("b9", FactorTable(("b1",), ("j",)))


def test_factor_table_validation():
    with pytest.raises(ValueError):
        FactorTable(("b1", "b1"), ("j",))
    with pytest.raises(ValueError):
        FactorTable(("b1",), ("b1",))


def test_radius_one_star():
    verts, edges, dist = bass_serre_ball(FactorTable(("b1", "b2"), ("j",)), 1)
    assert len(verts) == 4  # root plus |B| + 1 = 3 centers
    assert len(edges) == 3
    kinds = Counter(v[0] for v in verts)
    assert kinds == {"elt": 1, "e": 1, "b": 2}


def test_ball_is_tree_radius_4():
    verts, edges, dist = bass_serre_ball(T3, 4)
    # connected and acyclic: |E| = |V| - 1
    assert len(edges) == len(verts) - 1
    deg = Counter()
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    for v in verts:
        if v[0] == "elt" and dist[v] < 4:
            assert deg[v] == len(T3.bertini_ids) + 1


def test_ball_translation_equivariance():
    verts, edges, dist = bass_serre_ball(T3, 4)
    v6, e6, d6 = bass_serre_ball(T3, 6)
    vset, eset = set(v6), {frozenset(e) for e in e6}
    g = parse_word("b1")
    for a, b in edges:
        ga, gb = left_translate(a, g), left_translate(b, g)
        assert ga in vset and gb in vset
        assert frozenset((ga, gb)) in eset
    for v in verts:
        assert d6[left_translate(v, g)] <= dist[v] + 2


def test_edge_pair_stabilizer_trivial():
    verts, _, _ = bass_serre_ball(T3, 4)
    base = ("elt", TaggedWord())
    bnode = ("elt", parse_word("b1"))
    fixers = [
        v[1]
        for v in verts
        if v[0] == "elt"
        and left_translate(base, v[1]) == base
        and left_translate(bnode, v[1]) == bnode
    ]
    assert fixers == [TaggedWord()]


def _three_branch_ball(table, radius):
    """(vertices, edges, dist) of bass_serre_ball as first written, with
    one frontier step per kind of vertex."""
    def coset_e_rep(w):
        if w.letters and w.letters[-1][0] == "e":
            return TaggedWord(w.letters[:-1])
        return w

    def coset_b_rep(w, b):
        if w.letters and w.letters[-1] == ("b", b):
            return TaggedWord(w.letters[:-1])
        return w

    def key(node):
        if node[0] == "elt":
            return (0, node[1].as_string(), "")
        if node[0] == "e":
            return (1, node[1].as_string(), "")
        return (2, node[2].as_string(), node[1])

    root = TaggedWord()
    dist = {("elt", root): 0}
    edges = set()
    frontier = [("elt", root)]
    d = 0
    while d < radius and frontier:
        nxt = []
        for node in frontier:
            if node[0] == "elt":
                w = node[1]
                targets = [("e", coset_e_rep(w))]
                for b in table.bertini_ids:
                    targets.append(("b", b, coset_b_rep(w, b)))
                for t in targets:
                    edges.add((node, t))
                    if t not in dist:
                        dist[t] = d + 1
                        nxt.append(t)
            elif node[0] == "e":
                rep = node[1]
                members = [rep]
                for token in table.e_alphabet:
                    for exp in (1, -1):
                        members.append(
                            concat(rep, TaggedWord((("e", ((token, exp),)),)))
                        )
                for m in members:
                    t = ("elt", m)
                    edges.add((t, node))
                    if t not in dist:
                        dist[t] = d + 1
                        nxt.append(t)
            else:
                _, b, rep = node
                for m in (rep, concat(rep, TaggedWord((("b", b),)))):
                    t = ("elt", m)
                    edges.add((t, node))
                    if t not in dist:
                        dist[t] = d + 1
                        nxt.append(t)
        frontier = nxt
        d += 1
    vertices = sorted(dist, key=key)
    return vertices, sorted(edges, key=lambda e: (key(e[0]), key(e[1]))), dist


@pytest.mark.parametrize("table", [T3, FactorTable(("b1",), ("j", "g", "h"))])
def test_ball_matches_three_branch_oracle(table):
    for radius in range(7):
        verts, edges, dist = bass_serre_ball(table, radius)
        assert (verts, edges, dist) == _three_branch_ball(table, radius)
        assert max(dist.values()) == radius


def test_radius_too_large():
    with pytest.raises(RadiusTooLarge):
        bass_serre_ball(T3, 7)


def test_ball_dot_export():
    verts, edges, _ = bass_serre_ball(FactorTable(("b1", "b2"), ("j",)), 2)
    dot = ball_to_dot(verts, edges)
    assert dot.startswith("graph bass_serre {")
    assert "fillcolor" in dot
    assert dot.count("--") == len(edges)
