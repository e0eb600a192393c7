"""Word model of the free product G_e * (free product over B of Z/2Z).

Words are sequences of letters from two kinds of factors: a set B of
order-2 generators ("Bertini letters"), and one factor G_e modeled as a
free group on an opaque token alphabet with formal inverses.  The model
never decides equality inside the true G_e beyond free cancellation, so
the normal form is the free-product normal form, the signature morphism
(delete the e-letters, reduce in the product of Z/2's) is exact, and
the parity vector of Bertini letters gives the abelianization image.
`normal_form` computes it in one left-to-right pass over a stack, and
`concat`, `inverse` and `signature` all end with it.

The Bass-Serre tree model: vertices of one color are group elements
(normal forms), vertices of the other color are cosets w.G_e and
w.<b>; each element joins its |B| + 1 cosets.  Balls are kept finite
by enumerating e-syllables one token deep (the tree is locally infinite
at the G_e cosets; the truncation is equivariant for left translation).
One neighbour rule, `_neighbours`, gives the tree's edges to the
breadth-first search of `bass_serre_ball`.

Word grammar: space-separated tokens "b<i>", "e:<name>", "e:<name>^-1".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FactorTable",
    "RadiusTooLarge",
    "TaggedWord",
    "abelianize",
    "ball_to_dot",
    "bass_serre_ball",
    "concat",
    "normal_form",
    "parse_word",
    "signature",
]


class RadiusTooLarge(ValueError):
    """Ball radius above the supported bound."""


@dataclass(frozen=True)
class FactorTable:
    """The finite label set B of order-2 generators and the token
    alphabet generating the G_e model."""

    bertini_ids: tuple[str, ...] = ("b1", "b2")
    e_alphabet: tuple[str, ...] = ("j",)

    def __post_init__(self):
        if len(set(self.bertini_ids)) != len(self.bertini_ids):
            raise ValueError("duplicate Bertini labels")
        if len(set(self.e_alphabet)) != len(self.e_alphabet):
            raise ValueError("duplicate e-tokens")
        if set(self.bertini_ids) & set(self.e_alphabet):
            raise ValueError("Bertini labels and e-tokens must be disjoint")


# a letter is ("b", label) or ("e", ((token, exp), ...)) with exp = +-1
# and the token string free-reduced


class TaggedWord:
    """A word over the factors; `letters` is () for the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = tuple(letters)

    def __eq__(self, other):
        return isinstance(other, TaggedWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        return f"TaggedWord({self.as_string()!r})"

    def is_normal(self) -> bool:
        return normal_form(self) == self

    def as_string(self) -> str:
        parts = []
        for kind, payload in self.letters:
            if kind == "b":
                parts.append(payload)
            else:
                for token, exp in payload:
                    parts.append(f"e:{token}" + ("^-1" if exp < 0 else ""))
        return " ".join(parts)


def parse_word(text: str, table: FactorTable | None = None) -> TaggedWord:
    """Parse the space-separated grammar b<i> | e:<name> | e:<name>^-1."""
    letters = []
    for tok in text.split():
        if tok.startswith("e:"):
            body = tok[2:]
            exp = 1
            if body.endswith("^-1"):
                body, exp = body[:-3], -1
            if not body:
                raise ValueError(f"empty e-token in {tok!r}")
            letters.append(("e", ((body, exp),)))
        else:
            if table is not None and tok not in table.bertini_ids:
                raise ValueError(f"unknown Bertini label {tok!r}")
            letters.append(("b", tok))
    return normal_form(TaggedWord(letters))


def _free_reduce(seq):
    out = []
    for token, exp in seq:
        if out and out[-1][0] == token and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((token, exp))
    return tuple(out)


def normal_form(w: TaggedWord) -> TaggedWord:
    """The unique free-product normal form, in one left-to-right pass
    over a stack of normal letters: an e-letter merges into an e-letter
    on top, is free-reduced and is dropped when empty; a b-letter
    cancels the same b on top.  Idempotent and independent of the
    reduction order."""
    out = []
    for kind, payload in w.letters:
        if kind == "e":
            if out and out[-1][0] == "e":
                payload = out.pop()[1] + payload
            payload = _free_reduce(payload)
            if payload:
                out.append(("e", payload))
        elif out and out[-1] == ("b", payload):
            out.pop()
        else:
            out.append((kind, payload))
    return TaggedWord(out)


def concat(u: TaggedWord, v: TaggedWord) -> TaggedWord:
    return normal_form(TaggedWord(u.letters + v.letters))


def inverse(w: TaggedWord) -> TaggedWord:
    letters = []
    for kind, payload in reversed(w.letters):
        if kind == "b":
            letters.append((kind, payload))
        else:
            letters.append(
                ("e", tuple((t, -e) for t, e in reversed(payload)))
            )
    return normal_form(TaggedWord(letters))


def signature(w: TaggedWord) -> TaggedWord:
    """Image under the morphism killing G_e: delete e-letters and reduce
    in the free product of Z/2's.  A homomorphism by construction."""
    letters = [l for l in w.letters if l[0] == "b"]
    return normal_form(TaggedWord(letters))


def abelianize(w: TaggedWord, table: FactorTable) -> tuple[int, ...]:
    """Parity vector over B; factors through the signature."""
    counts = {b: 0 for b in table.bertini_ids}
    for kind, payload in w.letters:
        if kind == "b":
            if payload not in counts:
                raise ValueError(f"unknown Bertini label {payload!r}")
            counts[payload] ^= 1
    return tuple(counts[b] for b in table.bertini_ids)


# ----------------------------------------------------------------------
# Bass-Serre tree balls

# A vertex is ("elt", word), ("e", word) for the coset word.G_e, or
# ("b", label, word) for word.<label>; a coset is named by its canonical
# representative, which has no trailing letter of the coset's factor.

def _view(node):
    """(kind, word, label) of a vertex; the label is "" unless the
    vertex is a b-coset."""
    return node[0], node[-1], node[1] if node[0] == "b" else ""


def _coset(kind: str, w: TaggedWord, label: str = ""):
    """The e-coset (kind "e") or the label's b-coset holding w: its
    representative is w with a trailing letter of the factor stripped."""
    last = w.letters[-1:]
    if last and (last[0][0] == "e" if kind == "e" else last[0] == ("b", label)):
        w = TaggedWord(w.letters[:-1])
    return ("e", w) if kind == "e" else ("b", label, w)


def _neighbours(table: FactorTable, node):
    """An element's e-coset and b-cosets, or a coset's members: the
    representative times 1 and every letter of its factor, one token
    deep for the e-coset."""
    kind, w, label = _view(node)
    if kind == "elt":
        return [_coset("e", w)] + [_coset("b", w, b) for b in table.bertini_ids]
    if kind == "e":
        letters = [("e", ((t, x),)) for t in table.e_alphabet for x in (1, -1)]
    else:
        letters = [("b", label)]
    return [("elt", w)] + [("elt", concat(w, TaggedWord((l,)))) for l in letters]


def bass_serre_ball(table: FactorTable, radius: int):
    """The ball of the model tree around the identity element.

    Vertices: ("elt", word) at even distance, ("e", word) and
    ("b", label, word) coset centers at odd distance; every element
    vertex has degree |B| + 1.  Edges join each element to its cosets,
    as (element, coset) pairs.  The e-cosets are enumerated one token
    deep (single e-generators and inverses), which keeps the ball finite
    and translation-equivariant.  Returns (vertices, edges, dist) with
    deterministic ordering.
    """
    if radius > 6:
        raise RadiusTooLarge("radius must be at most 6")
    frontier = [("elt", TaggedWord())]
    dist = {frontier[0]: 0}
    edges = set()
    for d in range(1, radius + 1):
        nxt = []
        for node in frontier:
            for t in _neighbours(table, node):
                edges.add((node, t) if node[0] == "elt" else (t, node))
                if t not in dist:
                    dist[t] = d
                    nxt.append(t)
        frontier = nxt
    edges = sorted(edges, key=lambda e: (_node_key(e[0]), _node_key(e[1])))
    return sorted(dist, key=_node_key), edges, dist


# per kind: its rank in the vertex order, its name prefix, its DOT color
_KINDS = {
    "elt": (0, "elt", "white"),
    "e": (1, "cosetE", "lightblue"),
    "b": (2, "cosetB", "salmon"),
}


def _node_key(node):
    kind, w, label = _view(node)
    return _KINDS[kind][0], w.as_string(), label


def _node_name(node):
    kind, w, label = _view(node)
    return _KINDS[kind][1] + (f"[{label}]" if label else "") + ":" + w.as_string()


def left_translate(node, g: TaggedWord):
    """The left action of a group element on tree vertices."""
    kind, w, label = _view(node)
    w = concat(g, w)
    return ("elt", w) if kind == "elt" else _coset(kind, w, label)


def ball_to_dot(vertices, edges) -> str:
    lines = ["graph bass_serre {"]
    for v in vertices:
        kind, w, label = _view(v)
        text = w.as_string() + (f".<{label}>" if label else "")
        lines.append(
            f'  "{_node_name(v)}" [label="{text or "1"}", style=filled, '
            f'fillcolor={_KINDS[kind][2]}, kind={kind}];'
        )
    for a, b in edges:
        lines.append(f'  "{_node_name(a)}" -- "{_node_name(b)}";')
    lines.append("}")
    return "\n".join(lines)
