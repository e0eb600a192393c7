"""Word model of the free product G_e * (free product over B of Z/2Z).

Words are sequences of letters from two kinds of factors: a set B of
order-2 generators ("Bertini letters"), and one factor G_e modeled as a
free group on an opaque token alphabet with formal inverses.  The model
never decides equality inside the true G_e beyond free cancellation, so
the normal form is the free-product normal form, the signature morphism
(delete the e-letters, reduce in the product of Z/2's) is exact, and
the parity vector of Bertini letters gives the abelianization image.

The Bass-Serre tree model: vertices of one color are group elements
(normal forms), vertices of the other color are cosets w.G_e and
w.<b>; each element joins its |B| + 1 cosets.  Balls are kept finite
by enumerating e-syllables one token deep (the tree is locally infinite
at the G_e cosets; the truncation is equivariant for left translation).

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

Letter = tuple


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
    """The unique free-product normal form: merge adjacent e-letters
    with free cancellation, cancel b.b, drop empty letters; idempotent
    and independent of the reduction order."""
    letters = list(w.letters)
    changed = True
    while changed:
        changed = False
        out = []
        for letter in letters:
            kind, payload = letter
            if kind == "e":
                payload = _free_reduce(payload)
                if not payload:
                    changed = True
                    continue
                if out and out[-1][0] == "e":
                    out[-1] = ("e", _free_reduce(out[-1][1] + payload))
                    if not out[-1][1]:
                        out.pop()
                    changed = True
                    continue
                if payload != letter[1]:
                    changed = True
                out.append(("e", payload))
            else:
                if out and out[-1] == ("b", payload):
                    out.pop()
                    changed = True
                    continue
                out.append(letter)
        letters = out
    return TaggedWord(letters)


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

def _coset_e_rep(w: TaggedWord) -> TaggedWord:
    """Canonical representative of w.G_e: strip a trailing e-letter."""
    if w.letters and w.letters[-1][0] == "e":
        return TaggedWord(w.letters[:-1])
    return w


def _coset_b_rep(w: TaggedWord, b: str) -> TaggedWord:
    """Canonical representative of w.<b>: strip a trailing b."""
    if w.letters and w.letters[-1] == ("b", b):
        return TaggedWord(w.letters[:-1])
    return w


def bass_serre_ball(table: FactorTable, radius: int):
    """The ball of the model tree around the identity element.

    Vertices: ("elt", word) at even distance, ("e", word) and
    ("b", label, word) coset centers at odd distance; every element
    vertex has degree |B| + 1.  Edges join each element to its cosets.
    The e-cosets are enumerated one token deep (single e-generators and
    inverses), which keeps the ball finite and translation-equivariant.
    Returns (vertices, edges, dist) with deterministic ordering.
    """
    if radius > 6:
        raise RadiusTooLarge("radius must be at most 6")
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
                targets = [("e", _coset_e_rep(w))]
                for b in table.bertini_ids:
                    targets.append(("b", b, _coset_b_rep(w, b)))
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
    vertices = sorted(dist, key=_node_key)
    return vertices, sorted(edges, key=lambda e: (_node_key(e[0]), _node_key(e[1]))), dist


def _node_key(node):
    if node[0] == "elt":
        return (0, node[1].as_string(), "")
    if node[0] == "e":
        return (1, node[1].as_string(), "")
    return (2, node[2].as_string(), node[1])


def left_translate(node, g: TaggedWord):
    """The left action of a group element on tree vertices."""
    if node[0] == "elt":
        return ("elt", concat(g, node[1]))
    if node[0] == "e":
        return ("e", _coset_e_rep(concat(g, node[1])))
    return ("b", node[1], _coset_b_rep(concat(g, node[2]), node[1]))


def ball_to_dot(vertices, edges) -> str:
    colors = {"elt": "white", "e": "lightblue", "b": "salmon"}
    lines = ["graph bass_serre {"]
    for v in vertices:
        label = v[1].as_string() if v[0] != "b" else f"{v[2].as_string()}.<{v[1]}>"
        kind = v[0]
        name = _node_name(v)
        lines.append(
            f'  "{name}" [label="{label or "1"}", style=filled, '
            f'fillcolor={colors[kind]}, kind={kind}];'
        )
    for a, b in edges:
        lines.append(f'  "{_node_name(a)}" -- "{_node_name(b)}";')
    lines.append("}")
    return "\n".join(lines)


def _node_name(node):
    if node[0] == "elt":
        return f"elt:{node[1].as_string()}"
    if node[0] == "e":
        return f"cosetE:{node[1].as_string()}"
    return f"cosetB[{node[1]}]:{node[2].as_string()}"
