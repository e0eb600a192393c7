import itertools
import math
import os

import pytest

from cremona import bertini_census
from cremona.bertini_census import run_census
from cremona.field_tower import FieldElement, frobenius_orbit, get_ctx
from cremona.general_position import ShortOrbit, general_position_report
from cremona.plane_geometry import ProjTransform, _det3_mod

# Golden regression values, frozen after the first verified exhaustive
# run at q = 2 (modulus encoding 283).
Q2_TOTAL_ORBITS = 8190
Q2_GENERAL_POSITION = 6384
Q2_CLASS_COUNT = 38
Q2_NODAL_CLASSES = 14


@pytest.fixture(scope="session", autouse=True)
def _cache_dir_env(tmp_path_factory):
    # keep field-table caches out of the user's home during tests, but
    # share one directory per session so the 7^8 tables build only once;
    # session-scoped so that session fixtures such as census_q2 see it too
    base = os.environ.get("PYTEST_CREMONA_CACHE") or str(
        tmp_path_factory.mktemp("cremona-cache")
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CREMONA_CACHE_DIR", base)
        yield base


@pytest.fixture(scope="session")
def census_q2():
    """The exact q = 2 census, shared across the whole session."""
    return run_census(2, mode="exact", threads=1)


def pgl3_elements(q: int):
    """Every element of PGL_3(F_q) exactly once, in normalized form
    (first nonzero entry in row-major order equal to 1), deterministic
    lexicographic order."""
    for flat in itertools.product(range(q), repeat=9):
        lead = next((x for x in flat if x), None)
        if lead != 1:
            continue
        rows = (flat[0:3], flat[3:6], flat[6:9])
        if _det3_mod(rows, q) == 0:
            continue
        yield ProjTransform(q, rows)


def pair_products(a: FieldElement) -> list[int]:
    """The four products a_i * tau(a_i) where tau: x -> x^(q^4) is the
    unique order-2 element of the Galois group; the pairing used in the
    conic-failure analysis of nodal orbits."""
    ctx = a.ctx
    vals = [v for (v,) in frobenius_orbit(ctx, (a.e,))]
    if len(vals) != 8:
        raise ShortOrbit("pairing needs a full orbit")
    return [ctx.mul(vals[i], vals[i + 4]) for i in range(4)]


def horner(f, x, ctx):
    """f(x) by Horner's rule, for a dense little-endian list f of
    encodings over ctx: the oracle of the sparse `poly_at` evaluation."""
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def eval_monomial(ctx, coords, expo):
    """The monomial x^expo at coords by one `pow` per coordinate: the
    oracle of the Veronese recurrence `plane_geometry.veronese_row`."""
    v = 1
    for c, e in zip(coords, expo):
        if e:
            if c == 0:
                return 0
            v = ctx.mul(v, ctx.pow(c, e))
    return v


def q2_frobenius_orbits():
    """Every degree-8 orbit of P^2(F_{2^8}), each in Frobenius order from
    its least point."""
    ctx = get_ctx(2, 8)
    points = [(x, y, 1) for x in range(256) for y in range(256)]
    points += [(x, 1, 0) for x in range(256)]
    orbits = []
    for coords in points:
        orbit = frobenius_orbit(ctx, coords)
        if len(orbit) == 8 and min(orbit) == coords:
            orbits.append(orbit)
    return orbits


def q7_seed_bad_at_every_lambda(ctx) -> int:
    """A parameter a of degree 8 over F_7 whose nodal orbit fails general
    position for every lambda in F_7^*.

    The six points of lambda a at the complement of the conjugates
    {i, i + 4} lie on a conic iff lambda^6 times their product is 1 (the
    produit lemma).  At q = 7, lambda^6 = 1, and that product is a
    conjugate of a^(S - 1 - 7^4), S = (7^8 - 1) / 6, so every lambda
    fails once a^(S - 1 - 7^4) = 1: a lies in the subgroup of order
    gcd(S - 1 - 7^4, 7^8 - 1) = 7206 = 6 * 1201.  As 1201 divides
    7^4 + 1 but not 7^4 - 1, the subgroup is not inside F_{7^4}.  Returns
    the first power of g^((7^8 - 1) / 7206) outside F_{7^4}, for the
    least generator g of the context's unit group.
    """
    units = ctx.size - 1
    assert math.gcd(units // 6 - 1 - 7**4, units) == 7206
    g = next(e for e in range(2, ctx.size) if ctx.order(e) == units)
    h = a = ctx.pow(g, units // 7206)
    while ctx.in_subfield(a, 4):
        a = ctx.mul(a, h)
    return a


def q13_seed_bad_at_squares(ctx) -> int:
    """A parameter a of degree 8 over F_13 whose nodal orbit fails general
    position at every square lambda of F_13^*.

    Every a = b^(13^4 - 1) has a^(13^4 + 1) = 1, so a a^(13^4) = 1: the
    conjugates i and i + 4 multiply to 1, and a lies in F_{13^4} only
    when a^2 = 1.  The six conjugates off such a pair then multiply to the
    norm of a, which is 1, so by the produit lemma the six points of
    lambda a there lie on a conic iff lambda^6 = 1, that is iff lambda is
    a square.  Returns a for the first b = x + c, x the root of the
    modulus (encoding 13), for which a has the full order 13^4 + 1.
    """
    q = ctx.p
    assert q == 13
    return next(
        a for a in (ctx.pow(ctx.add(q, c), q**4 - 1) for c in range(q))
        if ctx.order(a) == q**4 + 1
    )


# the check of `run_census` that each fault of `broken_search` trips
BROKEN_SEARCH = {
    "drop": "orbit identity",
    "size": "orbit identity",
    "swap": "stabilizer order",
    "point": "share the key",
}


def broken_search(how):
    """The q = 2 subspace search with one fault: a GP class dropped; a
    non-GP class of stabilizer order 2 given the size of a class of order
    1; the sizes of a GP class (order 1) and of that non-GP class swapped,
    which keeps the orbit identity; or the point of one GP class given to
    another class of the same size."""
    ctx = get_ctx(2, 8)
    comps = bertini_census._subspace_components(2)

    def where(ok, stab, skip=-1):
        # a component of degree 8, GP verdict ok, stabilizer order stab
        for i, (point, size) in enumerate(comps):
            orbit = frobenius_orbit(ctx, point)
            if (i != skip and len(orbit) == 8 and 56 // size == stab
                    and general_position_report(orbit, ctx).ok == ok):
                return i
        raise LookupError("no such component")

    i, j = where(True, 1), where(False, 2)
    (p, size), (p2, size2) = comps[i], comps[j]
    if how == "drop":
        del comps[i]
    elif how == "size":
        comps[j] = (p2, size)
    elif how == "swap":
        comps[i], comps[j] = (p, size2), (p2, size)
    else:
        k = where(True, 1, skip=i)
        comps[k] = (p, comps[k][1])
    return comps
