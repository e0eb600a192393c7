import itertools
import random

import pytest

from cremona import general_position as gp
from cremona.bertini_census import pgl3_elements
from cremona.field_tower import FieldElement, frobenius_orbit, galois_orbit, get_ctx
from cremona.general_position import (
    Collision,
    GaloisOrbit8,
    ShortOrbit,
    beta_twist,
    general_position_report,
    lambda_scan,
    orbit_from_point,
    orbit_from_seed,
    pair_products,
)
from cremona.nodal_cubic import NodalCubicNF, param_point
from cremona.plane_geometry import ProjPoint, apply, singular_cubic_through

CTX = get_ctx(2, 8)
NF = NodalCubicNF(2, 1)


def nodal_seeds_q2():
    """One representative per multiplicative Frobenius orbit outside F_16."""
    seeds = []
    seen = set()
    for e in range(1, 256):
        if CTX.in_subfield(e, 4) or e in seen:
            continue
        cur = e
        while True:
            seen.add(cur)
            cur = CTX.frobenius(cur)
            if cur == e:
                break
        seeds.append(e)
    return seeds


def test_orbit_from_point_rational_point_is_short():
    assert orbit_from_point(ProjPoint(CTX, (1, 1, 0))) is None
    assert orbit_from_point(ProjPoint(CTX, (0, 0, 1))) is None


def test_orbit_from_point_order_17_coordinate():
    x = next(e for e in range(2, 256) if CTX.order(e) == 17)
    orbit = orbit_from_point(ProjPoint(CTX, (x, 1, 0)))
    assert orbit is not None and len(orbit.points) == 8
    assert orbit.seed == min(orbit.points)


def test_orbits_in_a_degree_16_field():
    ctx = get_ctx(2, 16)
    g = next(e for e in range(2, ctx.size) if ctx.order(e) == ctx.size - 1)
    assert len(galois_orbit(ctx.element(g))) == 16
    assert orbit_from_point(ProjPoint(ctx, (1, g, 0))) is None
    x = next(e for e in range(2, ctx.size) if ctx.order(e) == 17)
    orbit = orbit_from_point(ProjPoint(ctx, (x, 1, 0)))
    assert orbit is not None and len(orbit.points) == 8


def test_orbit_invariants_enforced():
    with pytest.raises(Collision):
        GaloisOrbit8(CTX, [(1, 0, 0)] * 8)
    pts = [(1, y, 0) for y in range(8)]  # not Frobenius-closed
    with pytest.raises(ShortOrbit):
        GaloisOrbit8(CTX, pts)


def test_tier_short_circuit_on_synthetic_collinear_set():
    # synthetic 8-point set with a collinear triple: the line tier fires
    # and the later tiers are not reported
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    pts += [(CTX.mul(t, t), t, 1) for t in (1, 2, 3, 9, 77)]
    report = general_position_report(pts, CTX)
    assert not report.ok
    assert report.failed_lines and not report.failed_conics
    assert (0, 1, 2) in report.failed_lines
    data = report.to_json()
    assert data["ok"] is False and data["failed_lines"]


def test_nodal_orbits_q2_exhaustive_facts():
    """Exhaustive scan over all 30 nodal orbits at q = 2:

    * no collinear triple ever occurs (the Moebius-Kantor obstruction);
    * the singular-cubic tier never fires;
    * exactly 28 of 30 orbits are in general position, failures are
      conic-only;
    * on every failing orbit the four pair products under x -> x^(q^4)
      are equal, are cube roots of unity, and lie in F_q.
    """
    seeds = nodal_seeds_q2()
    assert len(seeds) == 30
    ok_count = 0
    for e in seeds:
        orbit = orbit_from_seed(NF, CTX.element(e))
        report = gp.test_general_position(orbit)
        assert not report.failed_lines
        # run the cubic systems directly even when conics already failed
        assert not any(
            singular_cubic_through(orbit.points, i, CTX) for i in range(8)
        )
        if report.ok:
            ok_count += 1
        else:
            assert report.failed_conics
            pis = pair_products(CTX.element(e))
            assert len(set(pis)) == 1
            pi = pis[0]
            assert CTX.pow(pi, 3) == 1
            assert CTX.in_subfield(pi, 1)
    assert ok_count == 28


def test_general_position_pgl_invariant_exhaustive():
    group = list(pgl3_elements(2))
    assert len(group) == 168
    seeds = nodal_seeds_q2()
    rnd = random.Random(31)
    sample = rnd.sample(seeds, 10)
    for e in sample:
        orbit = orbit_from_seed(NF, CTX.element(e))
        verdict = gp.test_general_position(orbit).ok
        for g in group:
            image = GaloisOrbit8(
                CTX, [apply(g, p).coords for p in orbit.proj_points()]
            )
            assert gp.test_general_position(image).ok == verdict


def test_orbit_from_seed_contract():
    x = next(e for e in range(2, 256) if CTX.order(e) == 17)
    orbit = orbit_from_seed(NF, CTX.element(x))
    assert len(orbit.points) == 8
    with pytest.raises(ShortOrbit):
        orbit_from_seed(NF, CTX.element(1))
    # any element of F_16 is short
    f16 = next(e for e in range(2, 256) if CTX.in_subfield(e, 4))
    with pytest.raises(ShortOrbit):
        orbit_from_seed(NF, CTX.element(f16))


def test_param_commutes_with_frobenius():
    rnd = random.Random(32)
    for _ in range(100):
        e = rnd.randrange(1, 256)
        a = CTX.element(e)
        lhs = param_point(NF, a.frobenius())
        rhs = param_point(NF, a).frobenius()
        assert lhs == rhs


def test_lambda_scan_q2():
    seeds = nodal_seeds_q2()
    for e in seeds:
        bad = lambda_scan(NF, CTX.element(e))
        ok = gp.test_general_position(orbit_from_seed(NF, CTX.element(e))).ok
        assert bad == ([] if ok else [1])


def test_beta_twist_identity_and_coherence():
    rnd = random.Random(33)
    betas = [e for e in range(1, 256) if CTX.in_subfield(e, 4)]
    for _ in range(100):
        e = rnd.randrange(1, 256)
        if CTX.in_subfield(e, 4):
            continue
        a = CTX.element(e)
        assert beta_twist(a, CTX.element(1)).e == e
        beta = CTX.element(rnd.choice(betas))
        b = beta_twist(a, beta)  # raises if coherence fails
        assert b.e == CTX.mul(beta.e, a.e)


def test_beta_twist_repairs_every_nonregular_orbit_q2():
    # Over F_2 the excluded twist set {x in F_16*: x^6 = 1, x^2 in F_2}
    # is just {1}; every other beta turns a failing nodal orbit into a
    # general-position one.
    bad_set = {
        e
        for e in range(1, 256)
        if CTX.in_subfield(e, 4)
        and CTX.pow(e, 6) == 1
        and CTX.in_subfield(CTX.pow(e, 2), 1)
    }
    assert bad_set == {1}
    betas = [e for e in range(1, 256) if CTX.in_subfield(e, 4) and e not in bad_set]
    assert len(betas) == 14
    failing = [
        e
        for e in nodal_seeds_q2()
        if not gp.test_general_position(orbit_from_seed(NF, CTX.element(e))).ok
    ]
    assert len(failing) == 2
    for e in failing:
        for beta in betas:
            twisted = beta_twist(CTX.element(e), CTX.element(beta))
            orbit = orbit_from_seed(NF, twisted)
            assert gp.test_general_position(orbit).ok


def test_short_orbit_on_collapsing_twist():
    # beta * a lands in F_16 only if a does; build the inverse situation
    x = next(e for e in range(2, 256) if not CTX.in_subfield(e, 4))
    beta_candidates = [e for e in range(2, 256) if CTX.in_subfield(e, 4)]
    for beta in beta_candidates:
        b = beta_twist(CTX.element(x), CTX.element(beta))
        assert not CTX.in_subfield(b.e, 4)


def test_orbit_serialization():
    orbit = orbit_from_seed(NF, CTX.element(2))
    data = orbit.to_json()
    assert len(data) == 8 and data == sorted(data)
    again = GaloisOrbit8(CTX, [tuple(p) for p in data])
    assert again == orbit


def test_pair_products_need_full_orbit():
    with pytest.raises(ShortOrbit):
        pair_products(CTX.element(1))


@pytest.mark.slow
def test_lambda_scan_q7_sample():
    # 20-seed spot check at q = 7 (the acceptance suite runs 100)
    ctx7 = get_ctx(7, 8)
    rnd = random.Random(34)
    done = 0
    while done < 20:
        e = rnd.randrange(1, ctx7.size)
        if ctx7.in_subfield(e, 4):
            continue
        nf = NodalCubicNF(7, rnd.randrange(1, 7))
        bad = lambda_scan(nf, FieldElement(ctx7, e))
        assert len(bad) <= 6
        for lam in bad:
            assert ctx7.pow(lam, 6) == 1
        done += 1


@pytest.mark.parametrize("a, witness, bad", [(264619, 4, [2, 3]), (80835, 1, [1, 4])])
def test_lambda_scan_q5_bad_values_follow_a_six_conjugate_product(a, witness, bad):
    # the six points of lam * a at the conjugates i in {0, 1, 2, 4, 5, 6}
    # lie on a conic iff lam^6 times the product of those conjugates is 1
    # (the produit lemma).  For a = 264619 the product is 4, not 1, so the
    # bad lam are the roots of lam^6 = 4 in F_5, and `verify lambda-scan`
    # counts both as exceptions to lambda^6 = 1
    ctx = get_ctx(5, 8)
    conj = [v for (v,) in frobenius_orbit(ctx, (a,))]
    product = 1
    for i in (0, 1, 2, 4, 5, 6):
        product = ctx.mul(product, conj[i])
    assert product == witness
    for c0 in range(1, 5):
        assert lambda_scan(NodalCubicNF(5, c0), FieldElement(ctx, a)) == bad
    assert bad == [lam for lam in range(1, 5) if ctx.mul(ctx.pow(lam, 6), product) == 1]
