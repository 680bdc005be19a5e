import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

import oracles
from volpot import (DomainError, NearBoundaryError, boundary_rule,
                    cosine_star, disk, ellipse, laplace_fundamental,
                    make_ball, make_star2d, singular_volume_rule,
                    volume_rule)
from volpot import geometry, potentials, verify
from volpot.geometry import (_drain, _flux_rays, _gl01, _graded_boundary_rule,
                             _leggauss, _nearest_point,
                             exterior_chord_rule, near_exterior_star_rule)


def near_disk_flux_rule(dom, x, N):
    """The flux rays about x on a disk (``geometry._flux_rays``), drained:
    the rule of every disk point near the boundary, on either side."""
    x = np.asarray(x, dtype=float)
    graded = _graded_boundary_rule(dom, N, _nearest_point(dom, x))
    return _drain(_flux_rays(x, N, graded)[0])


def test_make_ball_validation():
    with pytest.raises(DomainError):
        make_ball(2, [0, 0], -1.0)
    with pytest.raises(DomainError):
        make_ball(4, [0, 0, 0, 0], 1.0)


def test_star_positive_rho_required():
    with pytest.raises(DomainError):
        make_star2d(np.cos, lambda t: -np.sin(t))  # changes sign


def test_disk_boundary_length_and_normal():
    d = disk()
    bq = boundary_rule(d, 64)
    assert np.sum(bq.weights) == pytest.approx(2.0 * np.pi, abs=1e-12)
    # normal at (1, 0)
    n = d.boundary_normal(0.0)
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)


def test_ball3_volume_and_surface():
    b = make_ball(3, [0.0, 0.0, 0.0], 1.0)
    vq = volume_rule(b, 24)
    assert np.sum(vq.weights) == pytest.approx(4.0 * np.pi / 3.0, abs=1e-8)
    bq = boundary_rule(b, 24)
    assert np.sum(bq.weights) == pytest.approx(4.0 * np.pi, abs=1e-10)


def test_star_trivial_matches_ball():
    s = make_star2d(lambda t: np.ones_like(t), lambda t: np.zeros_like(t))
    d = disk()
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    assert np.allclose(s.boundary_point(theta), d.boundary_point(theta),
                       atol=1e-12)
    assert np.allclose(s.boundary_normal(theta), d.boundary_normal(theta),
                       atol=1e-12)
    vq_s, vq_d = volume_rule(s, 32), volume_rule(d, 32)
    assert np.sum(vq_s.weights) == pytest.approx(np.sum(vq_d.weights),
                                                 abs=1e-12)
    bq_s, bq_d = boundary_rule(s, 32), boundary_rule(d, 32)
    assert np.sum(bq_s.weights) == pytest.approx(np.sum(bq_d.weights),
                                                 abs=1e-12)


def test_ellipse_area():
    e = ellipse(2.0, 1.0)
    vq = volume_rule(e, 48)
    assert np.sum(vq.weights) == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_perturbed_circle_area_oracle():
    rho = lambda t: 1.0 + 0.2 * np.cos(3.0 * t)
    s = cosine_star([1.0, 0.0, 0.0, 0.2])
    vq = volume_rule(s, 48)
    assert np.sum(vq.weights) == pytest.approx(
        oracles.trapezoid_area_oracle(rho), abs=1e-10)


def test_volume_rule_polynomial_exactness():
    d = disk()
    vq = volume_rule(d, 32)
    assert vq.integrate(np.ones(len(vq.weights))) == pytest.approx(
        np.pi, abs=1e-12)
    assert vq.integrate(vq.nodes[:, 0] ** 2) == pytest.approx(
        np.pi / 4.0, abs=1e-10)
    b = make_ball(3, [0, 0, 0], 1.0)
    vq = volume_rule(b, 24)
    r2 = np.sum(vq.nodes ** 2, axis=1)
    assert vq.integrate(r2) == pytest.approx(4.0 * np.pi / 5.0, abs=1e-8)


def test_singular_rule_inverse_distance_at_center():
    d = disk()
    vq = singular_volume_rule(d, np.zeros(2), 64)
    r = np.linalg.norm(vq.nodes, axis=1)
    assert vq.integrate(1.0 / r) == pytest.approx(2.0 * np.pi, abs=1e-10)


def test_singular_rule_inverse_distance_off_center():
    d = disk()
    x = np.array([0.5, 0.0])
    vq = singular_volume_rule(d, x, 64)
    r = np.linalg.norm(vq.nodes - x[None, :], axis=1)
    assert vq.integrate(1.0 / r) == pytest.approx(
        oracles.disk_inverse_distance_integral(x), abs=1e-6)


def test_singular_rule_smooth_consistency():
    d = disk()
    x = np.array([0.3, -0.2])
    f = lambda pts: np.exp(pts[:, 0]) * np.cos(pts[:, 1])
    vq_s = singular_volume_rule(d, x, 48)
    vq_r = volume_rule(d, 48)
    assert vq_s.integrate(f(vq_s.nodes)) == pytest.approx(
        vq_r.integrate(f(vq_r.nodes)), abs=1e-10)


def test_singular_rule_star_domain():
    s = cosine_star([1.0, 0.0, 0.0, 0.2])
    x = np.array([0.1, 0.2])
    vq = singular_volume_rule(s, x, 48)
    f = lambda pts: np.ones(len(pts))
    assert vq.integrate(f(vq.nodes)) == pytest.approx(
        oracles.trapezoid_area_oracle(lambda t: 1.0 + 0.2 * np.cos(3 * t)),
        abs=1e-9)


def test_singular_rule_covers_nonconvex_lobes():
    # from a point near the boundary of a wavy domain, rays re-enter the
    # neighboring lobes; the rule must integrate over every inside-interval
    s = cosine_star([1.0, 0.0, 0.0, 0.15])
    xb = s.boundary_point(0.98)
    x = xb - 1e-3 * s.boundary_normal(0.98)
    vq = singular_volume_rule(s, x, 48)
    area = oracles.trapezoid_area_oracle(lambda t: 1.0 + 0.15 * np.cos(3 * t))
    # the flux rays' signed weights add the re-entered intervals and take
    # away the gaps between them: the area to rounding
    assert np.sum(vq.weights) == pytest.approx(area, abs=1e-12)
    # the wavy boundary really is re-entered: the radial gap changes sign
    # more than once along some ray from x
    t = np.linspace(0.0, 2.2 * s.bounding_radius, 2001)
    gap = s.radial_gap(x + t[None, :, None] * _fan(256)[:, None, :])
    crossings = np.count_nonzero(np.diff(np.sign(gap), axis=1), axis=1)
    assert np.max(crossings) > 1


def test_singular_rule_rejects_non_interior():
    d = disk()
    with pytest.raises(NearBoundaryError):
        singular_volume_rule(d, np.array([1.0, 0.0]), 16)
    with pytest.raises(NearBoundaryError):
        singular_volume_rule(d, np.array([2.0, 0.0]), 16)


def test_exterior_chord_rule_smooth_area():
    # exterior_chord_rule drains the flux rays of a 3D ball and serves
    # balls only; outside a disk the flux rays take the same point and
    # bound
    d = disk()
    for dom in (d, cosine_star([1, 0, 0, 0.2])):
        with pytest.raises(DomainError, match="3D balls"):
            exterior_chord_rule(dom, np.array([1.001, 0.0]), 48)
    vq = near_disk_flux_rule(d, np.array([1.001, 0.0]), 48)
    assert np.sum(vq.weights) == pytest.approx(np.pi, rel=1e-9)
    b = make_ball(3, [0, 0, 0], 1.0)
    vq = exterior_chord_rule(b, np.array([1.01, 0.0, 0.0]), 32)
    assert np.sum(vq.weights) == pytest.approx(4 * np.pi / 3, rel=1e-7)


@pytest.mark.parametrize("build, dom, inside, on", [
    (near_exterior_star_rule, cosine_star([1, 0, 0, 0.2]),
     np.array([0.2, 0.1]), np.array([1.2, 0.0])),
    (exterior_chord_rule, make_ball(3, [0, 0, 0], 1.0),
     np.array([0.2, 0.1, 0.0]), np.array([0.6, 0.0, 0.8]))],
    ids=["star", "ball3d"])
def test_near_exterior_rules_reject_points_that_are_not_outside(
        build, dom, inside, on):
    # an interior point raises DomainError, a point within the boundary
    # band NearBoundaryError (a DomainError too), as singular_volume_rule
    # rejects non-interior points
    assert dom.classify(inside) == 1 and dom.classify(on) == 0
    with pytest.raises(DomainError, match="exterior point") as err:
        build(dom, inside, 16)
    assert not isinstance(err.value, NearBoundaryError)
    with pytest.raises(NearBoundaryError, match="off the boundary"):
        build(dom, on, 16)


def test_boundary_normals_properties():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2]),
                make_ball(3, [0.1, 0.0, -0.2], 0.8)):
        bq = boundary_rule(dom, 32)
        lengths = np.linalg.norm(bq.normals, axis=1)
        assert np.max(np.abs(lengths - 1.0)) <= 1e-12
        # outward: positive dot with the radial direction from the center
        center = dom.center if dom.kind == "ball" else np.zeros(dom.dim)
        radial = bq.nodes - center[None, :]
        assert np.all(np.einsum("ij,ij->i", bq.normals, radial) > 0)
        # integral of the normal over a closed boundary vanishes
        assert np.max(np.abs(bq.normals.T @ bq.weights)) <= 1e-10


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.5, -0.25, 1.0)])
def test_boundary_parametrization_rejects_a_3d_ball(center):
    # a sphere has no angle parametrization: all three methods raise the
    # package's DomainError, not a TypeError from the missing rho
    ball = make_ball(3, center, 1.0)
    for method in (ball.boundary_point, ball.boundary_jacobian,
                   ball.boundary_normal):
        for theta in (0.3, np.linspace(0.0, 1.0, 5)):
            with pytest.raises(DomainError, match="2D domains only"):
                method(theta)


@pytest.mark.parametrize("dom", [disk(0.7, (0.3, -0.2)), ellipse(2.0, 1.0),
                                 cosine_star([1, 0, 0, 0.2])],
                         ids=["shifted-disk", "ellipse", "star"])
def test_boundary_methods_keep_written_out_bits(dom):
    # boundary_point, boundary_jacobian, boundary_normal and the plain
    # boundary rule read one parametrization, with the bits of each
    # quantity written out on its own
    theta = 2.0 * np.pi * np.arange(40) / 40
    nodes, jac, normals = _boundary_written_out(dom, theta)
    assert _same_bits(dom.boundary_point(theta), nodes)
    assert _same_bits(dom.boundary_jacobian(theta), jac)
    assert _same_bits(dom.boundary_normal(theta), normals)
    bq = boundary_rule(dom, 20)
    assert _same_bits(bq.nodes, nodes)
    assert _same_bits(bq.weights, jac * (2.0 * np.pi / 40))
    assert _same_bits(bq.normals, normals)


def test_divergence_theorem_all_kinds():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2]),
                make_ball(3, [0.0, 0.0, 0.0], 1.0)):
        vq = volume_rule(dom, 48)
        bq = boundary_rule(dom, 48)
        lhs = dom.dim * np.sum(vq.weights)          # int div(y) dy
        rhs = np.sum(np.einsum("ij,ij->i", bq.nodes, bq.normals) * bq.weights)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_boundary_trapezoid_spectral_convergence():
    s = cosine_star([1, 0, 0, 0.2])
    g = lambda pts: np.exp(pts[:, 0]) * np.cos(2.0 * pts[:, 1])
    ref_bq = boundary_rule(s, 512)
    ref = ref_bq.integrate(g(ref_bq.nodes))
    errs = []
    for N in (8, 16, 32):
        bq = boundary_rule(s, N)
        errs.append(abs(bq.integrate(g(bq.nodes)) - ref))
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-12:
            break
        assert e0 / max(e1, 1e-16) >= 10.0


def test_boundary_parametrization_consistency():
    for dom in (disk(), ellipse(2.0, 1.0), cosine_star([1, 0, 0, 0.2])):
        theta = np.linspace(0, 2 * np.pi, 17)
        pts = dom.boundary_point(theta)
        assert np.max(np.abs(dom.radial_gap(pts))) <= 1e-12


def test_gauss_legendre_nodes_cached_read_only():
    for rule, total in ((_gl01, 1.0), (_leggauss, 2.0)):
        u, w = rule(12)
        again = rule(12)
        assert again[0] is u and again[1] is w
        assert w.sum() == pytest.approx(total, rel=1e-15)
        for arr in (u, w):
            with pytest.raises(ValueError):
                arr[0] = 0.5


# Gauss-Legendre nodes x_k (k-th from x = 1) and weights w_k as "p k x_k
# w_k", to 40 digits: the whole half-rule up to p = 40, then the 12 nodes
# nearest x = 1, every 16th after them and the middle one.  Generated with
# mpmath 1.3 by
#
#     from mpmath import mp, mpf, cos, pi, nstr
#     mp.dps = 60
#
#     def gl_node(p, k):
#         x = cos(pi * (4 * k + 3) / (4 * p + 2))
#         for _ in range(100):
#             a, b = mpf(1), x                  # P_(j-1)(x), P_j(x)
#             for j in range(1, p):
#                 a, b = b, ((2 * j + 1) * x * b - j * a) / (j + 1)
#             dx = b * (1 - x * x) / (p * (a - x * b))
#             x -= dx
#             if abs(dx) < mpf(10) ** -50:
#                 break
#         a, b = mpf(1), x
#         for j in range(1, p):
#             a, b = b, ((2 * j + 1) * x * b - j * a) / (j + 1)
#         if 2 * k + 1 == p:                    # the middle node, 0
#             x = mpf(0)
#         return x, 2 * (1 - x * x) / (p * a) ** 2
#
#     for p in (1, 2, 3, 7, 40, 189, 600):
#         h = (p + 1) // 2
#         ks = (range(h) if p <= 40
#               else sorted({*range(12), *range(12, h, 16), h - 1}))
#         for k in ks:
#             x, w = gl_node(p, k)
#             print(p, k, *(nstr(v, 40, min_fixed=-50, max_fixed=50)
#                           for v in (x, w)))
GL_REFERENCE = """
1 0 0.0 2.0
2 0 0.5773502691896257645091487805019574556476 1.0
3 0 0.7745966692414833770358530799564799221666 0.5555555555555555555555555555555555555556
3 1 0.0 0.8888888888888888888888888888888888888889
7 0 0.9491079123427585245261896840478512624008 0.1294849661688696932706114326790820183286
7 1 0.7415311855993944398638647732807884070741 0.2797053914892766679014677714237795824869
7 2 0.4058451513773971669066064120769614633474 0.3818300505051189449503697754889751338784
7 3 0.0 0.4179591836734693877551020408163265306122
40 0 0.9982377097105592003496227024205864923358 0.004521277098533191258471732878185332727831
40 1 0.9907262386994570064530543522213721549622 0.01049828453115281361474217106727965237679
40 2 0.9772599499837742626633702837129038069787 0.01642105838190788871286348488236392729234
40 3 0.9579168192137916558045409994527592850949 0.02224584919416695726150432418420857320703
40 4 0.9328128082786765333608521668452057164348 0.02793700698002340109848915750772107730255
40 5 0.9020988069688742967282533308684931035845 0.03346019528254784739267818308641084897724
40 6 0.8659595032122595038207818083546199635705 0.03878216797447201763997203129044616225346
40 7 0.8246122308333116631963202306660987739072 0.04387090818567327199167468604171549581101
40 8 0.7783056514265193876949715455064948480207 0.04869580763507223206143416044814638806784
40 9 0.7273182551899271032809964517549305485574 0.05322784698393682435499647977226050455532
40 10 0.6719566846141795483793545149614941099703 0.0574397690993915513666177309104259856001
40 11 0.6125538896679802379526124502306948773801 0.06130624249292893916653799640839859590259
40 12 0.549467125095128202075931305529517970234 0.06480401345660103807455452956675273003269
40 13 0.483075801686178712908566574244823004599 0.0679120458152339038256901082319239859842
40 14 0.4137792043716050015248797458037136829741 0.07061164739128677969548363085528683235956
40 15 0.341994090825758473007492481179194310067 0.07288658239580405906051068344251783585756
40 16 0.2681521850072536811411843448085961834248 0.0747231690579682642001893362613246731912
40 17 0.1926975807013710997155168520651498948141 0.07611036190062624237155807592249482301256
40 18 0.1160840706752552084834512844080241137687 0.07703981816424796558830753428381024852444
40 19 0.03877241750605082193319344402462329467936 0.07750594797842481126372396295832632696367
189 0 0.9999194784924893635754074677366997058523 0.0002066414177835463641178966677562604869509
189 1 0.9995757612794791576223010902719021700603 0.0004809667712641188245072012299992175384263
189 2 0.9989574867917119744914268362080405607178 0.0007555662522462494733599513798714897436867
189 3 0.9980646875839451996989310811647539280625 0.001029993372224139424632863206651886347143
189 4 0.9968975922000627024680308607468241510266 0.001304144501465109167118555491476284135921
189 5 0.9954565173788227349436936302696773117175 0.001577939329876798376390829470464577293052
189 6 0.9937418578379032467236913524478239038294 0.001851301293005470778046991765076934982478
189 7 0.9917540842776302166641331604106288060568 0.002124154814015944422019133808832698426503
189 8 0.9894937427498886201769902027568994500365 0.002396424723246101101458139265022860043022
189 9 0.9869614543411821180187887361323894398103 0.002668036109629298976879427504643444763818
189 10 0.9841579149370324159278956568471682531457 0.002938914284110348328145235358353527222396
189 11 0.9810838950023672325236479956917530754694 0.003208984778070471251071331009097315562778
189 12 0.9777402393562108853942980108824994104265 0.003478173354311457373651802972080365624136
189 28 0.8885444296490672458182239540862583936343 0.007605853749352806560632182400226521840495
189 44 0.7371969870557845373845046533559321242529 0.01120152238352194490539608641150127423047
189 60 0.5342843153819450770752787899068414376317 0.01401367036923921251567120183051244789778
189 76 0.2939996879948569804088955640149580431571 0.01584559443173624032170713154397745043011
189 92 0.03315046043796715595514299029374923063981 0.01656915570614310631420445687242551086203
189 94 0.0 0.01657826764236586926556379115721224741545
600 0 0.9999919811801331040972119474893398535068 0.00002057885378962236890910463896942248821237
600 1 0.9999577495568427157441533393726671819136 0.00004790310784019442088943043793069803876238
600 2 0.9998961652224424045811445238768760693542 0.0000752665116726902854639062293835863689894
600 3 0.9998072161836325631948112811722445646326 0.0001026313698081534926968336325743795213593
600 4 0.999690903199409755844339512674022880893 0.0001299941245083754418224748844585991300439
600 5 0.9995472290531084440641286125227123733586 0.0001573535326278100710408109700206150582014
600 6 0.999376197543747560823699752416828416625 0.0001847087143137404120674915415460059238356
600 7 0.9991778132979662072665346018105938311086 0.0002120588763129270125374490424038179351281
600 8 0.9989520817199469059820650791627118415281 0.0002394032521329040791540530301480787788685
600 9 0.9986990089746568409283310121237429226244 0.0002667410852141561153285545373857211074568
600 10 0.9984186019812189685309711798509651196469 0.0002940716232594228281860319106296421930685
600 11 0.9981108684099004275191064086635135449406 0.0003213941160542786775465768621402899815657
600 12 0.9977758166805534460100811702044294792367 0.0003487078145439139374593839755171593228964
600 28 0.9887094863484385363386491542915826212718 0.0007839216888875374681707596132106278058773
600 44 0.9727196067474415893710145024137356348914 0.00121364608016894873877699607419795193704
600 60 0.949918148730795607614156737079143996861 0.001634871779297884277472753575544915411808
600 76 0.9204647820649189389183947867029844888485 0.002044649105139503822605711790954270762056
600 92 0.8845657572601871421398140278073035490006 0.002440108545761327180190648576279875145426
600 108 0.8424724612739935117574905599850306029231 0.002818480851928868051111980878312583314957
600 124 0.7944796571445251048731153332574416208612 0.003177116429010207658046527583614292577641
600 140 0.7409234198792395692548886329691994037031 0.003513503891044889151176349182252005389851
600 156 0.682178783051768181523032603946494862548 0.003825287647002242891153026386945731193575
600 172 0.6186571125871193489638854780967256524864 0.004110284396071033733996917402553634731259
600 188 0.5508032261255206576897945704327948949832 0.004366498416468349641486955472136553654507
600 204 0.4790922781368694148370050628241960088858 0.004592135540705564962815896674461690467376
600 220 0.4040264325981247505837746314504316306486 0.004785615719447819004626725380127643057205
600 236 0.3261313465335906355336889555032810500947 0.004945584085987100665377852483530612922349
600 252 0.2459524890424937849987536149085506403053 0.005070920443848693228793575074800949495916
600 268 0.1640513215902794535371527749954394577157 0.005160747111092935499291066287247849513051
600 284 0.08100136631156468266655109148256333551205 0.005214435066381688087510215796470877749794
600 299 0.002615810143100404863279213134182181211364 0.005231608353770980338116391177993719759702
"""


def test_gauss_legendre_rules_match_40_digit_references():
    # nodes to 3e-16 absolute and weights to 1e-12 relative, compared in
    # exact decimal arithmetic; numpy's leggauss errs by 8.3e-12 (p = 189)
    # and 2.0e-10 (p = 600) in the weights nearest +-1
    for line in GL_REFERENCE.split("\n"):
        if not line:
            continue
        p, k, x, w = line.split()
        p, k = int(p), int(k)
        z, wz = _leggauss(p)
        for i, sign in ((p - 1 - k, 1), (k, -1)):
            assert abs(Decimal(float(z[i])) - sign * Decimal(x)) <= \
                Decimal("3e-16"), (p, k)
            assert abs(Decimal(float(wz[i])) / Decimal(w) - 1) <= \
                Decimal("1e-12"), (p, k)


# Nearest boundary points (``geometry._nearest_point``) as "domain x0 x1
# theta* distance", to 40 digits: the 12 points of tests/golden/star_near.cfg
# on cosine_star([1, 0, 0, 0.2]), then on that star and on ellipse(2, 1)
# the points gamma(theta) + delta nu(theta) at the star's concave lobes
# theta = pi/3, pi and 5 pi/3 for delta = -0.1, -1e-2, -1e-4, 1e-4, 1e-2
# and 0.1 (computed in double, then stored as the doubles they are).
# Generated with mpmath 1.3 by
#
#     from mpmath import mp, mpf, cos, sin, sqrt, findroot, nstr
#     mp.dps = 60
#     a, b, c = mpf(2), mpf(1), [mpf(1), 0, 0, mpf(0.2)]
#     RHO = {"star": lambda t: c[0] + c[3] * cos(3 * t),
#            "ellipse": lambda t: a * b / sqrt((b * cos(t)) ** 2
#                                              + (a * sin(t)) ** 2)}
#
#     def nearest(kind, x0, x1, t_start):
#         # x0, x1: the doubles; t_start: the best of 2^20 samples
#         rho, X0, X1 = RHO[kind], mpf(x0), mpf(x1)
#
#         def g(t):   # (gamma - x) . gamma'
#             r, dr, c, s = rho(t), mp.diff(rho, t), cos(t), sin(t)
#             return dr * (r - X0 * c - X1 * s) - r * (X1 * c - X0 * s)
#
#         t = findroot(g, mpf(t_start), tol=mpf(10) ** -55)
#         r = rho(t)
#         d = sqrt((r * cos(t) - X0) ** 2 + (r * sin(t) - X1) ** 2)
#         return (nstr(v, 40, min_fixed=-50, max_fixed=50) for v in (t, d))
NEAREST_REFERENCE = """
star 1.0664313700907995 0.3258487271845156 0.3000000000000000466910492335110059832399 0.01000000000000012053804898333872639486036
star 1.0740290815045066 0.33219575651121824 0.3000000000000001024499896757064740956404 0.000100000000000153478641434566468440267402
star 1.0741825706239756 0.3323239793258991 0.2999999999999999985995579035837763280904 0.00009999999999995525670433465092034416257311
star 1.0817802820376827 0.33867100865260175 0.3000000000000000542182055076682851333982 0.009999999999999922316111883423171775420551
star 0.4288335796110366 0.6659255144951834 0.9999999999999999453569789855431643163944 0.009999999999999952803485122325273804682805
star 0.43327836332190406 0.6747716378135421 1.000000000000000006005370799284193559026 0.00009999999999986778034731028779691801514354
star 0.43336815693222464 0.6749503473755291 0.9999999999999999349328063759440615468214 0.0001000000000000653430748928950663334327925
star 0.4378129406430921 0.6837964706938877 0.9999999999999999963417067319648687464125 0.01000000000000015036621270493254380671472
star -0.8468077256800363 0.6383977422431686 2.499999999999999898217867811163522323252 0.01000000000000002894722497262813643709163
star -0.8565857816659741 0.6399468132989518 2.499999999999999960527197482000147196354 0.0001000000000000295606528428865360969844743
star -0.8567833181505384 0.6399781076637151 2.499999999999999912441082971899599144392 0.00009999999999990947509386935977903276803515
star -0.8665613741364763 0.6415271787194983 2.499999999999999973698211148826807211099 0.009999999999999908861665999101381083993668
star 0.3500000000000001 0.6062177826491071 1.047197551196597680021010023525657263882 0.09999999999999991721720070543936018135584
star 0.39500000000000013 0.6841600689897065 1.047197551196597585857717078089851720651 0.009999999999999956909891206650434345077174
star 0.39995000000000014 0.6927337204871725 1.047197551196597626152477598133048165441 0.00009999999999987773609677211106918025116195
star 0.4000500000000001 0.6929069255679293 1.047197551196597583040542248843648016551 0.0001000000000000405607247533661442879367414
star 0.40500000000000014 0.7014805770653953 1.04719755119659762393702824578033441046 0.0100000000000001197345191879055095550025
star 0.4500000000000002 0.7794228634059948 1.047197551196597501244993478131521946325 0.1000000000000000800418286866944279585588
star -0.7000000000000001 1.1327982892113018e-16 3.141592653589793115997963468544161241101 0.09999999999999992228438827623905084083203
star -0.79 9.950255243072246e-17 3.14159265358979311599796346854416246194 0.009999999999999953370632965743432918175116
star -0.7999 9.79870520167776e-17 3.141592653589793115997963468544167399618 0.00009999999999993347543636446062759778659109
star -0.8001 9.795643584679892e-17 3.141592653589793115997963468544159963597 0.0001000000000000444977388269762666425519313
star -0.81 9.644093543285407e-17 3.141592653589793115997963468544164941175 0.01000000000000006439293542825907196294046
star -0.9 8.266365894244634e-17 3.141592653589793115997963468544167027381 0.1000000000000000333066907387546898855974
star 0.3500000000000001 -0.6062177826491071 5.235987755982988796904276743033348504512 0.09999999999999991721720070543936018135584
star 0.39500000000000013 -0.6841600689897065 5.235987755982988891067569688469154047743 0.009999999999999956909891206650434345077174
star 0.39995000000000014 -0.6927337204871725 5.235987755982988850772809168425957602953 0.00009999999999987773609677211106918025116195
star 0.4000500000000001 -0.6929069255679293 5.235987755982988893884744517715357751844 0.0001000000000000405607247533661442879367414
star 0.40500000000000014 -0.7014805770653953 5.235987755982988852988258520778671357934 0.0100000000000001197345191879055095550025
star 0.4500000000000002 -0.7794228634059948 5.235987755982988975680293288427483822069 0.1000000000000000800418286866944279585588
ellipse 0.540414481939515 0.8617945909694441 1.047197551196597587901355783185416455279 0.09999999999999996420886963508879194861843
ellipse 0.5532716247966578 0.9508714896444149 1.047197551196597646357791949478102391188 0.009999999999999989060793569202123795469765
ellipse 0.5546859105109435 0.9606699484986617 1.047197551196597657742218879591838280725 0.00009999999999998819217836495298466706189796
ellipse 0.554714481939515 0.960867897162384 1.047197551196597618533009994049883801258 0.0001000000000001092712717217849375647513046
ellipse 0.5561287676538007 0.9706663560166308 1.047197551196597629961178416593603296559 0.01000000000000011013988692603407656944127
ellipse 0.5689859105109435 1.0597432546916015 1.047197551196597672777922217029609061922 0.09999999999999997540438091285995010060767
ellipse -1.9 1.9594348786357652e-16 3.141592653589793115997963468544148811223 0.1000000000000000888178419700124752415775
ellipse -1.99 2.4003077263288124e-16 3.141592653589793115997963468544174412914 0.01000000000000000888178419700119353280557
ellipse -1.9999 2.4488037395750476e-16 3.141592653589793115997963468544177413573 0.00009999999999998898658759571838714060434564
ellipse -2.0001 2.449783457014365e-16 3.141592653589793115997963468544241292536 0.0001000000000002110311925207498152061132922
ellipse -2.01 2.4982794702606004e-16 3.141592653589793115997963468544136297787 0.009999999999999786837179271970005428861852
ellipse -2.1 2.9391523179536476e-16 3.141592653589793115997963468544204403886 0.1000000000000000888178419700125952223601
ellipse 0.540414481939515 -0.8617945909694441 5.235987755982988889023930983373589313115 0.09999999999999996420886963508879194861843
ellipse 0.5532716247966578 -0.9508714896444149 5.235987755982988830567494817080903377206 0.009999999999999989060793569202123795469765
ellipse 0.5546859105109435 -0.9606699484986617 5.235987755982988819183067886967167487669 0.00009999999999998819217836495298466706189796
ellipse 0.554714481939515 -0.960867897162384 5.235987755982988858392276772509121967136 0.0001000000000001092712717217849375647513046
ellipse 0.5561287676538007 -0.9706663560166308 5.235987755982988846964108349965402471836 0.01000000000000011013988692603407656944127
ellipse 0.5689859105109435 -1.0597432546916015 5.235987755982988804147364549529396706473 0.09999999999999997540438091285995010060767
"""


def test_nearest_point_matches_40_digit_references():
    # the parameter to 1e-14 and the distance to 1e-15, in exact decimal
    # arithmetic; the 512-sample distance that it replaced read 4.2e-3 to
    # 6.7e-3 at the offsets 1e-4
    doms = {"star": cosine_star([1, 0, 0, 0.2]), "ellipse": ellipse(2.0, 1.0)}
    for line in NEAREST_REFERENCE.split("\n"):
        if not line:
            continue
        kind, x0, x1, theta, dist = line.split()
        x = np.array([float(x0), float(x1)])
        t, d = geometry._nearest_point(doms[kind], x)
        assert abs(Decimal(t) - Decimal(theta)) <= Decimal("1e-14"), line
        assert abs(Decimal(d) - Decimal(dist)) <= Decimal("1e-15"), line
        assert doms[kind].distance_to_boundary(x) == d


@pytest.mark.parametrize("dom, x", [
    (disk(1.5, (0.2, -0.1)), (0.9, 0.4)),
    (make_ball(3, (0.1, 0.0, -0.2), 2.0), (0.5, 2.5, 1.0))],
    ids=["disk", "ball3d"])
def test_nearest_point_on_a_ball_is_its_closed_form(dom, x):
    # x - c and |R - |x - c||, with the bits of the written-out forms (the
    # disk's graded rule takes the angle of x - c, as written out below)
    x = np.array(x)
    t, d = geometry._nearest_point(dom, x)
    dx = x - dom.center
    assert np.array_equal(t, dx)
    assert d == abs(dom.radius - float(np.linalg.norm(dx)))


@pytest.mark.parametrize("p", [1, 2, 3, 12, 189, 600])
def test_gauss_legendre_rules_are_ascending_and_symmetric(p):
    z, w = _leggauss(p)
    assert z.shape == w.shape == (p,)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert np.array_equal(z, -z[::-1]) and np.array_equal(w, w[::-1])
    assert not np.any(np.signbit(z[p // 2:]))
    u, wu = _gl01(p)
    assert np.array_equal(u, 0.5 * (z + 1.0))
    assert np.array_equal(wu, 0.5 * w)


def test_cold_gauss_legendre_rule_takes_no_dense_matrix():
    # numpy's leggauss(2000) solves a 2000 x 2000 eigen-problem: 32 MB
    geometry._leggauss.cache_clear()
    tracemalloc.start()
    try:
        _leggauss(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_drained_rule_peaks_below_twice_its_size():
    # 591,864 nodes (18.9 MB of nodes and weights) 1e-5 inside the ball:
    # the nodes and weights are written in place, so besides them only
    # the radii are alive (1.25 times the rule); a node buffer, its
    # C-contiguous copy and the weight temporaries took 3.05 times
    geometry._leggauss.cache_clear()
    x = (1.0 - 1e-5) * np.array([1.0, 2.0, -2.0]) / 3.0
    tracemalloc.start()
    try:
        vq = singular_volume_rule(make_ball(3, (0.0, 0.0, 0.0), 1.0), x, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = vq.nodes.nbytes + vq.weights.nbytes
    assert size > 1.5e7 and peak <= 2.0 * size, (size, peak)


def _fan(m):
    theta = 2.0 * np.pi * np.arange(m) / m
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def test_ray_intervals_rejects_non_interior():
    # a ball rejects a point that is not interior; a star domain's rules
    # cast no ray, so it rejects every point
    d = disk()
    for x in ([1.5, 0.0], [0.0, -3.0]):
        with pytest.raises(DomainError, match="interior point"):
            d.ray_intervals(np.array(x), _fan(16))
    first, extras = d.ray_intervals(np.array([0.3, 0.1]), _fan(16))
    assert np.array_equal(first, d.ray_exit(np.array([0.3, 0.1]), _fan(16)))
    assert extras.shape == (0, 3)
    s = cosine_star([1, 0, 0, 0.2])
    for method in (s.ray_intervals, s.ray_exit):
        with pytest.raises(DomainError, match="balls only"):
            method(np.array([0.1, 0.2]), _fan(16))


def test_star_bounding_radius_bounds_rho_between_samples():
    # rho peaks at cos(theta) = 1/4, between the 256 check angles, where it
    # exceeds their largest value by 2e-5
    s = cosine_star([1.0, 0.2, -0.2])
    theta = np.linspace(0.0, 2.0 * np.pi, 2_000_001)
    assert s.bounding_radius > np.max(s.rho(theta))


# The node and direction expressions the rule builders used before they
# were built one coordinate at a time, and the graded radial rule's table
# form written out; a rule built with these must have the same bits.

def _ray_nodes_broadcast(x, rn, dirs, out=None):
    n = dirs.shape[1]
    y = (x[None, None, :] + rn[:, :, None] * dirs[:, None, :]).reshape(-1, n)
    if out is None:
        return y
    out[...] = y
    return out


def _cone_dirs_broadcast(ca, sa, axis, e1, e2, phi):
    dirs = (ca[:, None, None] * axis[None, None, :]
            + sa[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                   + np.sin(phi)[None, :, None] * e2))
    return dirs.reshape(-1, 3)


def _graded_radial_written_out(r_lo, r_hi, p, n_panels):
    # the table form written out: panel k of [0, 1] starts at a = h =
    # 2^-(k+1) (the last at a = 0, with h = 2^-n_panels), t = a + h u;
    # the nodes s t (+ r_lo where some r_lo is nonzero), the weights s h w
    u, w = _gl01(p)
    h = 0.5 ** np.arange(1, n_panels + 2)
    h[-1] *= 2.0
    a = np.concatenate([h[:-1], [0.0]])
    t = (a[:, None] + h[:, None] * u[None, :]).reshape(-1)
    hw = (h[:, None] * w[None, :]).reshape(-1)
    span = (r_hi - r_lo)[:, None]
    nodes = span * t[None, :]
    if np.any(r_lo):
        nodes = nodes + r_lo[:, None]
    return nodes, span * hw[None, :]


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _rule_cases(dom):
    """(builder, args) for every volume-rule builder that applies to dom:
    the regular rule; the singular rule at the centre and at interior
    offsets 1e-4 and 1e-3 (also with an excised ball); the exterior rule
    (the flux rays, drained by each domain kind's builder) at offsets 1e-4
    and 1e-3 and at a far point."""
    c = dom.center
    if dom.dim == 2:
        xb, nb = dom.boundary_point(0.98), dom.boundary_normal(0.98)
        N = 32
    else:
        nb = np.array([1.0, 2.0, -2.0]) / 3.0
        xb = c + dom.radius * nb
        N = 12
    if dom.dim == 3:
        exterior = exterior_chord_rule
    elif dom.kind == "ball":
        exterior = near_disk_flux_rule
    else:
        exterior = near_exterior_star_rule
    cases = [(geometry.volume_rule, (dom, N))]
    for x in (c, xb - 1e-4 * nb, xb - 1e-3 * nb):
        cases.append((geometry.singular_volume_rule, (dom, x, N)))
    cases.append((geometry.singular_volume_rule, (dom, xb - 1e-3 * nb, N,
                                                  1e-2)))
    for x in (xb + 1e-4 * nb, xb + 1e-3 * nb, c + 3.0 * dom.bounding_radius
              * nb):
        cases.append((exterior, (dom, x, N)))
    return cases


@pytest.mark.parametrize("dom", [disk(), ellipse(2.0, 1.0),
                                 cosine_star([1, 0, 0, 0.2]),
                                 make_ball(3, (0.0, 0.0, 0.0), 1.0)],
                         ids=["disk", "ellipse", "star", "ball3d"])
def test_rule_nodes_match_broadcast_bitwise(dom, monkeypatch):
    cases = _rule_cases(dom)
    with monkeypatch.context() as mp:
        mp.setattr(geometry, "_ray_nodes", _ray_nodes_broadcast)
        mp.setattr(geometry, "_cone_dirs", _cone_dirs_broadcast)
        refs = [build(*args) for build, args in cases]
    for (build, args), ref in zip(cases, refs):
        vq = build(*args)
        assert vq.nodes.flags.c_contiguous
        assert vq.nodes.shape == (len(vq.weights), dom.dim)
        assert _same_bits(vq.nodes, ref.nodes), (build.__name__, args[1:])
        assert _same_bits(vq.weights, ref.weights), (build.__name__, args[1:])


# The boundary and unit-sphere grids as each builder once wrote them out
# for itself; the shared grid builders must give the same bits.

_EX, _EY, _EZ = np.eye(3)


def _circle_written_out(m):
    t = 2.0 * np.pi * np.arange(m) / m
    dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
    return dirs, np.full(m, 2.0 * np.pi / m)


def _gl_sphere_written_out(nt, nphi):
    mu, wmu = _leggauss(nt)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    dirs = _cone_dirs_broadcast(mu, np.sqrt(1.0 - mu ** 2), _EZ, _EX, _EY,
                                phi)
    return dirs, np.repeat(wmu, nphi) * (2.0 * np.pi / nphi)


def _boundary_rule_written_out(dom, N):
    if dom.dim == 2:
        m = max(16, 2 * N)
        theta = 2.0 * np.pi * np.arange(m) / m
        return (dom.boundary_point(theta),
                dom.boundary_jacobian(theta) * (2.0 * np.pi / m),
                dom.boundary_normal(theta))
    R, c = dom.radius, dom.center
    nt = max(8, N)
    dirs, w = _gl_sphere_written_out(nt, 2 * nt)
    return c + R * dirs, w * R ** 2, dirs


def _graded_cap_written_out(dom, x, N):
    # polar angles pi t on order-12 Gauss-Legendre panels of [0, 1],
    # graded dyadically until the innermost one, pi R 2^-levels wide, is
    # at most half the distance (the boundary band's where x is on it)
    R, c = dom.radius, dom.center
    d = x - c
    axis = d / np.linalg.norm(d)
    tmp = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array(
        [0.0, 1.0, 0.0])
    e1 = np.cross(axis, tmp)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    dist = max(abs(R - np.linalg.norm(d)), 1e-9 * R)
    levels = 1
    while np.pi * R * 0.5 ** levels > dist / 2:
        levels += 1
    t, wt = _graded_radial_written_out(np.zeros(1), np.ones(1), 12, levels)
    psi, wpsi = np.pi * t[0], np.pi * wt[0]
    nphi = max(16, N)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    dirs = _cone_dirs_broadcast(np.cos(psi), np.sin(psi), axis, e1, e2, phi)
    wts = np.repeat(wpsi * np.sin(psi), nphi) * (2.0 * np.pi / nphi) * R ** 2
    return c[None, :] + R * dirs, wts, dirs


BALL3 = make_ball(3, (0.0, 0.0, 0.0), 1.0)
SHIFTED_BALL3 = make_ball(3, (0.3, -0.2, 0.5), 1.5)


@pytest.mark.parametrize("N", [4, 12, 64])
@pytest.mark.parametrize("dom", [disk(), cosine_star([1, 0, 0, 0.2]),
                                 BALL3, SHIFTED_BALL3],
                         ids=["disk", "star", "ball3d", "shifted-ball3d"])
def test_boundary_rule_keeps_written_out_bits(dom, N):
    bq = boundary_rule(dom, N)
    nodes, weights, normals = _boundary_rule_written_out(dom, N)
    assert _same_bits(bq.nodes, nodes)
    assert _same_bits(bq.weights, weights)
    assert _same_bits(bq.normals, normals)


def _recording_kernel(seen):
    def k(z):
        seen.append(np.array(z))
        return 1.0 + 3.0 * z[:, 0] - z[:, -1] ** 2
    return k


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_residue_keeps_written_out_bits(n):
    # every kernel argument is eps xi on the unit-sphere grid, and each
    # scaled sum is the written-out one
    xi, w = (_circle_written_out(256) if n == 2
             else _gl_sphere_written_out(48, 96))
    eps_seq = (1e-1, 1e-2, 1e-3, 1e-4)
    seen = []
    _, vals = verify.sphere_residue(_recording_kernel(seen), n - 1, n,
                                    eps_seq)
    k = _recording_kernel([])
    for eps, z, val in zip(eps_seq, seen, vals):
        assert _same_bits(z, eps * xi)
        ref = np.sum(k(eps * xi) * xi[:, n - 1] * w) * eps ** (n - 1)
        assert val == ref


@pytest.mark.parametrize("N", [4, 12])
@pytest.mark.parametrize("dom", [BALL3, SHIFTED_BALL3],
                         ids=["ball3d", "shifted-ball3d"])
def test_graded_cap_keeps_written_out_bits(dom, N):
    # the near-boundary layer rule on the sphere, seen through the
    # (nodes, normals) it hands the integrand and the sum it returns
    nb = np.array([1.0, 2.0, -2.0]) / 3.0
    for s in (-1e-3, 1e-4):
        x = dom.center + (dom.radius + s) * nb
        seen = []

        def integrand(y, nu):
            seen.append((np.array(y), np.array(nu)))
            return 1.0 + y[:, 0] * nu[:, 2] - y[:, 1] ** 2

        got = potentials._boundary_integral(potentials._Plan(dom, x, N),
                                            integrand)
        nodes, wts, normals = _graded_cap_written_out(dom, x, N)
        assert len(seen) == 1
        assert _same_bits(seen[0][0], nodes)
        assert _same_bits(seen[0][1], normals)
        assert got == complex(np.sum(integrand(nodes, normals) * wts))


def _boundary_written_out(dom, t):
    """Points, arclength elements and unit normals of a 2D domain at the
    angles t, each with its own cos and sin: gamma = c + R e on a disk,
    rho e on a star domain, normal (rho e - rho' e_perp) / |.|."""
    e = np.stack([np.cos(t), np.sin(t)], axis=-1)
    if dom.kind == "ball":
        return dom.center + dom.radius * e, np.full(t.shape, dom.radius), e
    r, dr = dom.rho(t), dom.drho(t)
    eperp = np.stack([-np.sin(t), np.cos(t)], axis=-1)
    nrm = r[:, None] * e - dr[:, None] * eperp
    return (r[:, None] * e, np.sqrt(r ** 2 + dr ** 2),
            nrm / np.linalg.norm(nrm, axis=-1, keepdims=True))


@pytest.mark.parametrize("dom", [disk(), cosine_star([1, 0, 0, 0.2]), BALL3,
                                 SHIFTED_BALL3],
                         ids=["disk", "star", "ball3d", "shifted-ball3d"])
def test_graded_boundary_rules_keep_written_out_bits(dom):
    # the rule itself: the sphere cap as written out above, and in 2D one
    # rule whose nodes, weights and normals are the two halves
    # theta0 + pi u^3 and then theta0 - pi u^3, each written out with the
    # arclength Jacobian times the graded weights, concatenated
    if dom.dim == 2:
        xb, nb = dom.boundary_point(0.98), dom.boundary_normal(0.98)
    else:
        nb = np.array([1.0, 2.0, -2.0]) / 3.0
        xb = dom.center + dom.radius * nb
    for N, s in ((4, -1e-3), (12, 1e-4), (32, 0.0)):
        x = xb + s * nb
        bq = geometry._graded_boundary_rule(dom, N, _nearest_point(dom, x))
        if dom.dim == 3:
            nodes, weights, normals = _graded_cap_written_out(dom, x, N)
        else:
            z, w = _leggauss(max(24, 2 * N))
            u, w = 0.5 * (z + 1.0), 0.5 * w
            theta0 = (_nearest_point(dom, x)[0]
                      if dom.kind == "star2d" else np.arctan2(x[1], x[0]))
            halves = []
            for t in (theta0 + np.pi * u ** 3, theta0 - np.pi * u ** 3):
                y, jac, nu = _boundary_written_out(dom, t)
                halves.append((y, jac * (np.pi * 3 * u ** 2 * w), nu))
            nodes, weights, normals = (np.concatenate(a)
                                       for a in zip(*halves))
        assert _same_bits(bq.nodes, nodes)
        assert _same_bits(bq.weights, weights)
        assert _same_bits(bq.normals, normals)


def test_sphere_graded_rule_matches_broadcast_bitwise(monkeypatch):
    # the near-boundary single layer on the ball builds its cap directions
    # with _cone_dirs
    fs = laplace_fundamental(3)
    dom = make_ball(3, (0.0, 0.0, 0.0), 1.0)
    nb = np.array([1.0, 2.0, -2.0]) / 3.0

    def phi(y):
        return 1.0 + y[:, 0] * y[:, 2]

    points = [(1.0 + s * h) * nb for s in (-1, 1) for h in (1e-4, 1e-3)]
    with monkeypatch.context() as mp:
        mp.setattr(geometry, "_cone_dirs", _cone_dirs_broadcast)
        refs = [potentials.single_layer(fs, dom, phi, x, 12) for x in points]
    for x, ref in zip(points, refs):
        assert potentials.single_layer(fs, dom, phi, x, 12) == ref


def test_offsets_match_broadcast_bitwise():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        x = rng.standard_normal(n)
        nodes = np.concatenate([rng.standard_normal((1000, n)),
                                np.zeros((2, n)), -np.zeros((2, n)),
                                np.tile(x, (2, 1))])
        z = potentials._offsets(x, nodes)
        assert z.T.flags.c_contiguous and z.shape == nodes.shape
        assert _same_bits(z, x[None, :] - nodes)
    dom = disk()
    x = np.array([1.0 + 1e-4, 0.0])
    vq = near_disk_flux_rule(dom, x, 32)
    assert _same_bits(potentials._offsets(x, vq.nodes), x[None, :] - vq.nodes)


def _radial_spans(rng, m):
    """Spans from 1e-12 up to a few units, with a zero one."""
    s = 10.0 ** rng.uniform(-12.0, 0.5, m)
    s[:3] = (1e-12, 1.0, 0.0)
    return s


@pytest.mark.parametrize("p", range(3, 11))
def test_graded_nodes_match_broadcast_bitwise(p):
    # the radii lo + s t of a block of rays (lo = 0 and -0.0 add nothing
    # to the scaled table, other lo add lo) and the radial weights s wt
    # against the table form written out, for the spans s = hi - lo that
    # a RayForm takes
    rng = np.random.default_rng(p)
    m = 40
    span = _radial_spans(rng, m)
    lo_pos = rng.uniform(0.0, 2.0, m)
    lo_pos[:2] = (1e-300, 5e-13)
    lo_mixed = np.where(np.arange(m) % 2 == 0, 0.0, lo_pos)
    for n_panels in [0, 6] + list(range(12, 27)):
        t, wt, _ = geometry._radial_tables(p, n_panels)
        for lo in (np.zeros(m), -np.zeros(m), lo_pos, lo_mixed):
            s = ((lo + span) - lo)[:, None]
            ref = _graded_radial_written_out(lo, lo + span, p, n_panels)
            assert _same_bits(geometry._graded_nodes(lo, s, t), ref[0]), \
                (n_panels, lo[:3])
            assert _same_bits(s * wt, ref[1]), (n_panels, lo[:3])


@pytest.mark.parametrize("inward", [False, True])
@pytest.mark.parametrize("dim", [2, 3])
def test_ray_set_blocks_match_broadcast_bitwise(dim, inward):
    # a block of rays graded toward their start lo, about the origin and
    # another centre, against the parent's radial and node expressions;
    # inward, the rays run from hi in to 0 with their angular weights
    # negated, against the parent's expressions for the rays from 0 out
    # to hi graded toward hi.  The nodes are the transposed view of a
    # C-contiguous buffer.  Every block carries its weights factored,
    # c = span wang per ray and the radial table wt, and no per-node
    # weight; ``_drain`` multiplies them out with the bits of the
    # parent's weight expression
    rng = np.random.default_rng(dim)
    m, i, j = 50, 3, 40
    dirs = rng.standard_normal((m, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    lo = np.zeros(m) if inward else rng.uniform(0.0, 0.5, m)
    hi = lo + _radial_spans(rng, m)
    wang = rng.uniform(0.1, 1.0, m)
    if inward:
        g, rw = _graded_radial_written_out(np.zeros(j - i),
                                           hi[i:j] - lo[i:j], 7, 14)
        rn = hi[i:j, None] - g
        rays = (hi, lo, -wang)
    else:
        rn, rw = _graded_radial_written_out(lo[i:j], hi[i:j], 7, 14)
        rays = (lo, hi, wang)
    jac = rn if dim == 2 else rn ** 2
    weights = (rw * jac * wang[i:j, None]).reshape(-1)
    hw = _graded_radial_written_out(np.zeros(1), np.ones(1), 7, 14)[1][0]
    for center in (np.zeros(dim), rng.standard_normal(dim)):
        form = geometry.RayForm(geometry.RaySet(center, dirs, *rays, 7, 14),
                                i, j)
        y = form.nodes
        assert y.T.flags.c_contiguous
        assert _same_bits(y, _ray_nodes_broadcast(center, rn, dirs[i:j]))
        assert _same_bits(form.dirs, dirs[i:j]) and _same_bits(form.rn, rn)
        assert _same_bits(form.c, (hi[i:j] - lo[i:j]) * wang[i:j])
        assert form.wt is geometry._radial_tables(7, 14)[1]
        assert _same_bits(form.wt, hw)
        vq = geometry._drain((geometry.RaySet(
            center, dirs[i:j], *(a[i:j] for a in rays), 7, 14),))
        assert _same_bits(vq.nodes, y) and _same_bits(vq.weights, weights)
    if not inward:
        # rays that start at 0: rn = s t, which the table moments sum
        form = geometry.RayForm(geometry.RaySet(
            np.zeros(dim), dirs, np.zeros(m), hi - lo, wang, 7, 14), i, j)
        assert _same_bits(form.rn, (hi[i:j] - lo[i:j])[:, None]
                          * geometry._radial_tables(7, 14)[0])


@pytest.mark.parametrize("p, n_panels", [(3, 12), (7, 14), (10, 26), (7, 6)])
def test_radial_table_moments(p, n_panels):
    # the moments sum wt, sum t wt and sum t log t wt of the graded table:
    # the numpy sums of its products, and the integrals 1, 1/2 and -1/4 of
    # 1, t and t log t over [0, 1], the last to the rule's accuracy (the
    # order-3 rule of N = 8 errs by 5.8e-7 on it)
    t, wt, (w0, m1, ml) = geometry._radial_tables(p, n_panels)
    assert (w0, m1, ml) == (np.sum(wt), np.sum(t * wt),
                            np.sum(t * np.log(t) * wt))
    assert abs(w0 - 1.0) <= 4e-16 and abs(m1 - 0.5) <= 4e-16
    assert abs(ml + 0.25) <= 1e-6
