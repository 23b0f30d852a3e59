"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line.  Tolerances are pinned here, not deferred:
tracker convergence 1e-8 (sup norm, last three consecutive differences),
curve-image sampling 1e-9, everything else exact (bit-exact canonical
strings or rational arithmetic)."""

import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from nonproper import (
    Context,
    Ideal,
    ParametricCurve,
    PathSpec,
    PolyMap,
    PreconditionError,
    certify,
    common_inner,
    cover_image_real,
    curve_relations,
    dimension,
    fixed_locus,
    no_smaller_curve,
    one_param_action,
    parse_poly,
    rationalize_verify,
    sf_components_resultant,
    sf_compute,
    substitute_curve,
    theorem_bound,
    track,
    vanishes_on,
    verify_curve,
)
from nonproper.cli import main as cli_main
from nonproper.curves import compose_scalar, decompose
from nonproper.orders import LEX

from sampling import images_mutually_close

ROOT = Path(__file__).resolve().parents[1]

C2 = Context(("x1", "x2"))
C3 = Context(("x1", "x2", "x3"))
CXY = Context(("x", "y"))
Y12 = Context(("y1", "y2"), LEX)

CONVERGE_TOL = 1e-8
SAMPLING_TOL = 1e-9


def record(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def pmap(ctx, *comps, domain=None, mode="complex"):
    return PolyMap(ctx, tuple(parse_poly(c, ctx) for c in comps), domain=domain, mode=mode)


def scaling_n2():
    return pmap(C2, "x1", "x1*x2")


def scaling_n3():
    return pmap(C3, "x1", "x1*x2", "x1*x3")


def twist(d):
    return pmap(CXY, f"x + (x*y)^{d}", "x*y")


def hyperbola():
    dom = Ideal(C3, [parse_poly("x1*x2 - 1", C3)])
    return pmap(C3, "x2", "x3", domain=dom)


CORPUS_MAPS = {
    "scaling_n2": (scaling_n2, [["y1"]]),
    "scaling_n3": (scaling_n3, [["y1"]]),
    "twist_d2": (lambda: twist(2), [["y1 - y2^2"]]),
    "twist_d3": (lambda: twist(3), [["y1 - y2^3"]]),
    "hyperbola": (hyperbola, [["y1"]]),
}

PROPER_CONTROLS = {
    "identity": lambda: pmap(C2, "x1", "x2"),
    "invertible_linear": lambda: pmap(C2, "2*x1 + x2", "x1 - x2"),
    "odd_cubic": lambda: pmap(C2, "x1^3 + x1", "x2"),
    "component_squares": lambda: pmap(C2, "x1^2", "x2^2"),
}


@pytest.fixture(scope="module")
def sf_results():
    return {name: sf_compute(build()) for name, (build, _) in CORPUS_MAPS.items()}


def test_criterion_1_golden_sf(sf_results):
    ok = True
    details = []
    for name, (build, want) in CORPUS_MAPS.items():
        got = sf_results[name].component_strings()
        if got != want:
            ok = False
            details.append(f"{name}: {got} != {want}")
    record(1, ok, "; ".join(details) or "bit-exact canonical components on all five maps")


def test_criterion_2_proper_controls(capsys):
    ok = True
    details = []
    for name, build in PROPER_CONTROLS.items():
        sf = sf_compute(build())
        if not sf.is_empty:
            ok = False
            details.append(f"{name} has components {sf.component_strings()}")
    # exit 0 through the CLI as well
    code = cli_main(["sf", str(ROOT / "problems" / "identity_control.json"), "--quiet"])
    capsys.readouterr()
    if code != 0:
        ok = False
        details.append(f"cli exit {code}")
    with capsys.disabled():
        record(2, ok, "; ".join(details) or "empty set and exit 0 on all proper controls")


def test_criterion_3_hypersurface(sf_results):
    ok = True
    details = []
    for name, sf in sf_results.items():
        if sf.is_empty:
            continue
        if not sf.hypersurface_ok:
            ok = False
            details.append(f"{name}: flag false")
        dim_im = dimension(sf.image_ideal)
        for comp in sf.components:
            gens = [g for g in comp.canonical_generators() if not g.is_zero()]
            if len(gens) != 1 or dimension(comp) != dim_im - 1:
                ok = False
                details.append(f"{name}: component not a principal hypersurface")
    record(3, ok, "; ".join(details) or "principal components of codimension one everywhere")


def test_criterion_4_bound_table(sf_results):
    ok = True
    details = []
    # (b): certified degree d, wn bound = d (sharp), cn bound = 2d - 1
    for d in (2, 3):
        f = twist(d)
        sf = sf_results[f"twist_d{d}"]
        comp = sf.components[0]
        samples = [(Q(0), Q(0)), (Q(1), Q(1)), (Q(2 ** d), Q(2))]
        cert = certify(comp, (), d, samples, sharpness=True)
        sharp = bool(cert.minimality) and all(cert.minimality.values())
        wn = theorem_bound(f, "wn")
        cn = theorem_bound(f, "cn")
        if not (cert.status == "verified" and sharp and wn == d and cn == 2 * d - 1):
            ok = False
            details.append(f"d={d}: cert={cert.status} sharp={sharp} wn={wn} cn={cn}")
        if not (d <= wn and d <= cn):
            ok = False
            details.append(f"d={d}: certified degree exceeds a bound")
    # (a): certified degree 1 equals the cn bound for deg-2 maps
    for name in ("scaling_n2", "scaling_n3"):
        f = CORPUS_MAPS[name][0]()
        comp = sf_results[name].components[0]
        pts = [tuple([Q(0)] * f.m), tuple([Q(0)] + [Q(1)] * (f.m - 1))]
        cert = certify(comp, (), 1, pts)
        cn = theorem_bound(f, "cn")
        if not (cert.status == "verified" and cn == 1):
            ok = False
            details.append(f"{name}: cert={cert.status} cn={cn}")
    # hyperbola: certified degree 1 within the multc bound d1*d2 = 1
    cert = certify(sf_results["hyperbola"].components[0], (), 1,
                   [(Q(0), Q(0)), (Q(0), Q(5))])
    bound = theorem_bound(hyperbola(), "multc", d1=1)
    if not (cert.status == "verified" and 1 <= bound):
        ok = False
        details.append(f"hyperbola: cert={cert.status} multc={bound}")
    record(4, ok, "; ".join(details) or
           "certified degrees meet every applicable bound, with wn equality on (b)")


def test_criterion_5_sharpness():
    ok = True
    details = []
    for d, pts in ((2, [(0, 0), (1, 1), (4, 2)]), (3, [(0, 0), (1, 1), (8, 2)])):
        V = Ideal(Y12, [parse_poly(f"y1 - y2^{d}", Y12)])
        for a in pts:
            if not no_smaller_curve(V, a, d):
                ok = False
                details.append(f"d={d} at {a}")
    record(5, ok, "; ".join(details) or
           "no nonconstant curve of degree <= d-1 at 3 points, d in {2, 3}")


def test_criterion_6_tracker():
    ok = True
    details = []
    runs = [
        (scaling_n2(), (0, 1), lambda k: (Q(1, k * k), Q(k * k))),
        (scaling_n3(), (0, 1, 1), lambda k: (Q(1, k * k), Q(k * k), Q(k * k))),
        (twist(2), (4, 2), lambda k: (Q(1, k * k), Q(2 * k * k))),
        (twist(3), (8, 2), lambda k: (Q(1, k * k), Q(2 * k * k))),
    ]
    for f, target, point in runs:
        path = PathSpec.geometric(point, "radial", 20)
        trace = track(f, target, path, tol=CONVERGE_TOL)
        if trace.status != "converged" or not all(d < CONVERGE_TOL for d in trace.diffs[-3:]):
            ok = False
            details.append(f"{target}: {trace.status}")
            continue
        try:
            verified = rationalize_verify(trace, sf_compute(f))
        except Exception as e:  # noqa: BLE001 - report any failure in the line
            ok = False
            details.append(f"{target}: {e}")
            continue
        if verified.outer_degree > f.degree - 1:
            ok = False
            details.append(f"{target}: outer degree {verified.outer_degree}")
    try:
        track(pmap(C2, "x1", "x2"), (0, 0),
              PathSpec.geometric(lambda k: (Q(k), Q(k)), "radial", 10))
        ok = False
        details.append("identity map tracked without error")
    except PreconditionError:
        pass
    record(6, ok, "; ".join(details) or
           "all four traces converge below 1e-8, verify exactly, and bound the outer degree")


def test_criterion_7_decomposition():
    rng = random.Random(20260811)
    ok = True
    details = []
    for i in range(100):
        do = rng.randint(2, 4)
        di = rng.randint(2, 4)
        outer = [Q(rng.randint(-5, 5)) for _ in range(do)] + [Q(rng.choice([1, 2, 3, 4, 5, -1, -2, -3, -4, -5]))]
        inner = [Q(rng.randint(-5, 5)) for _ in range(di)] + [Q(rng.choice([1, 2, 3, 4, 5, -1, -2, -3, -4, -5]))]
        comp = compose_scalar(outer, inner)
        o2, i2 = decompose(comp)
        if compose_scalar(o2, i2) != comp:
            ok = False
            details.append(f"case {i} failed to recompose")
            break
    cur = ParametricCurve.from_coordinates([[0, 0, 1], [0, 0, 1, 0, 1]])
    _, inner = common_inner(cur)
    if inner != [Q(0), Q(0), Q(1)]:
        ok = False
        details.append(f"common inner {inner}")
    record(7, ok, "; ".join(details) or
           "100 seeded composites recomposed exactly; common inner of (t^2, t^4+t^2) is t^2")


def test_criterion_8_real_quadrant():
    Z = Ideal(Y12, [Y12.zero()])
    ineqs = (parse_poly("y1", Y12), parse_poly("y2", Y12))
    cert = certify(Z, ineqs, 2, [(0, 0), (1, 0), (2, 3)], mode="real")
    ok = cert.status == "verified"
    detail = cert.status
    ruling = ParametricCurve.from_coordinates([[1], [0, 0, 1]], "real")
    rep = verify_curve(Z, ineqs, ruling, (1, 0), 2, "real")
    ok = ok and rep.ok
    record(8, ok, detail if not ok else
           "quadrant verified at degree 2; (a, t^2) ruling accepted exactly")


def test_criterion_9_real_covering():
    ok = True
    details = []
    cases = [
        [[0, 0, 1]],
        [[0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1]],
        [[0, 0, 0, 0, 1], [0] * 8 + [1]],
    ]
    for coords in cases:
        phi = ParametricCurve.from_coordinates([list(map(Q, c)) for c in coords], "real")
        eta = cover_image_real(phi)
        outer, _ = common_inner(phi)
        if eta.effective_degree > 2 * outer.effective_degree:
            ok = False
            details.append(f"degree contract broken for {phi}")
        rel_phi = curve_relations(phi)
        rel_eta = curve_relations(eta)
        both = all(
            substitute_curve(g, eta).is_zero()
            for g in rel_phi.canonical_generators() if not g.is_zero()
        ) and all(
            substitute_curve(g, phi).is_zero()
            for g in rel_eta.canonical_generators() if not g.is_zero()
        )
        if not both:
            ok = False
            details.append(f"ideal containment failed for {phi}")
        if not images_mutually_close(phi, eta, n=200, tol=SAMPLING_TOL):
            ok = False
            details.append(f"sampling contract failed for {phi}")
    record(9, ok, "; ".join(details) or
           "degree contract, ideal containment, and 1e-9 mutual sampling on all three curves")


def test_criterion_10_fixed_loci(capsys):
    ok = True
    details = []
    act_ctx2 = Context(("g", "x1", "x2"))
    act_ctxy = Context(("g", "x", "y"))
    shear = one_param_action(C2, "g", [parse_poly("x1", act_ctx2),
                                       parse_poly("x2 + g*x1", act_ctx2)])
    if [str(p) for p in fixed_locus(shear).canonical_generators()] != ["x1"]:
        ok = False
        details.append("shear")
    translation = one_param_action(C2, "g", [parse_poly("x1 + g", act_ctx2),
                                             parse_poly("x2 + g", act_ctx2)])
    if not fixed_locus(translation).is_unit():
        ok = False
        details.append("translation")
    parabolic = one_param_action(CXY, "g", [parse_poly("x + g*y^2", act_ctxy),
                                            parse_poly("y", act_ctxy)])
    if [str(p) for p in fixed_locus(parabolic).canonical_generators()] != ["y^2"]:
        ok = False
        details.append("parabolic")
    import json as _json
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        _json.dump({"format": 1, "vars": ["x", "y"], "action": ["x + g^2", "y"]}, fh)
        bad = fh.name
    code = cli_main(["fixlocus", bad, "--quiet"])
    capsys.readouterr()
    if code != 3:
        ok = False
        details.append(f"non-action exit {code}")
    with capsys.disabled():
        record(10, ok, "; ".join(details) or
               "(x1), unit ideal, (y^2) exactly; non-action rejected with exit 3")


def test_criterion_11_cross_oracle(sf_results):
    ok = True
    details = []
    maps = {name: build() for name, (build, _) in CORPUS_MAPS.items()}
    maps.update({name: build() for name, build in PROPER_CONTROLS.items()})
    for name, f in maps.items():
        sf = sf_results.get(name) or sf_compute(f)
        res = sf_components_resultant(f)
        if len(res) != len(sf.components):
            ok = False
            details.append(f"{name}: component count {len(sf.components)} vs {len(res)}")
            continue
        for c in sf.components:
            matched = any(
                all(vanishes_on(g, d) for g in c.canonical_generators() if not g.is_zero())
                and all(vanishes_on(g, c) for g in d.canonical_generators() if not g.is_zero())
                for d in res
            )
            if not matched:
                ok = False
                details.append(f"{name}: unmatched component")
    record(11, ok, "; ".join(details) or
           "resultant-path and elimination-path sets agree up to radical on all corpus maps")
