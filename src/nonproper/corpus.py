"""Bundled golden corpus: the example maps with known non-properness
sets, the real quadrant, the additive actions, and proper-map negative
controls.

Every entry carries a problem dict (a valid problem-file body) plus a
battery of named checks with expected values pinned exactly.  The CLI
``examples`` command runs the whole corpus and prints a pass/fail
matrix; the acceptance test suite asserts the same checks individually.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curves import (
    certify,
    fixed_locus,
    is_unbounded,
    verify_curve,
    verify_curve_pointwise,
)
from .errors import PreconditionError
from .groebner import vanishes_on
from .problem import parse_curve, problem_from_dict
from .properness import (
    independent_components,
    is_proper_at,
    sf_compute,
    theorem_bound,
)
from .record import Record
from .tracker import rationalize_verify, track

Q = Fraction


class Check(Record):
    name: str
    ok: bool
    detail: str = ""


class CorpusEntry(Record):
    name: str
    problem: dict
    kind: str  # map | real-domain | action | control

    def load(self):
        raw = json.dumps(self.problem, indent=1).encode()
        return problem_from_dict(self.problem, raw)


def _components_match(sf, expected):
    got = sorted(tuple(gens) for gens in sf.component_strings())
    want = sorted(tuple(gens) for gens in expected)
    return got == want, f"got {got}, want {want}"


def cross_oracle_agree(f, sf):
    """Component-wise radical agreement between sf_compute's set and the
    set of the relation path sf_compute did not take
    (``independent_components``)."""
    other = independent_components(f)
    if len(other) != len(sf.components):
        return False, f"{len(sf.components)} vs {len(other)} components"

    def matches(c, d):
        return (all(vanishes_on(g, d) for g in c.groebner())
                and all(vanishes_on(g, c) for g in d.groebner()))

    for c in sf.components:
        if not any(matches(c, d) for d in other):
            return False, f"unmatched component {[str(g) for g in c.canonical_generators()]}"
    for d in other:
        if not any(matches(c, d) for c in sf.components):
            return False, "the other path has an extra component"
    return True, ""


def _map_entry_checks(entry, expected):
    prob = entry.load()
    f = prob.polymap()
    checks = []
    sf = sf_compute(f)
    ok, detail = _components_match(sf, expected["components"])
    checks.append(Check("sf_components", ok, detail))
    checks.append(Check("generically_finite", True))  # sf_compute raises otherwise
    if expected["components"]:
        checks.append(Check("hypersurface", sf.hypersurface_ok))
        principal = all(len(c.groebner()) == 1 for c in sf.components)
        checks.append(Check("principal_components", principal))
    ok, detail = cross_oracle_agree(f, sf)
    checks.append(Check("cross_oracle", ok, detail))

    for mode, want in expected.get("bounds", {}).items():
        got = theorem_bound(f, mode, d1=prob.d1)
        checks.append(Check(f"bound_{mode}", got == want, f"got {got}, want {want}"))

    if prob.degree:
        comp = sf.components[0]
        cert = certify(comp, (), prob.degree, prob.samples, mode="complex",
                       sharpness=prob.sharpness)
        checks.append(Check("certificate", cert.status == "verified", cert.status))
        if prob.sharpness:
            checks.append(
                Check("sharpness", all(cert.minimality.values()) and bool(cert.minimality))
            )
        sound = all(
            verify_curve_pointwise(comp, c) for c in cert.curves()
        )
        checks.append(Check("certificate_sound", sound))
        bounds = [theorem_bound(f, m, d1=prob.d1) for m in expected.get("bounds", {})]
        if bounds:
            checks.append(
                Check(
                    "certified_degree_within_bounds",
                    all(prob.degree <= b for b in bounds),
                    f"degree {prob.degree} vs bounds {bounds}",
                )
            )

    if prob.paths:
        trace = track(f, prob.targets[0], prob.path_specs()[0])
        checks.append(Check("track_converged", trace.status == "converged", trace.status))
        if trace.status == "converged":
            verified = rationalize_verify(trace, sf)
            checks.append(Check("track_verified", True, str(verified.curve)))
            limit_deg_ok = verified.curve.effective_degree <= f.degree
            checks.append(Check("limit_degree", limit_deg_ok))
            if f.domain_is_affine_space():
                bound = theorem_bound(f, "cn")
                checks.append(
                    Check(
                        "outer_degree_bound",
                        verified.outer_degree <= bound,
                        f"outer {verified.outer_degree} <= {bound}",
                    )
                )
    for pt, want in expected.get("proper_at", []):
        got = is_proper_at(f, pt, sf)
        checks.append(Check(f"proper_at_{'_'.join(map(str, pt))}", got == want))
    return checks


def _control_checks(entry, expected):
    prob = entry.load()
    f = prob.polymap()
    checks = []
    sf = sf_compute(f)
    checks.append(Check("sf_empty", sf.is_empty, str(sf.component_strings())))
    ok, detail = cross_oracle_agree(f, sf)
    checks.append(Check("cross_oracle", ok, detail))
    if expected.get("track_must_fail"):
        path = prob.path_specs()[0]
        try:
            track(f, prob.targets[0], path)
            checks.append(Check("track_precondition", False, "tracking unexpectedly ran"))
        except PreconditionError as e:
            checks.append(Check("track_precondition", True, str(e)[:50]))
    return checks


def _real_domain_checks(entry, expected):
    prob = entry.load()
    variety = prob.domain_ideal()
    ineqs = prob.domain_inequalities
    cert = certify(
        variety, ineqs, prob.degree, prob.samples, mode="real",
        sharpness=False,
    )
    checks = [Check("certificate", cert.status == "verified", cert.status)]
    curves = cert.curves()
    checks.append(Check("curves_unbounded", all(is_unbounded(c) for c in curves)))
    ruling = expected.get("ruling_curve")
    if ruling:
        c = parse_curve(ruling["curve"], "real")
        rep = verify_curve(variety, ineqs, c, ruling["through"], prob.degree, "real")
        checks.append(Check("ruling_verifies", rep.ok, str(rep.as_dict())))
    return checks


def _action_checks(entry, expected):
    prob = entry.load()
    checks = []
    if expected.get("invalid"):
        try:
            prob.one_param_action()
            checks.append(Check("action_rejected", False, "axioms unexpectedly passed"))
        except PreconditionError as e:
            checks.append(Check("action_rejected", True, str(e)[:50]))
        return checks
    action = prob.one_param_action()
    fix = fixed_locus(action)
    got = [str(g) for g in fix.canonical_generators()]
    want = expected["fixed_locus"]
    checks.append(Check("fixed_locus", got == want, f"got {got}, want {want}"))
    return checks


# -- the corpus ----------------------------------------------------------------------


def _entry(name, kind, **problem):
    problem.setdefault("format", 1)
    return CorpusEntry(name=name, problem=problem, kind=kind)


CORPUS = [
    _entry(
        "scaling_n2", "map",
        vars=["x1", "x2"], field="complex",
        map=["x1", "x1*x2"],
        targets=[["0", "1"]],
        paths=[{"kind": "radial", "point": ["1/k^2", "k^2"]}],
        degree=1,
        samples=[["0", "0"], ["0", "1"], ["0", "-2"]],
    ),
    _entry(
        "scaling_n3", "map",
        vars=["x1", "x2", "x3"], field="complex",
        map=["x1", "x1*x2", "x1*x3"],
        targets=[["0", "1", "1"]],
        paths=[{"kind": "radial", "point": ["1/k^2", "k^2", "k^2"]}],
        degree=1,
        samples=[["0", "0", "0"], ["0", "1", "-1"], ["0", "2", "5"]],
    ),
    _entry(
        "graph_twist_d2", "map",
        vars=["x", "y"], field="complex",
        map=["x + (x*y)^2", "x*y"],
        targets=[["4", "2"]],
        paths=[{"kind": "radial", "point": ["1/k^2", "2*k^2"]}],
        degree=2,
        samples=[["0", "0"], ["1", "1"], ["4", "2"]],
        sharpness=True,
    ),
    _entry(
        "graph_twist_d3", "map",
        vars=["x", "y"], field="complex",
        map=["x + (x*y)^3", "x*y"],
        targets=[["8", "2"]],
        paths=[{"kind": "radial", "point": ["1/k^2", "2*k^2"]}],
        degree=3,
        samples=[["0", "0"], ["1", "1"], ["8", "2"]],
        sharpness=True,
    ),
    _entry(
        "hyperbola_projection", "map",
        vars=["x1", "x2", "x3"], field="complex",
        domain_equations=["x1*x2 - 1"],
        map=["x2", "x3"],
        degree=1,
        d1=1,
        samples=[["0", "0"], ["0", "3"], ["0", "-1"]],
    ),
    _entry(
        "quadrant", "real-domain",
        vars=["x", "y"], field="real",
        domain_inequalities=["x", "y"],
        degree=2,
        samples=[["0", "0"], ["1", "0"], ["2", "3"]],
    ),
    _entry(
        "shear_action", "action",
        vars=["x1", "x2"], field="real",
        action=["x1", "x2 + g*x1"],
    ),
    _entry(
        "translation_action", "action",
        vars=["x1", "x2"], field="real",
        action=["x1 + g", "x2 + g"],
    ),
    _entry(
        "parabolic_action", "action",
        vars=["x", "y"], field="real",
        action=["x + g*y^2", "y"],
    ),
    _entry(
        "broken_action", "action",
        vars=["x", "y"], field="real",
        action=["x + g^2", "y"],
    ),
    _entry(
        "identity_control", "control",
        vars=["x1", "x2"], field="complex",
        map=["x1", "x2"],
        targets=[["0", "0"]],
        paths=[{"kind": "radial", "point": ["k", "k"]}],
    ),
    _entry(
        "linear_mix_control", "control",
        vars=["x1", "x2"], field="complex",
        map=["x1 + x2", "x1 - x2"],
    ),
    _entry(
        "odd_cubic_control", "control",
        vars=["x1", "x2"], field="complex",
        map=["x1^3 + x1", "x2"],
    ),
    _entry(
        "component_squares_control", "control",
        vars=["x1", "x2"], field="complex",
        map=["x1^2", "x2^2"],
    ),
]


# expected outcomes only: every input of a check comes from the entry's problem
EXPECTED = {
    "scaling_n2": {
        "components": [["y1"]],
        "bounds": {"cn": 1, "wn": 1},
        "proper_at": [((1, 0), True), ((0, 0), False)],
    },
    "scaling_n3": {"components": [["y1"]], "bounds": {"cn": 1, "wn": 1}},
    "graph_twist_d2": {"components": [["y1 - y2^2"]], "bounds": {"cn": 3, "wn": 2}},
    "graph_twist_d3": {"components": [["y1 - y2^3"]], "bounds": {"cn": 5, "wn": 3}},
    "hyperbola_projection": {"components": [["y1"]], "bounds": {"multc": 1}},
    "quadrant": {
        "ruling_curve": {"curve": ["1", "t^2"], "through": (1, 0)},
    },
    "shear_action": {"fixed_locus": ["x1"]},
    "translation_action": {"fixed_locus": ["1"]},
    "parabolic_action": {"fixed_locus": ["y^2"]},
    "broken_action": {"invalid": True},
    "identity_control": {"track_must_fail": True},
    "linear_mix_control": {},
    "odd_cubic_control": {},
    "component_squares_control": {},
}


def run_entry(entry):
    expected = EXPECTED[entry.name]
    if entry.kind == "map":
        return _map_entry_checks(entry, expected)
    if entry.kind == "control":
        return _control_checks(entry, expected)
    if entry.kind == "real-domain":
        return _real_domain_checks(entry, expected)
    if entry.kind == "action":
        return _action_checks(entry, expected)
    raise ValueError(f"unknown corpus kind {entry.kind}")


def run_corpus(names=None):
    """Run every corpus entry (buffered, in corpus order) and return
    [(entry, [Check, ...])]."""
    out = []
    for entry in CORPUS:
        if names and entry.name not in names:
            continue
        out.append((entry, run_entry(entry)))
    return out
