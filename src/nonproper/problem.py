"""Problem files and reports.

A problem file is a JSON document (``format: 1``) naming the variables,
the field mode, the domain constraints, and whichever of map / action /
curve / targets / paths / samples the requested command needs.  Reports
are JSON documents with stable keys {format, command, input_digest,
result, checks, timings}; all polynomials are canonical strings that
parse back to identical values.  Both formats are documented in
docs/formats.md with JSON schemas in docs/.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .curves import OneParamAction, ParametricCurve
from .errors import ParseError, PreconditionError
from .groebner import Ideal
from .mpoly import Context
from .orders import GREVLEX, LEX
from .parser import NAME, parse_poly, path_expression
from .properness import PolyMap
from .record import Record
from .tracker import PathSpec

FORMAT_VERSION = 1
# kmax sets the schedule k = 2^1 .. 2^kmax, in the file and in --kmax: the
# convergence test needs 4 indices, and the cap bounds the size of the
# exact image curves, whose coefficients grow with k
KMAX_RANGE = (4, 40)


def parse_rational(text):
    """Rational scalar from text like '3', '-4/7'."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational literal {text!r}: {e}") from None


def parse_point(values):
    return tuple(parse_rational(v) for v in values)


def format_rational(q):
    return str(Fraction(q))


def path_from_spec(spec, kmax):
    """PathSpec from a path object checked at load time:
    {'kind': ..., 'point': [exprs in k]}."""
    kind = spec.get("kind", "radial")
    coords = [path_expression(e) for e in spec["point"]]

    def point_fn(k):
        return tuple(c(k) for c in coords)

    return PathSpec.geometric(point_fn, kind, kmax)


# -- problem files ----------------------------------------------------------------


def parse_curve(texts, mode):
    """ParametricCurve from its coordinate polynomials in t, as text."""
    tctx = Context(("t",), GREVLEX)
    coords = []
    for text in texts:
        p = parse_poly(text, tctx)
        cs = [Fraction(0)] * (p.degree_in("t") + 1)
        for mono, c in p.terms.items():
            cs[mono[0]] = c
        coords.append(cs)
    return ParametricCurve.from_coordinates(coords, mode)


class Problem(Record):
    """A problem file parsed once: polynomials over ``ctx``, points of
    Fractions, and the raw bytes for digesting.  The action, curve and path
    texts stay text, so only the commands that use them check them."""

    ctx: Context
    mode: str
    domain_equations: tuple  # MPoly
    domain_inequalities: tuple  # MPoly
    map_components: tuple  # MPoly, may be empty
    action: tuple  # text, may be empty
    action_param: str
    curve: tuple  # text, may be empty
    targets: tuple  # points
    paths: tuple  # raw dicts
    degree: int | None
    d1: int | None
    samples: tuple  # points
    sharpness: bool
    kmax: int
    raw: bytes = b""

    def digest(self):
        return "sha256:" + hashlib.sha256(self.raw).hexdigest()

    # -- builders ---------------------------------------------------------

    def domain_ideal(self):
        return Ideal(self.ctx, self.domain_equations)

    def polymap(self):
        if not self.map_components:
            raise PreconditionError("this command needs a 'map' in the problem file")
        return PolyMap(self.ctx, self.map_components, domain=self.domain_ideal(), mode=self.mode)

    def one_param_action(self):
        if not self.action:
            raise PreconditionError("this command needs an 'action' in the problem file")
        act_ctx = Context((self.action_param,) + self.ctx.names, GREVLEX)
        comps = tuple(parse_poly(t, act_ctx) for t in self.action)
        return OneParamAction(self.ctx, self.action_param, comps, self.domain_ideal())

    def curve_object(self):
        if not self.curve:
            raise PreconditionError("this command needs a 'curve' in the problem file")
        return parse_curve(self.curve, self.mode)

    def path_specs(self, kmax=None):
        """The paths on the schedule 2^1 .. 2^kmax, the file's kmax unless
        given."""
        return tuple(path_from_spec(p, kmax or self.kmax) for p in self.paths)

    def sample_points(self):
        return self.samples


_ALLOWED_KEYS = {
    "format", "vars", "field", "domain_equations", "domain_inequalities",
    "map", "action", "action_param", "curve", "targets", "paths", "degree",
    "d1", "samples", "sharpness", "kmax",
}


def _strings(data, key):
    """The list of strings under key, as a tuple (empty when absent)."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ParseError(f"{key!r} must be a list of strings")
    return tuple(value)


def _points(data, key):
    """The list of points under key, each a list of rational strings."""
    value = data.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(p, list) and all(isinstance(c, str) for c in p) for p in value
    ):
        raise ParseError(f"{key!r} must be a list of points, each a list of strings")
    return value


def _integer(data, key, default, lo, hi=None):
    """The integer under key, in [lo, hi]; default when absent."""
    if key not in data:
        return default
    value = data[key]
    if (not isinstance(value, int) or isinstance(value, bool) or value < lo
            or (hi is not None and value > hi)):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise ParseError(f"{key!r} must be an integer {bound}")
    return value


def _boolean(data, key):
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"{key!r} must be true or false")
    return value


def _paths(data):
    """The path specs: objects with a nonempty 'point' list of strings and
    an optional 'kind' of 'radial' or 'cylinder'."""
    value = data.get("paths", [])
    if not isinstance(value, list) or not all(
        isinstance(p, dict) and set(p) <= {"kind", "point"}
        and p.get("kind", "radial") in ("radial", "cylinder")
        and isinstance(p.get("point"), list) and p["point"]
        and all(isinstance(e, str) for e in p["point"])
        for p in value
    ):
        raise ParseError("'paths' must be a list of objects {'kind': 'radial' or "
                         "'cylinder', 'point': a nonempty list of strings}")
    return tuple(value)


def _check_lengths(key, points, n, per):
    """Each point under key has n coordinates, one per variable or map
    component."""
    for p in points:
        if len(p) != n:
            raise ParseError(f"{key!r} point {p!r} has {len(p)} coordinates; "
                             f"expected {n}, one per {per}")


def _action_param(data, vars_):
    name = data.get("action_param", "g")
    if not isinstance(name, str) or not NAME.fullmatch(name):
        raise ParseError("'action_param' must be a variable name")
    if data.get("action") and name in vars_:
        raise ParseError(f"'action_param' {name!r} must differ from the variables")
    return name


def problem_from_dict(data, raw=b""):
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ParseError(f"unknown problem keys: {sorted(unknown)}")
    if data.get("format") != FORMAT_VERSION:
        raise ParseError(f"unsupported problem format {data.get('format')!r}; expected {FORMAT_VERSION}")
    vars_ = data.get("vars")
    if (not isinstance(vars_, list) or not vars_
            or not all(isinstance(v, str) and NAME.fullmatch(v) for v in vars_)
            or len(set(vars_)) != len(vars_)):
        raise ParseError("'vars' must be a nonempty list of distinct names")
    mode = data.get("field", "complex")
    if mode not in ("complex", "real"):
        raise ParseError("'field' must be 'complex' or 'real'")
    ineqs = _strings(data, "domain_inequalities")
    if ineqs and mode != "real":
        raise ParseError("domain inequalities are only allowed with field = 'real'")
    # every shape check comes before the first parse, so a file with both
    # kinds of fault reports the shape fault
    eqs, comps = _strings(data, "domain_equations"), _strings(data, "map")
    action, action_param = _strings(data, "action"), _action_param(data, vars_)
    curve, targets, paths = _strings(data, "curve"), _points(data, "targets"), _paths(data)
    degree, d1 = _integer(data, "degree", None, 1), _integer(data, "d1", None, 0)
    samples = _points(data, "samples")
    sharpness, kmax = _boolean(data, "sharpness"), _integer(data, "kmax", 20, *KMAX_RANGE)
    if comps:
        _check_lengths("targets", targets, len(comps), "map component")
        _check_lengths("samples", samples, len(comps), "map component")
    else:
        _check_lengths("samples", samples, len(vars_), "variable")
    _check_lengths("paths", [p["point"] for p in paths], len(vars_), "variable")
    ctx = Context(tuple(vars_), GREVLEX)
    return Problem(
        ctx=ctx,
        mode=mode,
        domain_equations=tuple(parse_poly(t, ctx) for t in eqs),
        domain_inequalities=tuple(parse_poly(t, ctx) for t in ineqs),
        map_components=tuple(parse_poly(t, ctx) for t in comps),
        action=action,
        action_param=action_param,
        curve=curve,
        targets=tuple(map(parse_point, targets)),
        paths=paths,
        degree=degree,
        d1=d1,
        samples=tuple(map(parse_point, samples)),
        sharpness=sharpness,
        kmax=kmax,
        raw=raw,
    )


def load_problem(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in {path}: {e}") from None
    return problem_from_dict(data, raw)


# -- reports ------------------------------------------------------------------------


def render_ideal(ideal, order_tag="lex"):
    """Canonical generator strings of an ideal under the requested print
    order."""
    order = LEX if order_tag == "lex" else GREVLEX
    ctx = ideal.ctx.with_order(order)
    out = []
    for g in ideal.canonical_generators():
        out.append(str(g.rebase(ctx).canonical()) if not g.is_zero() else "0")
    return out


def render_curve(curve):
    return {
        "coordinates": [curve.coordinate_str(i) for i in range(curve.m)],
        "coefficients": [[format_rational(c) for c in vec] for vec in curve.coeffs],
        "effective_degree": curve.effective_degree,
        "mode": curve.mode,
    }


def make_report(command, digest, result, checks, timings):
    return {
        "format": FORMAT_VERSION,
        "command": command,
        "input_digest": digest,
        "result": result,
        "checks": [
            {"name": n, "ok": bool(ok), "detail": str(detail)} for n, ok, detail in checks
        ],
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
