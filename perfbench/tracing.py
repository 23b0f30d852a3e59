"""Outside-in tracing of the nonproper layers for the traced benchmark run.

``Tracer.install`` wraps the public functions of each layer.  ``from .x
import y`` copies a function into the importing module, so every binding of
the original in a loaded ``nonproper`` module is replaced, not only the one
in the defining module (``curves.buchberger``, ``properness.squarefree_part``
and ``cli.sf_compute`` are separate names for the same function).
``uninstall`` puts every original back.

Each wrapped call records a span (name, start, end, parent span, job id) in
memory.  Recursive ``mpoly_gcd`` calls are not spans, only the outermost
call is.  ``Ideal.groebner`` is counted, not timed, to get the basis-cache
hit ratio.  Return values that per-layer ratios need are kept until the job
ends and folded in by ``end_job``, outside the job's timed region.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, function); several functions may share a span name
SPANS = (
    ("cli.main", "cli", "main"),
    ("problem.load_problem", "problem", "load_problem"),
    ("problem.render", "problem", "render_ideal"),
    ("problem.render", "problem", "render_curve"),
    ("problem.render", "problem", "make_report"),
    ("parser.parse_poly", "parser", "parse_poly"),
    ("properness.sf_compute", "properness", "sf_compute"),
    ("groebner.buchberger", "groebner", "buchberger"),
    ("groebner.eliminate", "groebner", "eliminate"),
    ("groebner.vanishes_on", "groebner", "vanishes_on"),
    ("groebner.dimension", "groebner", "dimension"),
    ("mpoly.mpoly_gcd", "mpoly", "mpoly_gcd"),
    ("mpoly.squarefree", "mpoly", "squarefree_part"),
    ("mpoly.squarefree", "mpoly", "squarefree_full"),
    ("curves.ansatz_system", "curves", "ansatz_system"),
    ("curves.find_curve", "curves", "find_curve"),
    ("curves.no_smaller_curve", "curves", "no_smaller_curve"),
    ("curves.verify_curve", "curves", "verify_curve"),
    ("curves.certify", "curves", "certify"),
    ("curves.common_inner", "curves", "common_inner"),
    ("tracker.track", "tracker", "track"),
    ("tracker.image_curve", "tracker", "image_curve"),
    ("tracker.unit_normalize", "tracker", "unit_normalize"),
    ("tracker.rationalize_verify", "tracker", "rationalize_verify"),
)
OUTERMOST_ONLY = {"mpoly.mpoly_gcd"}
# spans whose return values end_job reads
KEEP_RESULTS = {"groebner.buchberger", "groebner.vanishes_on", "mpoly.squarefree",
                "curves.ansatz_system", "curves.find_curve", "curves.no_smaller_curve",
                "tracker.track"}
LAYERS = ("cli", "problem", "parser", "properness", "groebner", "mpoly", "curves", "tracker")


def _coeff_bits(polys):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self._stack = []
        self._depth = Counter()
        self._job = None
        self._first = 0  # index of the current job's first span
        self._kept = []  # (span name, args, result) until the job ends
        self._patched = []  # (namespace, attribute, original)
        self.calls = Counter()
        self.stats = Counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, depth, calls, kept = (
            self.spans, self._stack, self._depth, self.calls, self._kept)
        outermost_only = name in OUTERMOST_ONLY
        keep = name in KEEP_RESULTS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost_only and depth[name]:
                return fn(*args, **kwargs)
            calls[name] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._job]
            stack.append(len(spans))
            spans.append(rec)
            depth[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if keep:
                kept.append((name, args, out))
            return out

        return traced

    def install(self):
        pkg = [m for n, m in sys.modules.items() if n == "nonproper" or n.startswith("nonproper.")]
        for name, modname, attr in SPANS:
            orig = getattr(importlib.import_module(f"nonproper.{modname}"), attr)
            wrapper = self._wrap(name, orig)
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        ideal = importlib.import_module("nonproper.groebner").Ideal
        orig_groebner = ideal.groebner
        calls = self.calls

        def counted_groebner(this, order=None):
            before = calls["groebner.buchberger"]
            out = orig_groebner(this, order)
            calls["groebner.basis"] += 1
            calls["groebner.basis_hit"] += calls["groebner.buchberger"] == before
            return out

        self._patched.append((ideal, "groebner", orig_groebner))
        ideal.groebner = counted_groebner

    def uninstall(self):
        for ns, key, orig in reversed(self._patched):
            setattr(ns, key, orig)
        self._patched.clear()

    # -- jobs ----------------------------------------------------------------------

    def begin_job(self, job_id):
        self._job = job_id
        self._first = len(self.spans)

    def end_job(self):
        """Fold kept return values into the counters; return the sum of the
        job's span self times (never more than its wall time)."""
        st = self.stats
        for name, args, out in self._kept:
            if name == "groebner.buchberger":
                st["basis_len"] += len(out)
                st["max_coeff_bits"] = max(st["max_coeff_bits"], _coeff_bits(out))
            elif name == "groebner.vanishes_on":
                st["vanishes_true"] += out is True
            elif name == "mpoly.squarefree":
                st["squarefree_changed"] += out != args[0].canonical()
                st["max_coeff_bits"] = max(st["max_coeff_bits"], _coeff_bits([out]))
            elif name == "curves.ansatz_system":
                st["ansatz_unknowns"] = max(st["ansatz_unknowns"], len(out.bctx.names))
            elif name == "curves.find_curve":
                st["curves_found"] += out is not None
            elif name == "curves.no_smaller_curve":
                st["proved"] += out is True
            elif name == "tracker.track":
                st["track_steps"] += len(out.steps)
                st["track_in_regime"] += sum(1 for s in out.steps if s.in_regime)
                st["track_converged"] += out.status == "converged"
        self._kept.clear()
        self._job = None
        return sum(self._self_times(self.spans[self._first:], self._first))

    # -- summary ---------------------------------------------------------------------

    @staticmethod
    def _self_times(spans, offset=0):
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= offset:
                own[parent - offset] -= end - start
        return own

    def write_spans(self, path):
        """All spans as JSON rows [name, start, end, parent index, job id]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def summary(self):
        """Per-layer metrics over everything traced: ``<span>.self_s`` and
        ``<span>.calls`` for every span name, ``layer.<layer>.self_s``, and
        the ratios and sizes listed in run.PER_LAYER."""
        self_s = defaultdict(float)
        for (name, *_), own in zip(self.spans, self._self_times(self.spans)):
            self_s[name] += own
        out = {}
        for name in dict.fromkeys(n for n, _, _ in SPANS):
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items()
                                               if k.split(".")[0] == layer)
        c, st = self.calls, self.stats

        def ratio(num, den):
            return num / den if den else 0.0

        out.update({
            "groebner.buchberger.basis_len": st["basis_len"],
            "groebner.vanishes_on.true_ratio": ratio(st["vanishes_true"], c["groebner.vanishes_on"]),
            "groebner.basis_cache_hit_ratio": ratio(c["groebner.basis_hit"], c["groebner.basis"]),
            "mpoly.squarefree.changed_ratio": ratio(st["squarefree_changed"], c["mpoly.squarefree"]),
            "mpoly.max_coeff_bits": st["max_coeff_bits"],
            "curves.ansatz_system.unknowns": st["ansatz_unknowns"],
            "curves.find_curve.found_ratio": ratio(st["curves_found"], c["curves.find_curve"]),
            "curves.no_smaller_curve.proved_ratio": ratio(st["proved"], c["curves.no_smaller_curve"]),
            "tracker.in_regime_ratio": ratio(st["track_in_regime"], st["track_steps"]),
            "tracker.converged_ratio": ratio(st["track_converged"], c["tracker.track"]),
        })
        return out
