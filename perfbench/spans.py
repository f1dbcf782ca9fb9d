"""Spans around the library's public names, from outside the library.

``Tracer.install()`` replaces each name listed in ``BINDINGS`` in the
module namespace where callers look it up (``spectra.alpha_roots`` is
bound in ``spectra``, ``fixtures`` and ``cli`` alike) with a wrapper that
records one span per call: name, start, end, parent span and op id.
Spans live in flat arrays in memory; ``layer_metrics()`` turns them into
the per-layer metrics after the pass.  A layer's self time is the sum,
over its spans, of the span minus the time covered by its child spans.
Time the speed sampler (``speed.py``) spends inside a span is taken out
of it, and every span is scaled to the reference speed by its op's
factor.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

# (module, attribute path, span name).  The span name's first dotted part
# is its layer.  Names missing from the library are skipped, and every
# metric that depends on them then reads 0.
BINDINGS = [
    ("core", "is_hypertree", "core.is_hypertree"),
    ("subtrees", "is_hypertree", "core.is_hypertree"),
    ("spectra", "is_hypertree", "core.is_hypertree"),
    ("matching", "is_hyperforest", "core.is_hyperforest"),
    ("kernels", "connected_subset_masks", "kernels.connected_subset_masks"),
    ("subtrees", "connected_edge_subsets", "subtrees.connected_edge_subsets"),
    ("subtrees", "distinct_matching_polynomials", "subtrees.distinct_matching_polynomials"),
    ("spectra", "distinct_matching_polynomials", "subtrees.distinct_matching_polynomials"),
    ("fixtures", "distinct_matching_polynomials", "subtrees.distinct_matching_polynomials"),
    ("matching", "MatchingDP.counts", "matching.MatchingDP.counts"),
    ("matching", "matching_polynomial", "matching.matching_polynomial"),
    ("matching", "matching_counts_tree", "matching.matching_counts_tree"),
    ("spectra", "matching_polynomial", "matching.matching_polynomial"),
    ("fixtures", "poly_mul", "matching.poly_mul"),
    ("fixtures", "poly_pow", "matching.poly_pow"),
    ("fixtures", "poly_divmod", "matching.poly_divmod"),
    ("_ratpoly", "gcd", "ratpoly.gcd"),
    ("_ratpoly", "rem", "ratpoly.rem"),
    ("_ratpoly", "div_exact", "ratpoly.div_exact"),
    ("spectra", "squarefree_decomposition", "spectra.squarefree_decomposition"),
    ("spectra", "alpha_roots", "spectra.alpha_roots"),
    ("fixtures", "alpha_roots", "spectra.alpha_roots"),
    ("spectra", "lift_to_x", "spectra.lift_to_x"),
    ("spectra", "set_spectrum", "spectra.set_spectrum"),
    ("fixtures", "set_spectrum", "spectra.set_spectrum"),
    ("spectra", "is_cyclotomic_spectrum", "spectra.is_cyclotomic_spectrum"),
    ("spectra", "SpectrumSet.contains", "spectra.contains"),
    ("spectra", "SpectrumSet.rotation_symmetric", "spectra.rotation_symmetric"),
    ("spectra", "spectral_radius", "spectra.spectral_radius"),
    ("spectra", "find_totally_nonzero_eigenvector", "spectra.find_totally_nonzero_eigenvector"),
    ("spectra", "_newton_eigenvector", "spectra.newton_eigenvector"),
    ("fixtures", "_expanded", "fixtures.expand"),
    ("fixtures", "spectrum_crosscheck", "fixtures.spectrum_crosscheck"),
    ("fixtures", "divisibility_probe", "fixtures.divisibility_probe"),
    ("fixtures", "degree_check", "fixtures.degree_check"),
    ("fixtures", "hypergraph", "fixtures.hypergraph"),
    ("cli", "main", "cli.main"),
]

# Counts taken from return values: span name -> size of the result.
_RESULT_SIZES = {
    "subtrees.connected_edge_subsets": len,
    "subtrees.distinct_matching_polynomials": lambda c: len(c.polys),
    "spectra.lift_to_x": len,
    "spectra.set_spectrum": lambda s: len(s.values),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stolen = array("d")
        self.sizes: dict[str, int] = {}
        self.current_op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        size_of = _RESULT_SIZES.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.stolen.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if size_of is not None:
                self.sizes[name] = self.sizes.get(name, 0) + size_of(result)
            return result

        return traced

    def steal(self, seconds: float) -> None:
        """Charge time spent outside the library to the innermost span."""
        if self._stack[-1] >= 0:
            self.stolen[self._stack[-1]] += seconds

    def install(self) -> None:
        for mod_name, path, span_name in BINDINGS:
            owner = importlib.import_module(f"htspec.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reduction -------------------------------------------------------------

    def _totals(self, scales):
        """Per span name: inclusive time of non-nested spans, self time,
        call count; times scaled by ``scales[op id]``."""
        n = len(self.start)
        stolen = list(self.stolen)
        for i in reversed(range(n)):  # a child span comes after its parent
            if self.parent[i] >= 0:
                stolen[self.parent[i]] += stolen[i]
        span = [(self.end[i] - self.start[i] - stolen[i]) * scales[self.op[i]] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += span[i]
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        calls: dict[str, int] = {}
        newton_parents = set()
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = span[i]
            p = self.parent[i]
            if p < 0 or self.name_id[p] != self.name_id[i]:
                incl[name] = incl.get(name, 0.0) + dur
            self_t[name] = self_t.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "spectra.newton_eigenvector" and p >= 0:
                newton_parents.add(p)
        return incl, self_t, calls, len(newton_parents)

    def layer_metrics(self, scales) -> dict[str, float]:
        """``scales[j]``: the reference-speed factor of op record j."""
        incl, self_t, calls, newton = self._totals(scales)

        def layer_self(layer):
            return sum(t for name, t in self_t.items() if name.split(".", 1)[0] == layer)

        subsets = self.sizes.get("subtrees.connected_edge_subsets", 0)
        distinct = self.sizes.get("subtrees.distinct_matching_polynomials", 0)
        lifts = self.sizes.get("spectra.lift_to_x", 0)
        values = self.sizes.get("spectra.set_spectrum", 0)
        spectra_built = calls.get("spectra.set_spectrum", 0)
        eig_calls = calls.get("spectra.find_totally_nonzero_eigenvector", 0)
        roots_s = incl.get("spectra.alpha_roots", 0.0)
        squarefree_s = incl.get("spectra.squarefree_decomposition", 0.0)
        return {
            "kernels.enum_s": incl.get("kernels.connected_subset_masks", 0.0),
            "subtrees.subsets": subsets,
            "subtrees.catalog_s": layer_self("subtrees"),
            "subtrees.distinct_polys": distinct,
            "subtrees.poly_share": distinct / subsets if subsets else 0.0,
            "matching.dp_s": self_t.get("matching.MatchingDP.counts", 0.0),
            "matching.dp_calls": calls.get("matching.MatchingDP.counts", 0),
            "core.validate_s": layer_self("core"),
            "spectra.roots_s": roots_s,
            "spectra.roots_calls": calls.get("spectra.alpha_roots", 0),
            "spectra.squarefree_s": squarefree_s,
            "spectra.refine_s": roots_s - squarefree_s,
            "ratpoly.s": layer_self("ratpoly"),
            "spectra.assemble_s": self_t.get("spectra.set_spectrum", 0.0),
            "spectra.lifts": lifts,
            "spectra.values": values,
            # the value 0 is seeded, not kept from a lift
            "spectra.keep_frac": (values - spectra_built) / lifts if lifts else 0.0,
            "spectra.query_s": self_t.get("spectra.contains", 0.0)
            + self_t.get("spectra.rotation_symmetric", 0.0),
            "spectra.radius_s": incl.get("spectra.spectral_radius", 0.0),
            "spectra.eigvec_s": incl.get("spectra.find_totally_nonzero_eigenvector", 0.0),
            "spectra.newton_frac": newton / eig_calls if eig_calls else 0.0,
            "fixtures.expand_s": incl.get("fixtures.expand", 0.0),
            "fixtures.divide_s": incl.get("matching.poly_divmod", 0.0),
            "fixtures.divisions": calls.get("matching.poly_divmod", 0),
            "fixtures.crosscheck_s": incl.get("fixtures.spectrum_crosscheck", 0.0),
            "cli.s": self_t.get("cli.main", 0.0),
        }
