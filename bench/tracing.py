"""Span tracing around casim's module boundaries, installed from outside.

The tracer replaces public module attributes with timing wrappers, so
every caller that looks the name up at call time goes through a span.
Names that one module binds from another with ``from ... import`` are
wrapped again in the importing module's namespace; the two validation
hooks (``LocalAlgebra`` and ``Congruence`` ``__post_init__``) are
wrapped on their classes.  Each span records name, start, end and the
index of its parent span; spans stay in memory until ``write`` dumps
them.  Self time is a span's duration minus the time its child spans
cover.  ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import json
import time

MODULES = ("ca_core", "affine_ca", "fp_linalg", "simulation", "cli")

# (module the attribute lives in, attribute, span name); the span name
# names the module that implements the function, not the binding site
WRAPPED = (
    ("ca_core", "enumerate_congruences", "ca_core.enumerate_congruences"),
    ("ca_core", "enumerate_subalgebras", "ca_core.enumerate_subalgebras"),
    ("ca_core", "restrict", "ca_core.restrict"),
    ("ca_core", "quotient", "ca_core.quotient"),
    ("ca_core", "iterative_power", "ca_core.iterative_power"),
    ("ca_core", "product", "ca_core.product"),
    ("ca_core", "are_isomorphic", "ca_core.are_isomorphic"),
    ("ca_core", "algebra_fingerprint", "ca_core.algebra_fingerprint"),
    ("ca_core", "evolve", "ca_core.evolve"),
    ("ca_core", "permutivity", "ca_core.permutivity"),
    ("ca_core.LocalAlgebra", "__post_init__", "ca_core.validate"),
    ("ca_core.Congruence", "__post_init__", "ca_core.validate"),
    ("affine_ca", "fit_affine", "affine_ca.fit_affine"),
    ("affine_ca", "to_table", "affine_ca.to_table"),
    ("affine_ca", "affine_isomorphism", "affine_ca.affine_isomorphism"),
    ("affine_ca", "e0_evolution", "affine_ca.e0_evolution"),
    ("affine_ca", "component_matrices", "affine_ca.component_matrices"),
    ("affine_ca", "check_structure", "affine_ca.check_structure"),
    ("affine_ca", "subalgebra_affine", "affine_ca.subalgebra_affine"),
    ("affine_ca", "quotient_affine", "affine_ca.quotient_affine"),
    ("affine_ca", "nullspace_basis", "fp_linalg.nullspace_basis"),
    ("affine_ca", "solve", "fp_linalg.solve"),
    ("fp_linalg", "common_invariant_subspaces", "fp_linalg.common_invariant_subspaces"),
    ("fp_linalg", "is_simple", "fp_linalg.is_simple"),
    ("fp_linalg", "invariant_closure", "fp_linalg.invariant_closure"),
    ("cli", "common_invariant_subspaces", "fp_linalg.common_invariant_subspaces"),
    ("cli", "is_simple", "fp_linalg.is_simple"),
    ("simulation", "closure_members", "simulation.closure_members"),
    ("simulation", "simulates", "simulation.simulates"),
    ("simulation", "verify_characterization", "simulation.verify_characterization"),
    ("simulation", "verify_affine_closure", "simulation.verify_affine_closure"),
    ("cli", "main", "cli.main"),
)

# per-layer metrics: name -> unit; every one is printed by a traced run
TIMED = (
    "ca_core.enumerate_congruences", "ca_core.enumerate_subalgebras", "ca_core.validate",
    "ca_core.restrict", "ca_core.quotient", "ca_core.iterative_power", "ca_core.product",
    "ca_core.are_isomorphic", "ca_core.algebra_fingerprint", "ca_core.evolve",
    "ca_core.permutivity", "affine_ca.fit_affine", "affine_ca.to_table",
    "affine_ca.affine_isomorphism", "affine_ca.e0_evolution", "affine_ca.component_matrices",
    "affine_ca.check_structure", "affine_ca.subalgebra_affine", "affine_ca.quotient_affine",
    "fp_linalg.common_invariant_subspaces", "fp_linalg.is_simple",
    "simulation.closure_members", "simulation.simulates", "simulation.verify_characterization",
    "simulation.verify_affine_closure", "cli.main",
)
COUNTED = (
    "ca_core.enumerate_congruences", "ca_core.enumerate_subalgebras", "ca_core.validate",
    "ca_core.restrict", "ca_core.quotient", "ca_core.iterative_power", "ca_core.product",
    "ca_core.are_isomorphic", "affine_ca.fit_affine", "fp_linalg.invariant_closure",
    "simulation.closure_members", "cli.main",
)
COUNTERS = {
    "ca_core.congruences_found": "count",
    "ca_core.subalgebras_found": "count",
    "ca_core.table_entries_built": "count",
    "fp_linalg.subspaces_found": "count",
    "cli.bytes_out": "bytes",
}
RATIOS = {
    # metric -> (hit counter, attempt counter)
    "ca_core.are_isomorphic.hit_ratio": ("ca_core.are_isomorphic.hits", "ca_core.are_isomorphic.calls"),
    "affine_ca.fit_affine.hit_ratio": ("affine_ca.fit_affine.hits", "affine_ca.fit_affine.calls"),
    "affine_ca.affine_isomorphism.hit_ratio": ("affine_ca.affine_isomorphism.hits",
                                               "affine_ca.affine_isomorphism.calls"),
    "simulation.inventory_hit_ratio": ("simulation.inventory_hits",
                                       "simulation.closure_members.calls"),
    "simulation.members_per_quotient": ("simulation.fresh_members",
                                        "simulation.closure_quotients"),
}


def metric_units() -> dict[str, str]:
    units = {}
    for name in TIMED:
        units[name + ".s"] = "s"
    for name in COUNTED:
        units[name + ".calls"] = "count"
    units.update(COUNTERS)
    for name in RATIOS:
        units[name] = "ratio"
    for module in MODULES:
        units[module + ".self_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and counters for one pass; install, run, uninstall, report."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._inventories: dict[int, object] = {}  # id -> inventory, kept alive
        self._closure_depth = 0
        self._observe = self._observers()

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- installation -------------------------------------------------------

    def install(self, casim_package) -> None:
        for owner_path, attr, span in WRAPPED:
            owner = casim_package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, span_name: str):
        tracer = self
        spans, stack = self.spans, self.stack
        observe = self._observe.get(span_name)
        in_closure = span_name == "simulation.closure_members"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            if in_closure:
                tracer._closure_depth += 1
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if in_closure:
                    tracer._closure_depth -= 1
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", span_name)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original
        return traced

    def _observers(self) -> dict:
        add = self.add

        def built(args, result):
            if not (args and result is args[0]):  # iterative_power(a, 1) returns a itself
                add("ca_core.table_entries_built", len(result.table))

        def hit(prefix):
            return lambda args, result: add(prefix + ".hits", result is not None)

        def inventory(args, result):
            if id(result) in self._inventories:
                add("simulation.inventory_hits")
            else:
                self._inventories[id(result)] = result
                add("simulation.fresh_members", len(result.members))

        def quotient(args, result):
            if self._closure_depth:
                add("simulation.closure_quotients")

        return {
            "ca_core.enumerate_congruences":
                lambda args, result: add("ca_core.congruences_found", len(result)),
            "ca_core.enumerate_subalgebras":
                lambda args, result: add("ca_core.subalgebras_found", len(result)),
            "ca_core.iterative_power": built,
            "ca_core.product": built,
            "ca_core.quotient": quotient,
            "ca_core.are_isomorphic": hit("ca_core.are_isomorphic"),
            "affine_ca.fit_affine": hit("affine_ca.fit_affine"),
            "affine_ca.affine_isomorphism": hit("affine_ca.affine_isomorphism"),
            "fp_linalg.common_invariant_subspaces":
                lambda args, result: add("fp_linalg.subspaces_found", len(result)),
            "simulation.closure_members": inventory,
        }

    # -- reporting ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass, keyed like ``metric_units``."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = {module: 0.0 for module in MODULES}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            duration = end - start
            total[name] = total.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            self_time[name.split(".", 1)[0]] += duration - child[index]
        out: dict[str, float] = {}
        for name in TIMED:
            out[name + ".s"] = total.get(name, 0.0)
        for name in COUNTED:
            out[name + ".calls"] = calls.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        counts = dict(self.counts)
        for name, value in calls.items():
            counts[name + ".calls"] = value
        for name, (hits, attempts) in RATIOS.items():
            denominator = counts.get(attempts, 0)
            out[name] = counts.get(hits, 0) / denominator if denominator else 0.0
        for module, value in self_time.items():
            out[module + ".self_s"] = value
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str) -> None:
        """Dump the raw spans, one JSON array per line."""
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
