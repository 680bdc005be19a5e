"""Instrumentation of volpot from outside the library.

Two recorders patch the library's public functions in place, in every
volpot module that holds them (``potentials`` imports the rule factories by
name, ``verify`` imports ``_boundary_integral`` and the potentials, ``cli``
imports ``volume_potential`` ...), so that no call path escapes:

* :class:`EvalTimer` (always on) times each top-level evaluation, the
  outermost call into a public ``volpot.potentials`` function, whoever
  makes it.  Its cost is one clock pair per evaluation.
* :class:`Tracer` (``--trace 1`` only) records a span at every layer
  boundary, with name, start, end, parent and the id of the top-level
  evaluation it belongs to, and counts work where it happens.  Self time of
  a span is its duration minus the time of its child spans.
"""

import functools
import json
import sys
import time

from volpot import (_bessel, cli, config, fundsol, geometry, operators,
                    potentials, presets, schauder, verify)

# Public entry points of volpot.potentials; the outermost call into one of
# them is a top-level evaluation.  ``_boundary_integral`` is private, but
# verify calls it directly, so it is traced as part of the layer.
EVAL_ENTRIES = ("volume_potential", "volume_potential_gradient",
                "volume_potential_hessian", "volume_potential_negative",
                "single_layer", "subtracted_integral_G", "boundary_kernel_K",
                "exterior_field")

RULE_BUILDERS = ("singular_volume_rule", "exterior_chord_rule",
                 "near_exterior_star_rule", "volume_rule", "boundary_rule")
RULE_CACHES = ("cached_volume_rule", "cached_boundary_rule")

# layer -> [(owner, attribute names)]; a module owner is patched wherever
# its functions were imported by name, a class owner in its own dict.
LAYERS = {
    "geometry.rule": [(geometry, RULE_BUILDERS + RULE_CACHES)],
    "geometry.raycast": [(geometry.Domain, ("ray_intervals", "ray_exit",
                                            "distance_to_boundary",
                                            "classify"))],
    "fundsol": [(fundsol.FundamentalSolution,
                 ("eval", "grad", "split_gradient", "k1", "k1_jacobian",
                  "k2_jacobian", "hess"))],
    "bessel": [(_bessel, ("k0", "k1"))],
    "density": [(presets.DensityPreset, ("__call__",))],
    "potentials": [(potentials, EVAL_ENTRIES + ("_boundary_integral",))],
    "verify": [(verify, ("check_pde_identity", "check_transmission",
                         "check_sphere_residue", "check_integration_by_parts",
                         "check_maximal_bound", "check_derivative_recursion",
                         "modulus_experiment", "convergence_study",
                         "check_closed_form_disk", "sphere_residue",
                         "write_reports_csv"))],
    "operators": [(operators, ("apply_operator_fd",))],
    "schauder": [(schauder, ("negative_density", "holder_seminorm",
                             "kernel_class_norm", "integral_functional_I",
                             "extension_pairing_E", "canonical_pairing_J",
                             "omega_theta_eval")),
                 (schauder.Modulus, ("__call__",))],
    "cli": [(cli, ("main", "_load", "_verify_tasks", "_run_eval",
                   "_run_verify", "_run_converge", "_run_modulus")),
            (config, ("parse_config", "load_config", "default_config",
                      "build_operator", "build_fundsol", "build_domain",
                      "build_density"))],
}


def _volpot_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "volpot"
                                  or name.startswith("volpot."))]


def _patch(owner, name, make_wrapper):
    """Replace owner.name by make_wrapper(original) everywhere it is bound."""
    orig = getattr(owner, name)
    wrapper = make_wrapper(orig)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return
    for mod in _volpot_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def clear_rule_caches():
    """Empty the library's lru_caches, as a fresh CLI process has them."""
    for name in RULE_CACHES:
        fn = getattr(geometry, name)
        # a patched attribute is a wrapper around the lru_cache object
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()


class EvalTimer:
    """Latency of every top-level evaluation, in seconds."""

    def __init__(self):
        self.latencies = []
        self._depth = 0

    def install(self):
        for name in EVAL_ENTRIES:
            _patch(potentials, name, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)
                self._depth = 0
        return timed


def _rows(a):
    shape = getattr(a, "shape", None)
    if not shape:
        return 1
    return shape[0] if len(shape) > 1 else 1


def _nbytes(obj):
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


class Tracer:
    """Spans and counts at every layer boundary of one pass."""

    def __init__(self):
        self.spans = []            # (id, parent, eval_id, name, start, end)
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {"rule_builds": 0, "raycast_calls": 0,
                       "kernel_points": 0, "kernel_bytes": 0,
                       "density_points": 0, "potential_calls": 0,
                       "evals": 0, "eval_nodes": 0, "cache_hits": 0,
                       "cache_misses": 0, "checks": 0,
                       "checks_failed": 0, "fd_calls": 0}
        self._stack = []           # [layer, start, child_time, span_id]
        self._eval_id = None

    def install(self):
        for layer, owners in LAYERS.items():
            for owner, names in owners:
                for name in names:
                    _patch(owner, name,
                           functools.partial(self._wrap, layer,
                                             f"{layer}:{name}", name))

    def _wrap(self, layer, span_name, name, fn):
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            opens_eval = (layer == "potentials" and self._eval_id is None
                          and name in EVAL_ENTRIES)
            span_id = len(self.spans)
            if opens_eval:
                self._eval_id = span_id
                counts["evals"] += 1
            self.spans.append(None)
            builds = counts["rule_builds"]
            frame = [layer, time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                self.spans[span_id] = (span_id,
                                       None if parent is None else parent[3],
                                       self._eval_id, span_name, frame[1],
                                       end)
                if opens_eval:
                    self._eval_id = None
            self._count(layer, name, outer, builds, args, result)
            return result
        return traced

    def _count(self, layer, name, outer, builds, args, result):
        c = self.counts
        if layer == "geometry.rule":
            if name in RULE_BUILDERS:
                c["rule_builds"] += 1
            elif c["rule_builds"] == builds:    # nothing built inside
                c["cache_hits"] += 1
            else:
                c["cache_misses"] += 1
            if outer and self._eval_id is not None:
                c["eval_nodes"] += len(result.nodes)
        elif layer == "geometry.raycast":
            c["raycast_calls"] += 1
        elif layer == "fundsol" and outer:
            c["kernel_points"] += _rows(args[1])
            c["kernel_bytes"] += _nbytes(args[1]) + _nbytes(result)
        elif layer == "density" and outer:
            c["density_points"] += _rows(args[1])
        elif layer == "potentials":
            c["potential_calls"] += 1
        elif layer == "verify" and name != "write_reports_csv" and outer:
            if isinstance(result, verify.VerificationReport):
                c["checks"] += 1
                c["checks_failed"] += not result.passed
        elif layer == "operators":
            c["fd_calls"] += 1

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


    def layer_metrics(self, wall_s):
        """Per-layer metrics of the traced pass that took wall_s seconds."""
        s, c = self.self_s, self.counts

        def per(num, den):
            return num / den if den else 0.0

        evals = c["evals"]
        return {
            "geometry.rule_s": s["geometry.rule"],
            "geometry.rule_calls": c["rule_builds"],
            "geometry.rules_per_eval": per(c["rule_builds"], evals),
            "geometry.rule_cache_hit_ratio": per(
                c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
            "geometry.nodes_per_eval": per(c["eval_nodes"], evals),
            "geometry.raycast_s": s["geometry.raycast"],
            "geometry.raycast_calls": c["raycast_calls"],
            "fundsol.kernel_s": s["fundsol"],
            "fundsol.points": c["kernel_points"],
            "fundsol.ns_per_point": per(1e9 * s["fundsol"],
                                        c["kernel_points"]),
            "fundsol.bytes_computed": c["kernel_bytes"],
            "fundsol.bessel_s": s["bessel"],
            "density.s": s["density"],
            "density.points": c["density_points"],
            "potentials.self_s": s["potentials"],
            "potentials.evals": evals,
            "potentials.calls_per_eval": per(c["potential_calls"], evals),
            "verify.self_s": s["verify"],
            "verify.checks": c["checks"],
            "verify.checks_failed": c["checks_failed"],
            "operators.fd_s": s["operators"],
            "operators.fd_calls": c["fd_calls"],
            "schauder.s": s["schauder"],
            "cli.self_s": s["cli"],
            "trace.coverage": per(sum(s.values()), wall_s),
        }
