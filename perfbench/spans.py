"""In-memory span recorder wrapped around chaoscalc's public functions.

The tracer never edits the package source. It replaces public functions and
class methods with timing wrappers while installed, and puts the originals
back on uninstall. Because several modules bind names with
``from .operators import ...``, every ``chaoscalc.*`` namespace that holds an
original gets the wrapper, not only the defining module.

Each call becomes a span: name, layer (the defining module), start, end,
parent span and request id. Per-name aggregates (calls, inclusive seconds,
self seconds) cover every span; the individual span records are kept up to
a cap per name, since hot kernels run a million times in one request. A
span's self time is its duration minus the time of its direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = (
    "basis",
    "weights",
    "functionals",
    "operators",
    "martingale",
    "qms",
    "verifier",
    "reports",
    "cli",
)

# Names whose outermost spans are summed into a group time.
GROUP_OF = {
    "operators.materialize": "materialize",
    "operators.materialize_apply": "materialize",
    "martingale.exact_gram": "exact_gram",
    "martingale.monte_carlo_gram": "mc_gram",
    "martingale.conditional_moments": "moments",
    "qms.generator_apply": "generator_apply",
    "qms.dissipator_apply": "dissipator",
}

# Constructors and operators of the package's value classes count as work of
# the class's module; other dunders (hash, eq, repr, iter) are left alone.
_WRAPPED_DUNDERS = (
    "__add__",
    "__sub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__matmul__",
    "__call__",
)

SPAN_CAP_PER_NAME = 200


def _is_wrappable_function(obj) -> bool:
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    # functools.lru_cache wrappers (qms.transfer_matrix) are callables too.
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")


class Tracer:
    """Records spans while installed; compute metrics after uninstall."""

    def __init__(self):
        self.stats: dict = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list = []  # (id, parent, request, name, start, end)
        self.group_s: dict = {}
        self.group_depth: dict = {}
        self.request = None
        self.qms_n: set = set()
        self.applied: set = set()  # (n, weight entries) already applied
        self.first_apply_s = 0.0
        self.repeat_apply_s = 0.0
        self.jump_terms_applied = 0
        self.coeffs_in = 0
        self._stack: list = []  # frames [span_id, child_s]
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original)
        self._origin = 0.0

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str):
        """`fn` recording a span named `name` on every call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        group = GROUP_OF.get(name)
        group_s, group_depth = self.group_s, self.group_depth
        if group is not None:
            group_s.setdefault(group, 0.0)
            group_depth.setdefault(group, 0)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter
        before, observe = self._observers(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            if group is not None:
                group_depth[group] += 1
            if before is not None:
                before(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if group is not None:
                    group_depth[group] -= 1
                    if group_depth[group] == 0:
                        group_s[group] += duration
                if stats[0] <= SPAN_CAP_PER_NAME:
                    spans.append(
                        (span_id, parent, tracer.request, name, start - tracer._origin,
                         end - tracer._origin)
                    )
            if observe is not None:
                observe(args, kwargs, duration)
            return result

        return wrapper

    def _observers(self, name: str):
        """(before, after) hooks recording what only the arguments show."""
        before = after = None
        if name == "functionals.Functional.__post_init__":
            def before(args, kwargs):
                self.coeffs_in += len(args[0].coeffs)
        elif name in ("qms.check_sum_identity", "qms.check_generator_structure"):
            def after(args, kwargs, duration):
                self.qms_n.add(int(kwargs["n"] if "n" in kwargs else args[1]))
        elif name == "qms.generator_apply":
            def after(args, kwargs, duration):
                # The first apply of a weight at a size, whether or not the
                # package reuses anything for the applies after it.
                spec = kwargs["spec"] if "spec" in kwargs else args[0]
                key = (spec.truncation, tuple(sorted(spec.weight.entries.items())))
                if key in self.applied:
                    self.repeat_apply_s += duration
                else:
                    self.applied.add(key)
                    self.first_apply_s += duration
        elif name == "qms.dissipator_apply":
            def after(args, kwargs, duration):
                weight = kwargs["w"] if "w" in kwargs else args[0]
                self.jump_terms_applied += len(weight.entries)
        return before, after

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._origin = time.perf_counter()
        modules = {
            short: sys.modules[f"chaoscalc.{short}"]
            for short in LAYERS
            if f"chaoscalc.{short}" in sys.modules
        }
        missing = set(LAYERS) - set(modules)
        if missing:
            raise RuntimeError(f"chaoscalc modules not imported: {sorted(missing)}")
        namespaces = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "chaoscalc" or key.startswith("chaoscalc."))
        ]
        replacements = {}  # id(original) -> wrapper
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{attr}")
                elif _is_wrappable_function(obj):
                    replacements[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])

    def _wrap_class(self, cls, name: str) -> None:
        # One constructor span per instance: __post_init__ where a dataclass
        # has one, else __init__.
        constructor = "__post_init__" if "__post_init__" in vars(cls) else "__init__"
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS + (constructor,):
                continue
            if isinstance(raw, classmethod):
                fn = raw.__func__
                if not _is_wrappable_function(fn):
                    continue
                wrapped = classmethod(self.wrap(fn, f"{name}.{attr}"))
            elif _is_wrappable_function(raw):
                wrapped = self.wrap(raw, f"{name}.{attr}")
            else:
                continue  # properties, staticmethods, constants
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(name, (0, 0.0, 0.0))[0] for name in names)

    def calls_matching(self, layer: str, predicate) -> int:
        return sum(
            calls
            for name, (calls, _, _) in self.stats.items()
            if name.startswith(layer + ".") and predicate(name[len(layer) + 1:])
        )

    def dump(self, path, extra: dict) -> None:
        """Write every recorded span, the per-name aggregates and `extra`
        as JSON."""
        payload = {
            "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
            "span_cap_per_name": SPAN_CAP_PER_NAME,
            "spans": self.spans,
            "aggregates": {
                name: {"calls": c, "inclusive_s": inc, "self_s": own}
                for name, (c, inc, own) in sorted(self.stats.items())
            },
            "groups_s": dict(sorted(self.group_s.items())),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def verify_figures(payloads: list) -> tuple:
    """(seconds per family, reports, controls, controls caught) summed over
    the verify payloads among `payloads`, from what the CLI wrote."""
    family_s = dict.fromkeys(sys.modules["chaoscalc"].FAMILY_NAMES, 0.0)
    reports = controls = caught = 0
    for payload in payloads:
        if not payload or "checks" not in payload:
            continue
        # run_all labels a family's second and later plans "family#i".
        for label, seconds in payload["timing"]["seconds"].items():
            family_s[label.split("#", 1)[0]] += seconds
        reports += len(payload["checks"])
        controls += payload["counts"]["negative_controls"]
        caught += sum(1 for r in payload["checks"] if r["kind"] == "negative-control" and r["ok"])
    return family_s, reports, controls, caught


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  out_bytes: int, payloads: list) -> dict:
    """The per-layer metrics of one traced pass, by name with unit.

    `payloads` are the JSON outputs the pass's CLI requests wrote."""
    own = tracer.layer_self_s()
    family_s, reports, controls, caught = verify_figures(payloads)
    groups = tracer.group_s

    def apply_like(rest):
        return "." not in rest and not rest.startswith("l2_") and (
            rest.startswith("apply_") or rest.endswith("_apply")
        ) and rest != "materialize_apply"

    values = {
        "basis.lam_calls": (tracer.calls("basis.lam"), "count"),
        "basis.self_s": (own["basis"], "s"),
        "functionals.construct_calls": (
            tracer.calls("functionals.Functional.__post_init__"), "count"),
        "functionals.coeffs_in": (tracer.coeffs_in, "count"),
        "functionals.self_s": (own["functionals"], "s"),
        "weights.theta_calls": (
            tracer.calls("weights.Weight2D.theta", "weights.Weight1D.count"), "count"),
        "weights.vector_calls": (
            tracer.calls("weights.Weight2D.theta_vector", "weights.Weight1D.count_vector"),
            "count"),
        "weights.self_s": (own["weights"], "s"),
        "operators.apply_calls": (tracer.calls_matching("operators", apply_like), "count"),
        "operators.l2_apply_calls": (
            tracer.calls_matching("operators", lambda rest: rest.startswith("l2_")), "count"),
        "operators.materialize_calls": (
            tracer.calls("operators.materialize", "operators.materialize_apply"), "count"),
        "operators.materialize_s": (groups.get("materialize", 0.0), "s"),
        "operators.self_s": (own["operators"], "s"),
    }
    for family, seconds in family_s.items():
        values[f"verifier.family_s.{family}"] = (seconds, "s")
    values.update({
        "verifier.self_s": (own["verifier"], "s"),
        "verifier.reports": (reports, "count"),
        "verifier.controls_caught_ratio": (caught / controls if controls else 0.0, "ratio"),
        "verifier.qms_n": (max(tracer.qms_n, default=0), "level"),
        "martingale.exact_gram_s": (groups.get("exact_gram", 0.0), "s"),
        "martingale.mc_gram_s": (groups.get("mc_gram", 0.0), "s"),
        "martingale.moments_s": (groups.get("moments", 0.0), "s"),
        "martingale.self_s": (own["martingale"], "s"),
        "qms.generator_apply_s": (groups.get("generator_apply", 0.0), "s"),
        "qms.dissipator_s": (groups.get("dissipator", 0.0), "s"),
        "qms.first_apply_s": (tracer.first_apply_s, "s"),
        "qms.repeat_apply_s": (tracer.repeat_apply_s, "s"),
        "qms.transfer_matrix_calls": (tracer.calls("qms.transfer_matrix"), "count"),
        "qms.jump_terms_applied": (tracer.jump_terms_applied, "count"),
        "reports.residual_calls": (tracer.calls("reports.residual"), "count"),
        "reports.self_s": (own["reports"], "s"),
        "cli.self_s": (own["cli"], "s"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
