"""Per-layer tracing of gl2tors from outside the package.

Each gl2tors module is one layer. `Tracer.install` wraps every public entry
point of each layer, and every module attribute bound to the same function
object, because the modules import functions from each other by name.
Nothing under src/ is edited, and `uninstall` puts every original back.

No span is stored per call. Each wrapped function adds to three numbers:
calls, total time, and time in wrapped callees.
A layer's self time is the total of its functions minus their callees, so
the self times of all layers partition the time spent inside the package.

The primitives in HOT run up to millions of times per harness, so they
get a cheaper wrapper: a counter and summed time, no frame. A HOT call
made inside another HOT call (a Mat2 built inside mat_mul) is only counted;
its time is already inside the outer call. No HOT function calls a wrapped
function outside HOT, which keeps the partition exact.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("modarith", "groups", "lemmas", "stabilizers", "classify", "bounds", "verify", "cli")
# The unbounded lru_caches whose size and hit ratio the trace reports.
CACHES = (
    "named_group",
    "_gl2_table",
    "_gl2_two_generated",
    "_gl2_elements",
    "_dlog_table",
    "primitive_root",
    "gl2_order",
)
# Mat2 and QuadExtElem have many tiny accessors (det, trace, entries, ...).
# Of Mat2 only construction is wrapped (its __post_init__ runs once per
# matrix); the accessors of both count to the calling layer.
CONSTRUCTION_ONLY = {("modarith", "Mat2"): ("__post_init__",), ("modarith", "QuadExtElem"): ()}
HOT = frozenset(
    {
        "modarith.Mat2",
        "modarith.mat_mul",
        "modarith.mat_inv",
        "modarith._check_odd_prime",
        "modarith.legendre",
        "modarith.sqrt_mod",
        "modarith.unipotent",
        "modarith.unipotent_lower",
        "stabilizers.act_row",
        "bounds.AbelianGroupSpec.zero",
        "bounds.AbelianGroupSpec.reduce",
        "bounds.AbelianGroupSpec.add",
        "bounds.AbelianGroupSpec.scale",
    }
)
ORACLE = "lemmas.brute_force_cartan_conjugator"
CARTAN = "lemmas.conjugate_into_cartan"
CLOSURE = "groups.closure"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, callee_s]
        self.layer_of: dict[str, str] = {}
        self.entries = {layer: [0, 0] for layer in LAYERS}  # calls from another layer, raises
        self.closure_elements = 0
        self.cartan_fallbacks = 0
        self._stack = [[0.0, None, "loop"]]  # frames: [callee_s, key, layer]
        self._in_hot = [False]
        self._patches: list[tuple[object, str, object]] = []
        self.caches: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import gl2tors  # noqa: F401  (loads every layer module)
        from gl2tors.errors import PreconditionError

        self._precondition = PreconditionError
        modules = [sys.modules[f"gl2tors.{layer}"] for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gl2tors"]
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif self._is_entry_point(mod, name, obj, namespaces):
                    if name in CACHES:
                        self.caches[name] = obj
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapper)

    @staticmethod
    def _is_entry_point(mod, name: str, obj, namespaces) -> bool:
        is_cached = isinstance(obj, functools._lru_cache_wrapper)
        if not (inspect.isfunction(obj) or is_cached):
            return False
        if getattr(obj, "__module__", None) != mod.__name__:
            return False
        if not name.startswith("_") or is_cached:
            return True
        # a private function another module imports is an entry point too
        return any(ns is not mod and any(v is obj for v in vars(ns).values()) for ns in namespaces)

    def _wrap_class(self, layer: str, cls) -> None:
        names = CONSTRUCTION_ONLY.get((layer, cls.__name__))
        if names is None:
            names = [n for n, v in vars(cls).items() if not n.startswith("_") and inspect.isfunction(v)]
        for name in names:
            fn = vars(cls)[name]
            key = f"{layer}.{cls.__name__}" if name == "__post_init__" else f"{layer}.{cls.__name__}.{name}"
            self._patch(cls, name, self._wrap(fn, key, layer))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        self.layer_of[key] = layer
        if key in HOT:
            return self._wrap_hot(fn, stat)
        entries = self.entries[layer]
        stack = self._stack
        perf = time.perf_counter
        precondition = self._precondition
        tracer = self
        is_oracle, is_closure = key == ORACLE, key == CLOSURE

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, key, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except precondition:
                if parent[2] != layer:
                    entries[1] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                parent[0] += dt
                if parent[2] != layer:
                    entries[0] += 1
            if is_closure:
                tracer.closure_elements += len(result.elements)
            elif is_oracle and parent[1] == CARTAN:
                tracer.cartan_fallbacks += 1
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _wrap_hot(self, fn, stat: list):
        stack = self._stack
        in_hot = self._in_hot
        perf = time.perf_counter

        def hot(*args, **kwargs):
            stat[0] += 1
            if in_hot[0]:
                return fn(*args, **kwargs)
            in_hot[0] = True
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                in_hot[0] = False
                stat[1] += dt
                stack[-1][0] += dt

        functools.update_wrapper(hot, fn)
        return hot

    # -- results ------------------------------------------------------------

    def self_s(self, key: str) -> float:
        _, total, callee = self.stats.get(key, (0, 0.0, 0.0))
        return total - callee

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0,))[0]

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for key in self.stats:
            out[self.layer_of[key]] += self.self_s(key)
        return out


def attribute_snapshot() -> dict:
    """Identity of every attribute of every gl2tors module and class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "gl2tors":
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = id(value)
            if inspect.isclass(value):
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = id(cvalue)
    return snap


# Per-layer metrics read from the trace: name -> wrapped function key.
CALL_METRICS = {
    "modarith.Mat2.calls": "modarith.Mat2",
    "modarith.mat_mul.calls": "modarith.mat_mul",
    "modarith.mat_inv.calls": "modarith.mat_inv",
    "modarith.element_order.calls": "modarith.element_order",
    "modarith.eigenvalues.calls": "modarith.eigenvalues",
    "groups.closure.calls": CLOSURE,
    "groups.is_abelian.calls": "groups.Subgroup.is_abelian",
    "lemmas.conjugate_into_cartan.calls": CARTAN,
    "lemmas.oracle.calls": ORACLE,
    "stabilizers.degree_spectrum.calls": "stabilizers.degree_spectrum",
    "stabilizers.exhaustive_spectrum.calls": "stabilizers.exhaustive_spectrum",
    "stabilizers.unipotent_class.calls": "stabilizers.unipotent_class",
    "verify._MulTable.close.calls": "verify._MulTable.close",
}
SELF_METRICS = {
    "groups.closure.self_s": CLOSURE,
    "groups.is_abelian.self_s": "groups.Subgroup.is_abelian",
    "lemmas.conjugate_into_cartan.self_s": CARTAN,
    "lemmas.decompose_sl2.self_s": "lemmas.decompose_sl2",
    "verify._MulTable.close.self_s": "verify._MulTable.close",
}


def process_counts(tracer: Tracer, wall_s: float, in_cli_s: float) -> dict:
    """One traced process's numbers: "sums" add up over processes, and
    "sizes" (cache sizes at exit) take their largest value."""
    layer = tracer.layer_self_s()
    sums: dict[str, float] = {f"{name}.self_s": layer[name] for name in LAYERS}
    sums.update({name: tracer.calls(key) for name, key in CALL_METRICS.items()})
    sums.update({name: tracer.self_s(key) for name, key in SELF_METRICS.items()})
    sums["groups.closure.elements"] = tracer.closure_elements
    sums["lemmas.cartan_fallback.calls"] = tracer.cartan_fallbacks
    sums["classify.entries"], sums["classify.entry_raises"] = tracer.entries["classify"]
    sizes = {}
    for name, cached in tracer.caches.items():
        info = cached.cache_info()
        sums[f"cache.{name}.hits"], sums[f"cache.{name}.misses"] = info.hits, info.misses
        sizes[f"cache.{name}.currsize"] = info.currsize
    sums["trace.wall_s"], sums["trace.in_cli_s"] = wall_s, in_cli_s
    return {"sums": sums, "sizes": sizes}


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """The per-layer metrics of a traced run, by name, over its processes.

    trace.loop_s is the worker loop's own time outside cli.main, timed by
    the worker; with the layer self times it should add up to trace.wall_s.
    """
    sums: dict[str, float] = {}
    sizes: dict[str, float] = {}
    for proc in processes:
        for name, value in proc["sums"].items():
            sums[name] = sums.get(name, 0) + value
        for name, value in proc["sizes"].items():
            sizes[name] = max(sizes.get(name, 0), value)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out = {f"{name}.self_s": sums[f"{name}.self_s"] for name in LAYERS}
    for name in (*CALL_METRICS, *SELF_METRICS, "groups.closure.elements", "lemmas.cartan_fallback.calls"):
        out[name] = sums[name]
    out["classify.precondition_ratio"] = ratio(sums["classify.entry_raises"], sums["classify.entries"])
    for name in CACHES:
        hits, misses = sums[f"cache.{name}.hits"], sums[f"cache.{name}.misses"]
        out[f"cache.{name}.currsize"] = sizes[f"cache.{name}.currsize"]
        out[f"cache.{name}.hit_ratio"] = ratio(hits, hits + misses)
    out["groups.named_group.hit_ratio"] = out["cache.named_group.hit_ratio"]
    wall, loop = sums["trace.wall_s"], sums["trace.wall_s"] - sums["trace.in_cli_s"]
    out["trace.wall_s"] = wall
    out["trace.loop_s"] = loop
    out["trace.attributed_frac"] = (sum(sums[f"{name}.self_s"] for name in LAYERS) + loop) / wall
    return out
