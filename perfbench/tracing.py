"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each spinflip module from outside
the program, records one span ``[name, start, end, parent, attrs]`` per call
in memory, and puts every original back on ``restore()``.  Nothing inside
the package is edited.

Scalar per-point helpers that the RK4, Euler-Maruyama and quadrature loops
call thousands of times per step grid are not wrapped: a span there would
time the wrapper, not the work.  Their work is counted at the enclosing
boundary instead (``field_evals`` below).

Counts in ``attrs`` come from call arguments and results ("computed"), never
from inside the program, so two traced runs of one config give equal counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

MARK = "__perfbench_wrapped__"

MODULES = ("_kernels", "constants", "core", "trajectory", "fields", "invariant",
           "opensys", "lowdin", "tables", "cli")

# (module, class, method) pairs traced besides module-level functions.
METHODS = (("trajectory", "TrajectoryDesign", "design"),
           ("tables", "OutputTable", "render"))

PER_POINT = {
    "_kernels": {"poly3", "dpoly3", "field_parts", "b1_b2", "xyz_at", "njit"},
    "trajectory": {"eval_angles"},
    "fields": {"effective_fields", "fields_xyz", "fields_xyz_at"},
}

RK4_KERNELS = ("_kernels.rk4_bloch", "_kernels.rk4_spin", "_kernels.rk4_density")
GRID_KERNELS = ("_kernels.b1_b2_grid", "_kernels.xyz_grid")
OPENSYS_PROPAGATORS = ("opensys.propagate_master", "opensys.propagate_bloch",
                       "opensys.propagate_density")


def _steps(a, _):
    return {"steps": a["steps"]}


def _points(a, _):
    return {"points": len(a["ts"])}


def _returned(a, _):
    return {"returned_steps": a["steps"]}


PROBES = {
    "_kernels.rk4_bloch": _steps,
    "_kernels.rk4_spin": _steps,
    "_kernels.rk4_density": _steps,
    "_kernels.rk4_spin_const": _steps,
    "_kernels.em_ensemble": lambda a, _: {
        "steps": a["steps"], "traj_steps": a["dw"].shape[0] * a["steps"]},
    "_kernels.em_states": lambda a, _: {"steps": a["steps"], "traj_steps": a["steps"]},
    "_kernels.b1_b2_grid": _points,
    "_kernels.xyz_grid": _points,
    "_kernels.denominator_grid": _points,
    "opensys.noise_increments": lambda a, r: {
        "samples": a["n_traj"] * a["steps"], "bytes": int(r.nbytes)},
    "opensys.propagate_master": _returned,
    "opensys.propagate_bloch": _returned,
    "opensys.propagate_density": _returned,
    "invariant.propagate_schrodinger": _returned,
    "invariant.lr_phase": lambda a, _: {"nodes": a["nodes"]},
    "tables.render": lambda a, _: {"rows": len(a["self"].rows)},
}


class _Params:
    """Reads a call's arguments by parameter name, defaults included, without
    the cost of ``inspect.Signature.bind`` on every call."""

    def __init__(self, fn):
        params = inspect.signature(getattr(fn, "py_func", fn)).parameters.values()
        self.index = {p.name: i for i, p in enumerate(params)}
        self.default = {p.name: p.default for p in params
                        if p.default is not inspect.Parameter.empty}

    def view(self, args, kwargs) -> "_Args":
        return _Args(self, args, kwargs)


class _Args:
    __slots__ = ("params", "args", "kwargs")

    def __init__(self, params: _Params, args: tuple, kwargs: dict):
        self.params, self.args, self.kwargs = params, args, kwargs

    def __getitem__(self, name: str):
        i = self.params.index[name]
        if i < len(self.args):
            return self.args[i]
        return self.kwargs[name] if name in self.kwargs else self.params.default[name]


class PoolObserver:
    """Replaces ``cli.ThreadPoolExecutor`` during a traced pass to record each
    pool's resolved size; worker spans get the submitting span as parent."""

    def __init__(self, cli_module, tracer: "Tracer"):
        self.sizes: list[int] = []
        self._cli = cli_module
        self._original = getattr(cli_module, "ThreadPoolExecutor", None)
        if self._original is None:
            return
        observer = self

        class ObservedPool(self._original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                observer.sizes.append(self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(fn, tracer.current()),
                                      *args, **kwargs)

        setattr(ObservedPool, MARK, True)
        cli_module.ThreadPoolExecutor = ObservedPool

    def restore(self) -> None:
        if self._original is not None:
            self._cli.ThreadPoolExecutor = self._original


class Tracer:
    """Wraps spinflip's public functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: dict[str, int] = {}
        self.probe_errors = 0
        self._raised: list[BaseException] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def adopt(self, fn, parent: int | None):
        """Run fn in a pool thread as a child of the submitting span."""
        local = self._local

        def run(*args, **kwargs):
            local.root = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.root = None
        return run

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.errors = {}
            self.probe_errors = 0
            self._raised = []

    def _record_error(self, exc: BaseException) -> None:
        with self._lock:
            if any(e is exc for e in self._raised):
                return
            self._raised.append(exc)
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        params = _Params(fn) if probe else None
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else getattr(tracer._local, "root", None)
            rec = [name, 0.0, 0.0, parent, None]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                tracer._record_error(exc)
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if probe is not None:
                try:
                    rec[4] = probe(params.view(args, kwargs), result)
                except (KeyError, TypeError, AttributeError):
                    with tracer._lock:
                        tracer.probe_errors += 1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installing and removing wrappers ---------------------------------
    def install(self) -> None:
        package = {k: m for k, m in sys.modules.items()
                   if (k == "spinflip" or k.startswith("spinflip.")) and m is not None}
        for short in MODULES:
            mod = package.get("spinflip." + short)
            if mod is None:
                continue
            skip = PER_POINT.get(short, set())
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", obj)
                for owner in package.values():
                    for key, val in list(vars(owner).items()):
                        if val is obj:
                            self._patches.append((owner, key, val))
                            setattr(owner, key, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(package.get("spinflip." + short), cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            original = vars(cls)[meth]
            if isinstance(original, classmethod):
                new = classmethod(self._wrap(f"{short}.{meth}", original.__func__))
            else:
                new = self._wrap(f"{short}.{meth}", original)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, new)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []


def leftover_wrappers() -> list[str]:
    """Names of spinflip attributes still bound to a benchmark wrapper."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "spinflip" or name.startswith("spinflip.")):
            continue
        for key, val in vars(mod).items():
            if getattr(val, MARK, False):
                found.append(f"{name}.{key}")
            if isinstance(val, type) and val.__module__ == name:
                for meth, desc in vars(val).items():
                    inner = getattr(desc, "__func__", desc)
                    if getattr(inner, MARK, False):
                        found.append(f"{name}.{key}.{meth}")
    return found


# -- per-layer metrics from one pass's spans ---------------------------------
def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _children(spans: list[list]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    return children


def _descendants(children, idx):
    out, todo = [], list(children.get(idx, ()))
    while todo:
        j = todo.pop()
        out.append(j)
        todo.extend(children.get(j, ()))
    return out


def layer_table(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total_s, self_s and summed attrs.

    Self time is a span's duration minus the union of its direct children's
    intervals; children may run on pool threads and overlap one another.
    """
    children = _children(spans)
    table: dict[str, dict] = {}
    for i, (name, start, end, _, attrs) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        kids = [(spans[j][1], spans[j][2]) for j in children.get(i, ())]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _union(kids)
        for k, v in (attrs or {}).items():
            row[k] = row.get(k, 0) + v
    return table


def _gate_frac(spans, children, owners, kernels) -> float:
    """Steps returned over steps integrated, under the outermost owner spans."""
    owner_set = set(owners)
    returned = integrated = 0
    for i, s in enumerate(spans):
        if s[0] not in owner_set:
            continue
        p = s[3]
        while p is not None and spans[p][0] not in owner_set:
            p = spans[p][3]
        if p is not None:
            continue
        returned += (s[4] or {}).get("returned_steps", 0)
        integrated += sum((spans[j][4] or {}).get("steps", 0)
                          for j in _descendants(children, i)
                          if spans[j][0] in kernels)
    return returned / integrated if integrated else 0.0


def layer_metrics(spans: list[list], errors: dict[str, int],
                  pool_sizes: list[int], wall: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, for one pass of `wall` s.

    ``self_s`` sums over threads, so on a multi-worker sweep it includes the
    time each worker waits for the interpreter lock and can exceed ``wall``;
    ``_kernels.rk4_bloch.wall_frac`` is the share of the pass during which at
    least one rk4_bloch call was running.
    """
    t = layer_table(spans)
    children = _children(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def per(name, key, count):
        n = get(name, count)
        return get(name, key) / n * 1e9 if n else 0.0

    m: dict[str, float] = {}
    for k in ("rk4_bloch", "rk4_spin", "rk4_density"):
        name = "_kernels." + k
        m[name + ".steps"] = get(name, "steps")
        m[name + ".self_s"] = get(name, "self_s")
        m[name + ".ns_per_step"] = per(name, "self_s", "steps")
    m["_kernels.rk4_bloch.wall_frac"] = _union(
        [(s[1], s[2]) for s in spans if s[0] == "_kernels.rk4_bloch"]) / wall if wall else 0.0
    m["opensys.propagate_master.calls"] = get("opensys.propagate_master", "calls")
    m["opensys.propagate_master.self_s"] = get("opensys.propagate_master", "self_s")
    m["opensys.gate.useful_frac"] = _gate_frac(
        spans, children, OPENSYS_PROPAGATORS, ("_kernels.rk4_bloch", "_kernels.rk4_density"))
    m["cli.sweep.workers"] = max(pool_sizes, default=0)
    for key in ("self_s", "samples", "bytes"):
        m["opensys.noise_increments." + key] = get("opensys.noise_increments", key)
    m["_kernels.em_ensemble.traj_steps"] = get("_kernels.em_ensemble", "traj_steps")
    m["_kernels.em_ensemble.self_s"] = get("_kernels.em_ensemble", "self_s")
    m["_kernels.em_ensemble.ns_per_traj_step"] = per(
        "_kernels.em_ensemble", "self_s", "traj_steps")
    m["opensys.ensemble_average.self_s"] = get("opensys.ensemble_average", "self_s")
    for f in ("sample_fields", "electric_fields", "detect_singularities", "compute_b0_max"):
        m[f"fields.{f}.calls"] = get("fields." + f, "calls")
        m[f"fields.{f}.self_s"] = get("fields." + f, "self_s")
    m["fields.compute_b0_max.designs"] = sum(
        1 for i, s in enumerate(spans) if s[0] == "fields.compute_b0_max"
        for j in _descendants(children, i) if spans[j][0] == "trajectory.design")
    for k in ("b1_b2_grid", "denominator_grid"):
        for key in ("calls", "points", "self_s"):
            m[f"_kernels.{k}.{key}"] = get("_kernels." + k, key)
    m["trajectory.design.calls"] = get("trajectory.design", "calls")
    m["trajectory.design.self_s"] = get("trajectory.design", "self_s")
    m["opensys.propagate_bloch.self_s"] = get("opensys.propagate_bloch", "self_s")
    m["opensys.propagate_density.self_s"] = get("opensys.propagate_density", "self_s")
    m["invariant.propagate_schrodinger.self_s"] = get("invariant.propagate_schrodinger", "self_s")
    m["invariant.gate.useful_frac"] = _gate_frac(
        spans, children, ("invariant.propagate_schrodinger",), ("_kernels.rk4_spin",))
    m["invariant.lr_phase.self_s"] = get("invariant.lr_phase", "self_s")
    m["invariant.lr_phase.nodes"] = get("invariant.lr_phase", "nodes")
    m["tables.render.self_s"] = get("tables.render", "self_s")
    m["tables.render.rows"] = get("tables.render", "rows")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    m["lowdin.lowdin_reduce.self_s"] = get("lowdin.lowdin_reduce", "self_s")
    # Computed: 4 field evaluations per RK4 step, 1 per EM step (shared by the
    # ensemble), 1 per field-grid point, 4 per electric_fields call (two
    # central differences).
    m["_kernels.field_evals"] = (
        4 * sum(get(k, "steps") for k in RK4_KERNELS)
        + get("_kernels.em_ensemble", "steps") + get("_kernels.em_states", "steps")
        + sum(get(k, "points") for k in GRID_KERNELS)
        + 4 * get("fields.electric_fields", "calls"))
    m["fields.singularity_errors"] = errors.get("SingularityError", 0)
    m["opensys.integrator_errors"] = errors.get("IntegratorError", 0)
    # A metric name must start with a letter, so module _kernels reports as
    # kernels.
    return {k.removeprefix("_"): v for k, v in m.items()}


COUNT_SUFFIXES = (".calls", ".steps", ".points", ".samples", ".bytes", ".traj_steps",
                  ".nodes", ".rows", ".designs", ".workers", ".useful_frac",
                  "field_evals", "_errors")


def is_count(metric: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly."""
    return metric.endswith(COUNT_SUFFIXES)
