"""Outside-in tracing of fmtt: wrappers installed from the benchmark.

`install` replaces each public function and method of the traced modules
with a wrapper, in every fmtt namespace that holds it (so `smc.run` finds
the wrapped `position_step` and `cli` the wrapped `run`), and returns a
function that puts the originals back.  The wrappers keep a span stack, so a
span's self time is its duration minus that of its child spans.

Spans are aggregated in memory by (parent span, span) edge instead of being
kept one by one: the refine-cli workload makes about 540k spans per
operation.  The edges hold every count and time the per-layer metrics need,
and repeat exactly for a fixed seed, which the determinism check compares.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

# Traced fmtt modules, one layer each.  `schedule` is scalar and too cheap to
# measure; `verify`, `oracles` and `errors` are on no workload's path.
LAYERS = ("mixtures", "flowmap", "rewards", "tilt", "smc", "diagnostics", "config", "cli")

# A trivial predicate called many times per step; wrapping it would add cost
# and no information.
SKIP = {"rewards.TimeDependentReward.is_flowmap"}

CALLS, SECONDS, SELF, ROWS, PAIR_ROWS, LEAVES = range(6)

RUN = "smc.run"
STEP = "tilt.position_step"
PATH_KERNEL = ("dynamics", "velocity_jacobian", "denoiser_jacobian", "conditional_means")
MIXTURE_KERNEL = ("log_density", "log_responsibilities", "sample")
SOLVES = ("flowmap.FlowMapEvaluator.flow_map", "flowmap.FlowMapEvaluator.flow_map_jacobian")
LOOKAHEADS = tuple(f"rewards.TimeDependentReward.{m}" for m in (
    "value", "grad", "value_and_grad", "lookahead_value_and_grad",
    "terminal_lookahead", "time_derivative"))


def _rows(x) -> int:
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _path_rows(path, t, x, *args, **kwargs):
    rows = _rows(x)
    return rows, rows * path.base.n_components * path.target.n_components


def _mixture_rows(mixture, x, *args, **kwargs):
    rows = _rows(x)
    return rows, rows * mixture.n_components


def _sample_rows(mixture, n, *args, **kwargs):
    return n, n * mixture.n_components


class Tracer:
    """Span edges of the calls made while installed, plus step and run data."""

    def __init__(self, only: set | None = None):
        self.only = only
        # (parent, name) -> [calls, seconds, self seconds, rows, pair rows,
        # calls with no child span]; indexed by CALLS ... LEAVES.
        self.edges: dict[tuple[str, str], list] = {}
        self.step_ms: list[float] = []
        self.result_bytes = 0
        self.digests: list[str] = []
        self._stack: list[list] = []
        self._steps: list[float] = []

    def _on_run(self, start: bool, now: float, result=None) -> None:
        if start:
            self._steps = []
            return
        bounds = self._steps + [now]
        self.step_ms.extend(1e3 * (b - a) for a, b in zip(bounds[:-1], bounds[1:]))
        if result is not None:
            arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
            arrays += [result.ensemble.positions, result.ensemble.logweights]
            self.result_bytes += sum(a.nbytes for a in arrays)
            digest = hashlib.sha256(result.ensemble.positions.tobytes())
            digest.update(result.ensemble.logweights.tobytes())
            self.digests.append(digest.hexdigest())

    def wrap(self, fn, name: str, rows_of=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        is_run, is_step = name == RUN, name == STEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows, pair_rows = rows_of(*args, **kwargs) if rows_of else (0, 0)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            if is_run:
                self._on_run(True, start)
            elif is_step:
                self._steps.append(start)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                if stack:
                    stack[-1][1] += seconds
                    stack[-1][2] += 1
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0, 0.0, 0, 0, 0]
                edge[0] += 1
                edge[1] += seconds
                edge[2] += seconds - frame[1]
                edge[3] += rows
                edge[4] += pair_rows
                edge[5] += frame[2] == 0
                if is_run:
                    self._on_run(False, end, result)

        return traced

    def counts(self) -> dict:
        """Every count of the trace (no times): equal for equal work."""
        return {f"{p}>{n}": (e[0], e[3], e[4], e[5]) for (p, n), e in sorted(self.edges.items())}


def _targets():
    """(owner, attribute, raw attribute, span name) of every traced callable."""
    for layer in LAYERS:
        module = importlib.import_module(f"fmtt.{layer}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, obj, f"{layer}.{name}"
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                        yield obj, attr, raw, f"{layer}.{obj.__name__}.{attr}"


def _rows_of(span: str):
    owner, _, method = span.rpartition(".")
    if owner == "mixtures.MixturePath" and method in PATH_KERNEL:
        return _path_rows
    if owner == "mixtures.GaussianMixture" and method in MIXTURE_KERNEL:
        return _sample_rows if method == "sample" else _mixture_rows
    return None


def install(tracer: Tracer):
    """Wrap the traced callables for `tracer`; returns the function that undoes it."""
    undo = []
    fmtt_modules = [m for k, m in list(sys.modules.items())
                    if m is not None and (k == "fmtt" or k.startswith("fmtt."))]
    for owner, attr, raw, span in list(_targets()):
        if span in SKIP or (tracer.only is not None and span not in tracer.only):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(tracer.wrap(raw.__func__, span, _rows_of(span)))
        else:
            new = tracer.wrap(raw, span, _rows_of(span))
        if inspect.isclass(owner):
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            continue
        # A module-level function: rebind it wherever fmtt imported it by name.
        for module in fmtt_modules:
            if vars(module).get(attr) is raw:
                undo.append((module, attr, raw))
                setattr(module, attr, new)

    def uninstall():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


def merge(tracers: list[Tracer]) -> Tracer:
    total = Tracer()
    for tr in tracers:
        for key, edge in tr.edges.items():
            acc = total.edges.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
            for i, v in enumerate(edge):
                acc[i] += v
        total.step_ms.extend(tr.step_ms)
        total.result_bytes += tr.result_bytes
    return total


def layer_metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-layer metrics per operation, from the merged trace of n_ops operations."""
    edges = tr.edges

    def total(pred, col=CALLS):
        return sum(e[col] for (p, n), e in edges.items() if pred(p, n))

    def calls(pred):
        return total(pred, CALLS)

    def seconds(pred):
        return total(pred, SECONDS)

    def self_s(layer):
        return total(lambda p, n: n.startswith(layer + "."), SELF)

    def outermost(names):
        return lambda p, n: n in names and p not in names

    path_kernel = {f"mixtures.MixturePath.{m}" for m in PATH_KERNEL}
    mixture_kernel = {f"mixtures.GaussianMixture.{m}" for m in MIXTURE_KERNEL}
    memo = {n for _, n in edges if n.startswith("flowmap.MemoizedFlowMap.")}
    base_rewards = {n for _, n in edges if n.startswith("rewards.") and n.count(".") == 2
                    and not n.startswith("rewards.TimeDependentReward.")
                    and n.endswith((".value", ".grad"))}
    steps = calls(lambda p, n: n == STEP)
    solves = calls(lambda p, n: n in SOLVES)
    rhs = calls(lambda p, n: p in SOLVES and n == "mixtures.MixturePath.dynamics")
    memo_calls = calls(lambda p, n: n in memo)
    memo_hits = total(lambda p, n: n in memo, LEAVES)
    lookaheads = calls(outermost(set(LOOKAHEADS)))
    mixtures_self = self_s("mixtures")
    pair_rows = total(lambda p, n: n in path_kernel or n in mixture_kernel, PAIR_ROWS)
    step_ms = np.asarray(tr.step_ms) if tr.step_ms else np.zeros(1)
    trace_files = {"diagnostics.trace_from_run", "diagnostics.trace_from_runs"}
    parse = {"config.ExperimentConfig.from_file", "config.ExperimentConfig.from_yaml"}

    per_op = {
        "mixtures.path_calls": calls(lambda p, n: n in path_kernel),
        "mixtures.path_rows": total(lambda p, n: n in path_kernel, ROWS),
        "mixtures.pair_rows": pair_rows,
        "mixtures.mixture_calls": calls(lambda p, n: n in mixture_kernel),
        "mixtures.self_s": mixtures_self,
        "flowmap.map_solves": calls(lambda p, n: n == SOLVES[0]),
        "flowmap.jacobian_solves": calls(lambda p, n: n == SOLVES[1]),
        "flowmap.kstep_calls": calls(lambda p, n: n.startswith("flowmap.FlowMapEvaluator.k_step")),
        "flowmap.rhs_evals": rhs,
        "flowmap.self_s": self_s("flowmap"),
        "rewards.lookahead_calls": lookaheads,
        "rewards.hutchinson_grad_calls": calls(
            lambda p, n: p == "rewards.hutchinson_laplacian"
            and n == "rewards.TimeDependentReward.grad"),
        "rewards.self_s": self_s("rewards"),
        "rewards.base_s": seconds(outermost(base_rewards)),
        "tilt.position_s": seconds(lambda p, n: n == STEP),
        "tilt.weight_s": seconds(lambda p, n: n.startswith("tilt.weight_step_")),
        "tilt.self_s": self_s("tilt"),
        "smc.steps": steps,
        "smc.trace_lookahead_s": seconds(
            lambda p, n: p == RUN and n == "rewards.TimeDependentReward.value"),
        "smc.resamples": calls(lambda p, n: n in ("smc.resample", "smc.top_n_select")),
        "smc.self_s": self_s("smc"),
        "smc.result_bytes": tr.result_bytes,
        "diagnostics.trace_s": seconds(outermost(trace_files)),
        "diagnostics.refine_s": seconds(lambda p, n: n == "diagnostics.refine_schedule"),
        "config.parse_s": seconds(outermost(parse)),
        "cli.self_s": self_s("cli"),
    }
    out = {k: v / n_ops for k, v in per_op.items()}
    # Ratios are of totals, not of per-operation values.
    out.update({
        "mixtures.rows_per_s": pair_rows / mixtures_self if mixtures_self else 0.0,
        "flowmap.rhs_per_solve": rhs / solves if solves else 0.0,
        "flowmap.memo_hit_ratio": memo_hits / memo_calls if memo_calls else 0.0,
        "rewards.lookahead_per_step": lookaheads / steps if steps else 0.0,
        "smc.step_ms.p50": float(np.percentile(step_ms, 50)),
        "smc.step_ms.p75": float(np.percentile(step_ms, 75)),
    })
    return out
