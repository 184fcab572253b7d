"""Per-layer tracing from outside the program.

``install`` wraps every public function of the ``qspectral`` modules, and the
constructor of ``RegisterState``, and puts each wrapper into every module
namespace that holds the original: several modules import by name
(``qpea.projector_target``, ``readout.amplify``, ``experiments.amplify``,
``readout.nonzero_eigenvectors``, ...), and a wrapper installed only in the
defining module would miss those calls.

Spans nest on a stack.  Each closing span adds its duration to its function's
total, its duration minus its children's to the function's self time, and its
duration to its module's time when no other span of that module is open
(so nested calls within one module are not counted twice).  Totals are kept
per op in memory; the worker takes a snapshot after each op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "graph", "classical", "encoding", "qpea", "registers", "readout",
          "datasets", "experiments", "config", "csvio", "cli")

OBSERVABLES = ("qpea.success_probability", "qpea.marked_projection_probability",
               "qpea.qubit_marginal")


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: dict[str, int] = defaultdict(int)  # open spans per module
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.module_time: dict[str, float] = defaultdict(float)
        self.outer_time: dict[str, float] = defaultdict(float)  # span not inside its own module
        self.counts: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "module": dict(self.module_time),
            "outer": dict(self.outer_time),
            "counts": dict(self.counts),
            "residual_max": self.residual_max,
        }

    def wrap(self, name: str, layer: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            outermost = self._open[layer] == 0
            self._open[layer] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open[layer] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - children[0]
                if outermost:
                    self.module_time[layer] += dt
                    self.outer_time[name] += dt
            if hook is not None:
                hook(self, args, kwargs, out, dt - children[0])
            return out

        return traced


def closed_form_residual(traj) -> float:
    """Largest distance of the marked projection from sin^2((2t+1) theta),
    which the standard Grover iterate follows exactly."""
    theta = np.arcsin(np.sqrt(np.clip(traj.marked_prob[0], 0.0, 1.0)))
    predicted = np.sin((2 * traj.iterations + 1) * theta) ** 2
    return float(np.max(np.abs(traj.marked_prob - predicted)))


def _amplify_hook(tracer: Tracer, args, kwargs, out, self_s: float) -> None:
    cfg, evo = args[0], args[1]
    _, traj = out
    iterates = len(traj) - 1
    M, N = 2**cfg.m, evo.dim
    ladders = 2 * iterates + 1  # the initial forward pass plus two per iterate
    c = tracer.counts
    c["iterates"] += iterates
    c["useful_iterates"] += min(traj.peak_fidelity_iteration, iterates)
    c["amplify_self_s"] += self_s
    c["ladders"] += ladders
    c["ladder_flops"] += ladders * ladder_flops(cfg.m, M, N)
    c["ladder_bytes"] += ladders * ladder_bytes(cfg.m, M, N)
    if cfg.standard_grover:
        tracer.residual_max = max(tracer.residual_max, closed_form_residual(traj))


def _rank_hook(tracer: Tracer, args, kwargs, out, self_s: float) -> None:
    tracer.counts["candidates"] += len(out)


def ladder_flops(m: int, M: int, N: int) -> float:
    """Real flops of one controlled-power ladder, computed, not counted.

    Each of the m controlled powers multiplies the M/2 controlled rows (N wide)
    by V* and then V^T: two complex (M/2 x N)(N x N) products at 8 real flops
    per complex multiply-add.
    """
    return m * 2 * 8 * (M / 2) * N * N


def ladder_bytes(m: int, M: int, N: int) -> float:
    """Compulsory bytes of one ladder, computed from array sizes (complex128).

    Per controlled power: a full copy of the register (read + write M*N), and
    two products that each read the M/2 x N operand and the N x N eigenbasis
    and write M/2 x N.  Cache misses beyond these are not modelled.
    """
    return m * 16 * (2 * M * N + 2 * (M / 2 * N + N * N + M / 2 * N))


HOOKS = {"qpea.amplify": _amplify_hook, "readout.rank_indicators": _rank_hook}


def install(tracer: Tracer, callers=()) -> None:
    """Wrap the package's public functions and the RegisterState constructor.

    ``callers`` are further modules (the benchmark's own) whose imported names
    are replaced too.
    """
    modules = {layer: importlib.import_module(f"qspectral.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[obj] = tracer.wrap(name, layer, obj, HOOKS.get(name))
    namespaces = [*modules.values(), importlib.import_module("qspectral"), *callers]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    state_cls = modules["registers"].RegisterState
    state_cls.__init__ = tracer.wrap("registers.RegisterState", "registers", state_cls.__init__)


def merge(snapshots: list[dict]) -> dict:
    """Sum per-op snapshots (or earlier merges) into one, counting the ops."""
    out = {"ops": 0, "calls": {}, "total": {}, "self": {}, "module": {}, "outer": {},
           "counts": {}, "residual_max": 0.0}
    for snap in snapshots:
        out["ops"] += snap.get("ops", 1)
        for key in ("calls", "total", "self", "module", "outer", "counts"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["residual_max"] = max(out["residual_max"], snap["residual_max"])
    return out


def per_layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-op metrics of each layer from a merged snapshot of timed ops."""
    ops = snap["ops"]
    calls, total, self_t = (defaultdict(float, snap[k]) for k in ("calls", "total", "self"))
    module, outer, counts = (defaultdict(float, snap[k]) for k in ("module", "outer", "counts"))
    residual = snap["residual_max"]

    def per_op_ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(calls[n] for n in names) / ops, "count")
        out[f"{layer}.ms"] = (per_op_ms(module[layer]), "ms")
        out[f"{layer}.self_ms"] = (per_op_ms(sum(self_t[n] for n in names)), "ms")

    out["numerics.hermitian_eig.calls"] = (calls["numerics.hermitian_eig"] / ops, "count")
    out["numerics.hermitian_eig.ms"] = (per_op_ms(total["numerics.hermitian_eig"]), "ms")
    out["encoding.make_evolution.ms"] = (per_op_ms(total["encoding.make_evolution"]), "ms")
    out["classical.projector_target.calls"] = (calls["classical.projector_target"] / ops, "count")
    out["classical.projector_target.ms"] = (per_op_ms(total["classical.projector_target"]), "ms")
    out["classical.spectral_cluster.ms"] = (per_op_ms(total["classical.spectral_cluster"]), "ms")
    out["graph.build_full_graph.ms"] = (per_op_ms(total["graph.build_full_graph"]), "ms")
    out["graph.load_points_csv.ms"] = (per_op_ms(total["graph.load_points_csv"]), "ms")
    out["config.load_config.ms"] = (per_op_ms(total["config.load_config"]), "ms")
    out["csvio.write.ms"] = (per_op_ms(sum(v for n, v in outer.items()
                                           if n.startswith("csvio.write"))), "ms")
    out["cli.cmd_cluster_quantum.self_ms"] = (per_op_ms(self_t["cli.cmd_cluster_quantum"]), "ms")

    iterates = counts["iterates"]
    amp_self = counts["amplify_self_s"]
    out["qpea.amplify.calls"] = (calls["qpea.amplify"] / ops, "count")
    out["qpea.amplify.iterates"] = (iterates / ops, "count")
    out["qpea.amplify.self_ms"] = (per_op_ms(amp_self), "ms")
    out["qpea.amplify.self_us_per_iterate"] = (1e6 * amp_self / iterates if iterates else 0.0, "us")
    out["qpea.amplify.useful_iterate_ratio"] = (
        counts["useful_iterates"] / iterates if iterates else 0.0, "ratio")
    out["qpea.observables.ms"] = (per_op_ms(sum(total[n] for n in OBSERVABLES)), "ms")
    out["registers.RegisterState.ms"] = (per_op_ms(total["registers.RegisterState"]), "ms")
    out["qpea.prepare_unitary.ms"] = (per_op_ms(total["qpea.prepare_unitary"]), "ms")

    ladders = counts["ladders"]  # an iterate runs two ladders
    out["qpea.ladder.flops_computed"] = (2 * counts["ladder_flops"] / ladders if ladders else 0.0,
                                         "flop")
    out["qpea.ladder.bytes_computed"] = (2 * counts["ladder_bytes"] / ladders if ladders else 0.0,
                                         "B")
    out["qpea.amplify.gflops_computed"] = (
        1e-9 * counts["ladder_flops"] / amp_self if amp_self else 0.0, "GFLOP/s")

    out["readout.rank_indicators.ms"] = (per_op_ms(total["readout.rank_indicators"]), "ms")
    out["readout.direct_similarity.ms"] = (per_op_ms(total["readout.direct_similarity"]), "ms")
    out["readout.candidates"] = (counts["candidates"] / ops, "count")
    out["qpea.closed_form_residual_max"] = (residual, "prob")
    return out
