"""Benchmark-owned span tracing: wrap each layer's public entry points.

Nothing in ``src/`` is instrumented for this.  :class:`Tracer` replaces
the timed functions and methods with wrappers that record one span per
call -- id, parent id, layer/name code, start, end -- into per-thread
arrays in memory.  A module-level function is replaced in *every*
loaded ``repro`` module that binds it, because callers look the name up
in their own module (``repro.core.ol_gd.sample_assignment``,
``repro.serve.server.save_checkpoint``, ``repro.api.run_simulation``);
methods are replaced on their class.

A layer's self time is the time its spans cover minus the time their
direct child spans cover (a child runs nested, on its parent's thread).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Timed entry points per layer: ``(defining module, qualified name)``.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "fastlp": [
        ("repro.core.fastlp", "PerSlotLpSolver.solve"),
        ("repro.core.fastlp", "PerSlotLpSolver.solve_with_objective"),
    ],
    "optimal": [("repro.core.optimal", "clairvoyant_cost")],
    "candidates": [
        ("repro.core.candidates", "build_candidate_sets"),
        ("repro.core.candidates", "sample_assignment"),
        ("repro.core.candidates", "repair_capacity"),
    ],
    "assignment": [
        ("repro.core.assignment", "Assignment.from_stations"),
        ("repro.core.assignment", "SlotEvaluator.evaluate"),
        ("repro.core.assignment", "SlotEvaluator.loads_mhz"),
    ],
    "controllers": [
        ("repro.core.ol_gd", "OlGdController.decide"),
        ("repro.core.ol_gd", "OlGdController.observe"),
        ("repro.core.ol_gan", "OlGanController.decide"),
        ("repro.core.ol_gan", "OlGanController.observe"),
        ("repro.core.ol_reg", "OlRegController.decide"),
        ("repro.core.ol_reg", "OlRegController.observe"),
        ("repro.core.greedy", "GreedyController.decide"),
        ("repro.core.greedy", "GreedyController.observe"),
        ("repro.core.priority", "PriorityController.decide"),
        ("repro.core.priority", "PriorityController.observe"),
        ("repro.bandits.arms", "ArmStats.observe_many"),
    ],
    "mec_workload": [
        ("repro.mec.delay", "DriftingDelay.sample"),
        ("repro.workload.demand", "DemandModel.demand_at"),
    ],
    "gan_prediction": [
        ("repro.gan.predictor", "GanDemandPredictor.pretrain"),
        ("repro.gan.predictor", "GanDemandPredictor.predict_next"),
        ("repro.gan.predictor", "GanDemandPredictor.observe"),
        ("repro.prediction.arma", "ArPredictor.predict_next"),
        ("repro.prediction.arma", "ArPredictor.observe"),
    ],
    "sim": [("repro.sim.engine", "run_simulation")],
    "protocol": [
        ("repro.serve.protocol", "handle_line"),
        ("repro.serve.protocol", "handle_request"),
    ],
    "ingest": [
        ("repro.serve.ingest", "SlotBuffer.offer"),
        ("repro.serve.ingest", "SlotBuffer.roll"),
        ("repro.serve.server", "DecisionServer.offer"),
        ("repro.serve.server", "DecisionServer.decide"),
    ],
    "state": [("repro.state.snapshot", "save_checkpoint")],
}

#: Modules that bind a timed function by name (imported before patching).
_CALLERS = (
    "repro.api",
    "repro.cli",
    "repro.campaigns",
    "repro.core.ol_gd",
    "repro.core.optimal",
    "repro.serve.runner",
    "repro.serve.server",
    "repro.sim.engine",
    "repro.sim.parallel",
)

#: Span codes index this table: ``(layer, qualified name)``.
NAMES: List[Tuple[str, str]] = [
    (layer, qualname) for layer, targets in LAYERS.items() for _m, qualname in targets
]

_COLUMNS = ("ids", "parents", "codes", "starts", "ends")


class _Buffer:
    """One thread's open-span stack and finished spans."""

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.codes = array("h")
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` scopes them."""

    def __init__(self) -> None:
        #: Size on disk of the most recent snapshot a traced save wrote.
        self.last_save_bytes = 0
        #: ``id(wrapper) -> (wrapper, original)``; holding the wrapper
        #: keeps its id from being reused.
        self._originals: Dict[int, Tuple[Callable[..., Any], Callable[..., Any]]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _wrap(self, code: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        ids, buffer_of = self._ids, self._buffer

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = buffer_of()
            stack = buffer.stack
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buffer.ids.append(span_id)
                buffer.parents.append(parent)
                buffer.codes.append(code)
                buffer.starts.append(start)
                buffer.ends.append(end)

        return traced

    def __enter__(self) -> "Tracer":
        # Import every module that binds a timed function before patching:
        # a module first imported under the tracer would keep the wrapper.
        for module_name in _CALLERS:
            importlib.import_module(module_name)
        code = 0
        for targets in LAYERS.values():
            for module_name, qualname in targets:
                module = importlib.import_module(module_name)
                if "." in qualname:
                    self._patch_method(code, module, qualname)
                else:
                    self._patch_function(code, module, qualname)
                code += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._undo:
            self._undo.pop()()
        # Any binding made while tracing (a late ``from ... import``) still
        # points at a wrapper; point it back at the original.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if wrapper is value:
                    setattr(loaded, name, original)

    def _patch_method(self, code: int, module: Any, qualname: str) -> None:
        class_name, attr = qualname.split(".")
        cls = getattr(module, class_name)
        own = cls.__dict__.get(attr)
        if isinstance(own, classmethod):
            wrapped: Any = classmethod(self._wrap(code, own.__func__))
        else:
            wrapped = self._wrap(code, getattr(cls, attr))
        setattr(cls, attr, wrapped)
        if own is None:  # inherited: deleting the override restores it
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def _patch_function(self, code: int, module: Any, name: str) -> None:
        original = getattr(module, name)
        fn = self._sized(original) if NAMES[code][0] == "state" else original
        wrapped = self._wrap(code, fn)
        self._originals[id(wrapped)] = (wrapped, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, wrapped)
                self._undo.append(
                    lambda loaded=loaded: setattr(loaded, name, original)
                )

    def _sized(self, save: Callable[..., Any]) -> Callable[..., Any]:
        """``save_checkpoint`` that also counts the snapshot's bytes on disk."""

        @functools.wraps(save)
        def sized(*args: Any, **kwargs: Any) -> Any:
            path = save(*args, **kwargs)
            self.last_save_bytes = path.stat().st_size
            return path

        return sized

    def spans(self) -> Dict[str, np.ndarray]:
        """Every finished span as parallel arrays (``id`` order)."""
        with self._lock:
            buffers = list(self._buffers)
        columns = {
            key: np.concatenate(
                [np.frombuffer(getattr(b, key), dtype=dtype) for b in buffers]
                or [np.zeros(0, dtype=dtype)]
            )
            for key, dtype in (
                ("ids", np.int64),
                ("parents", np.int64),
                ("codes", np.int16),
                ("starts", np.float64),
                ("ends", np.float64),
            )
        }
        order = np.argsort(columns["ids"], kind="stable")
        return {key: values[order] for key, values in columns.items()}


def save_spans(
    spans: Dict[str, np.ndarray], path: Any, extra: Dict[str, Any]
) -> None:
    """Write spans, the code table and ``extra`` scalars to an ``.npz`` file."""
    np.savez(path, names=np.array(json.dumps(NAMES)), **spans, **extra)


def load_spans(path: Any) -> Tuple[Dict[str, np.ndarray], Dict[str, float]]:
    """Spans and the extra scalars written by :func:`save_spans`."""
    with np.load(path) as data:
        if json.loads(str(data["names"])) != [list(n) for n in NAMES]:
            raise ValueError(f"{path}: span code table differs from this tracer's")
        spans = {key: data[key] for key in _COLUMNS}
        extra = {
            key: float(data[key])
            for key in data.files
            if key not in _COLUMNS and key != "names"
        }
    return spans, extra


def layer_table(spans: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """``calls`` and ``self_s`` per layer; every layer appears, zero if idle."""
    ids, parents = spans["ids"], spans["parents"]
    durations = spans["ends"] - spans["starts"]
    child_time = np.zeros(int(ids.max()) + 1 if ids.size else 0)
    nested = parents >= 0
    np.add.at(child_time, parents[nested], durations[nested])
    self_time = durations - child_time[ids] if ids.size else durations
    layer_of = np.array([list(LAYERS).index(layer) for layer, _ in NAMES])
    span_layers = layer_of[spans["codes"]] if ids.size else np.zeros(0, dtype=int)
    return {
        layer: {
            "calls": float(np.count_nonzero(span_layers == index)),
            "self_s": float(self_time[span_layers == index].sum()),
        }
        for index, layer in enumerate(LAYERS)
    }


def per_layer_metrics(
    spans: Dict[str, np.ndarray],
    *,
    base_s: float,
    lp_iterations: float,
    save_bytes: float,
    rejected_share: float,
    late_p99_ms: float,
    overhead_s: float,
) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics plus a printable table.

    ``base_s`` is what each layer's share is taken of: the traced wall
    time offline, the traced server's CPU time for ``serve_tcp``.
    """
    table = layer_table(spans)
    metrics: Dict[str, float] = {}
    lines = [f"{'layer':<16}{'calls':>10}{'self_s':>12}{'share':>9}"]
    for layer, row in table.items():
        share = 100.0 * row["self_s"] / base_s if base_s > 0 else 0.0
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share_pct"] = share
        lines.append(
            f"{layer:<16}{int(row['calls']):>10}{row['self_s']:>12.4f}{share:>8.1f}%"
        )
    # The median is over learned-theta solves only; the clairvoyant
    # optimum's ``solve_with_objective`` is a different LP use.
    is_solve = spans["codes"] == NAMES.index(("fastlp", "PerSlotLpSolver.solve"))
    solve_ms = (spans["ends"] - spans["starts"])[is_solve] * 1e3
    fastlp = list(LAYERS).index("fastlp")
    layer_of = np.array([list(LAYERS).index(layer) for layer, _ in NAMES])
    solves = int(np.count_nonzero(layer_of[spans["codes"]] == fastlp))
    metrics["fastlp.solve.p50_ms"] = float(np.median(solve_ms)) if solve_ms.size else 0.0
    metrics["fastlp.iterations"] = lp_iterations
    metrics["fastlp.iterations_per_solve"] = lp_iterations / solves if solves else 0.0
    metrics["ingest.rejected_share"] = rejected_share
    metrics["state.save.bytes"] = save_bytes
    metrics["client.late_p99_ms"] = late_p99_ms
    metrics["trace.overhead_s"] = overhead_s
    lines.append(
        f"shares of {base_s:.3f} s; fastlp: {solves} solves, "
        f"{int(lp_iterations)} iterations; tracing overhead {overhead_s:+.3f} s"
    )
    return metrics, lines
