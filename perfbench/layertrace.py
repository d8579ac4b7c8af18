"""Per-layer trace of wxpower, installed from outside the package.

Nothing in wxpower knows about this module. `LayerTrace` replaces, for the
life of a `with` block, every public function of the traced modules at each
module attribute that holds it, so a name imported into another module
(`models.batchnorm2d_forward`, `optim.model_forward`) is wrapped where its
callers look it up. Public methods of the data classes are wrapped on the
class. Backward time per op comes from wrapping the rule that every op
hands to the public `tensor.record`, and the tape's size and the gradients
nobody reads come from bookkeeping kept beside each tape.

Times are wall seconds from `time.perf_counter`. Work and sizes marked
"computed" are derived from array shapes, never measured. 1 MB = 2**20 bytes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
import weakref
from collections import defaultdict

import numpy as np

LAYERS = ("tensor", "layers", "models", "optim", "data", "saliency", "cli")
TENSOR_OPS = ("conv2d", "relu", "add", "mul", "linear", "reshape",
              "avgpool2d", "reduce_mean")
# op names that layers above `tensor` register through tensor.record
RULE_LAYER = {"batchnorm2d": "layers", "rmse_loss": "optim"}
DATA_CALLS = ("load_frames", "fit_normalizer", "apply_normalizer", "save_cube",
              "load_cube", "aggregate_power", "align", "eligible_indices",
              "split_indices")
RSS_CALLS = ("load_frames", "fit_normalizer", "apply_normalizer", "load_cube")
MB = float(1 << 20)
_INHERITED = object()  # marks a patched attribute the owner did not define itself


def _catalog() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for op in TENSOR_OPS:
        units[f"tensor.{op}.fwd_s"] = "s"
        units[f"tensor.{op}.bwd_s"] = "s"
        units[f"tensor.{op}.calls"] = "count"
    for op in ("conv2d", "linear"):
        units[f"tensor.{op}.fwd_gflop"] = "GFLOP"
        units[f"tensor.{op}.bwd_gflop"] = "GFLOP"
    units.update({
        "tensor.conv2d.im2col_mb": "MB",
        "tensor.backward_s": "s",
        "tensor.backward.self_s": "s",
        "tensor.tape.ops": "count",
        "tensor.tape.retained_mb": "MB",
        "tensor.backward.zero_grad_rules": "count",
        "tensor.backward.wasted_grad_mb": "MB",
        "tensor.backward.wasted_gflop": "GFLOP",
        "tensor.backward.useful_grad_share": "fraction",
        "layers.batchnorm2d.fwd_s": "s",
        "layers.batchnorm2d.bwd_s": "s",
        "layers.batchnorm2d.calls": "count",
        "layers.dropout.fwd_s": "s",
        "models.model_forward.train_s": "s",
        "models.model_forward.eval_s": "s",
        "models.save_checkpoint_s": "s",
        "models.load_checkpoint_s": "s",
        "optim.train_steps_s": "s",
        "optim.evaluate_s": "s",
        "optim.adam_step_s": "s",
        "optim.add_l2_gradients_s": "s",
        "optim.rmse_loss.fwd_s": "s",
        "optim.rmse_loss.bwd_s": "s",
        "data.make_batch_s": "s",
        "data.make_batch_mb": "MB",
    })
    for fn in DATA_CALLS:
        units[f"data.{fn}_s"] = "s"
    for fn in RSS_CALLS:
        units[f"data.{fn}.rss_rise_mb"] = "MB"
    units.update({
        "saliency.saliency_map_s": "s",
        "cli.import.self_s": "s",
        "cli.split.self_s": "s",
        "trace.task_s": "s",
    })
    return units


CATALOG = _catalog()

def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 / MB


def _nbytes(x) -> int:
    """Bytes of an array, or of a tensor's array."""
    data = x if isinstance(x, np.ndarray) else getattr(x, "data", None)
    return int(data.nbytes) if isinstance(data, np.ndarray) else 0


class _TapeBook:
    """What the trace knows about one tape: outputs it produced, its ops."""

    def __init__(self):
        self.produced: set[int] = set()
        self.ops = 0
        self.retained_bytes = 0


class _Span:
    __slots__ = ("key", "layer", "start", "data_s", "evaluate_s")

    def __init__(self, key: str, layer: str):
        self.key = key
        self.layer = layer
        self.start = time.perf_counter()
        self.data_s = 0.0      # outermost data calls inside this span
        self.evaluate_s = 0.0  # optim.evaluate calls inside this span


class LayerTrace:
    """Context manager that wraps the traced layers and accumulates totals.

    `sums` holds additive totals (seconds, calls, bytes, GFLOP) and `peaks`
    largest single values; `layer_metrics` turns them into the catalog.
    """

    def __init__(self):
        self.sums: dict = defaultdict(float)
        self.peaks: dict = defaultdict(float)
        self._spans: list[_Span] = []
        self._tapes: list[_TapeBook] = []
        self._books = weakref.WeakKeyDictionary()
        self._saliency_params: set[int] | None = None
        self._undo: list = []

    # -- install / uninstall -------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        mods = {name: importlib.import_module(f"wxpower.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrapper(layer, name, obj))
                elif layer == "data" and inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self._wrapper(layer, meth, fn))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        tape_cls = mods["tensor"].Tape
        self._patch(tape_cls, "__enter__", self._tape_enter(tape_cls.__enter__))
        self._patch(tape_cls, "__exit__", self._tape_exit(tape_cls.__exit__))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _INHERITED)))
        setattr(owner, name, new)

    def _book(self, tape) -> _TapeBook | None:
        try:
            return self._books.get(tape)
        except TypeError:  # not weakly referenceable, so never a tape seen entering
            return None

    # -- spans -----------------------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn):
        special = {
            ("tensor", "record"): self._record,
            ("tensor", "backward"): self._backward,
        }.get((layer, name))
        if special is not None:
            return special(fn)
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_key = key
            if key == "models.model_forward":
                span_key = f"{key}.{getattr(args[0], 'mode', 'train')}"
            elif key == "cli.main" and args and args[0]:
                span_key = f"cli.{args[0][0]}"
            elif key == "saliency.saliency_map":
                params = getattr(args[0], "params", {})
                self._saliency_params = {id(p) for p in params.values()}
            rss0 = _maxrss_mb() if layer == "data" and name in RSS_CALLS else None
            span = self._open(span_key, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
                if key == "saliency.saliency_map":
                    self._saliency_params = None
            if rss0 is not None:
                rise = f"data.{name}.rss_rise_mb"
                self.peaks[rise] = max(self.peaks[rise], _maxrss_mb() - rss0)
            if key == "data.make_batch":
                self.sums["data.make_batch_mb"] += sum(_nbytes(t) for t in out) / MB
            return out

        return wrapper

    def _open(self, key: str, layer: str) -> _Span:
        span = _Span(key, layer)
        self._spans.append(span)
        return span

    def _close(self, span: _Span) -> float:
        dt = time.perf_counter() - span.start
        popped = self._spans.pop()
        assert popped is span, "trace spans closed out of order"
        self.sums[f"{span.key}.s"] += dt
        self.sums[f"{span.key}.calls"] += 1
        self.sums[f"{span.key}.data_s"] += span.data_s
        self.sums[f"{span.key}.evaluate_s"] += span.evaluate_s
        outermost_data = span.layer == "data" and all(o.layer != "data" for o in self._spans)
        for outer in self._spans:
            if outermost_data:
                outer.data_s += dt
            if span.key == "optim.evaluate":
                outer.evaluate_s += dt
        return dt

    # -- the tape ----------------------------------------------------------

    def _tape_enter(self, enter):
        @functools.wraps(enter)
        def wrapper(tape, *args, **kwargs):
            out = enter(tape, *args, **kwargs)
            book = _TapeBook()
            self._books[tape] = book
            self._tapes.append(book)
            return out

        return wrapper

    def _tape_exit(self, exit_):
        @functools.wraps(exit_)
        def wrapper(tape, *args, **kwargs):
            try:
                return exit_(tape, *args, **kwargs)
            finally:
                book = self._book(tape)
                if book is not None and book in self._tapes:
                    self._tapes.remove(book)

        return wrapper

    def _record(self, record):
        @functools.wraps(record)
        def wrapper(name, inputs, out_data, rule, *args, **kwargs):
            inputs = tuple(inputs)
            flops, im2col = _forward_work(name, inputs, out_data)
            if flops:
                self.sums[f"tensor.{name}.fwd_gflop"] += flops / 1e9
            if im2col:
                self.peaks["tensor.conv2d.im2col_mb"] = max(
                    self.peaks["tensor.conv2d.im2col_mb"], im2col / MB)
            book = self._tapes[-1] if self._tapes else None
            recorded = book is not None and any(
                getattr(t, "requires_grad", False) or id(t) in book.produced
                for t in inputs)
            if recorded:
                rule = self._rule(name, rule, inputs, book, flops)
            out = record(name, inputs, out_data, rule, *args, **kwargs)
            if recorded:
                book.produced.add(id(out))
                book.ops += 1
                book.retained_bytes += _nbytes(out_data) + im2col
            return out

        return wrapper

    def _rule(self, name: str, rule, inputs, book: _TapeBook, fwd_flops: float):
        # per input: (id, grad-requiring leaf?, produced on this tape?)
        marks = [(id(t), bool(getattr(t, "requires_grad", False)), id(t) in book.produced)
                 for t in inputs]
        # a gemm-backed op spends its forward work once more for each
        # gradient of its data or weight operand (inputs 0 and 1)

        @functools.wraps(rule)
        def wrapper(*args, **kwargs):
            g = args[0] if args else None
            if isinstance(g, np.ndarray) and not g.any():
                self.sums["tensor.backward.zero_grad_rules"] += 1
            t0 = time.perf_counter()
            grads = rule(*args, **kwargs)
            dt = time.perf_counter() - t0
            layer = RULE_LAYER.get(name, "tensor")
            self.sums["rule.all.s"] += dt
            self.sums[f"{layer}.{name}.bwd_s"] += dt
            saliency = self._saliency_params
            for idx, (grad, (tid, leaf, produced)) in enumerate(zip(grads, marks)):
                if grad is None:
                    continue
                size = _nbytes(grad)
                work = fwd_flops if idx < 2 else 0.0
                self.sums["tensor.backward.grad_bytes"] += size
                if work:
                    self.sums[f"tensor.{name}.bwd_gflop"] += work / 1e9
                wasted = not produced and (
                    not leaf or (saliency is not None and tid in saliency))
                if wasted:
                    self.sums["tensor.backward.wasted_grad_bytes"] += size
                    self.sums["tensor.backward.wasted_gflop"] += work / 1e9
            return grads

        return wrapper

    def _backward(self, backward):
        @functools.wraps(backward)
        def wrapper(tape, *args, **kwargs):
            book = self._book(tape)
            if book is not None:
                self.peaks["tensor.tape.ops"] = max(self.peaks["tensor.tape.ops"], book.ops)
                self.peaks["tensor.tape.retained_mb"] = max(
                    self.peaks["tensor.tape.retained_mb"], book.retained_bytes / MB)
            rules0 = self.sums["rule.all.s"]
            span = self._open("tensor.backward", "tensor")
            try:
                return backward(tape, *args, **kwargs)
            finally:
                dt = self._close(span)
                self.sums["tensor.backward.self_s"] += dt - (self.sums["rule.all.s"] - rules0)

        return wrapper


def _forward_work(name: str, inputs, out_data) -> tuple[float, int]:
    """Computed forward FLOP and im2col bytes of a conv2d or linear record."""
    try:
        if name == "conv2d":
            x, kernel = inputs[0].data, inputs[1].data
            n, f, ho, wo = out_data.shape
            k = int(np.prod(kernel.shape[1:]))
            rows = n * ho * wo
            return 2.0 * rows * k * f, rows * k * x.itemsize
        if name == "linear":
            n, k = inputs[0].data.shape
            m = inputs[1].data.shape[0]
            return 2.0 * n * k * m, 0
    except (AttributeError, IndexError, ValueError):
        pass
    return 0.0, 0


def layer_metrics(setup: dict, loop: dict, peaks: dict, reps: int,
                  task_s: float) -> dict:
    """Per-layer metrics: set-up totals once, plus the timed loop per repetition.

    `setup` holds the sums at the end of set-up and `loop` the sums gathered
    inside the timed repetitions only. Peak metrics are the run's largest.
    """
    reps = max(reps, 1)

    def total(key: str) -> float:
        return setup.get(key, 0.0) + loop.get(key, 0.0) / reps

    out = {}
    for op in TENSOR_OPS:
        out[f"tensor.{op}.fwd_s"] = total(f"tensor.{op}.s")
        out[f"tensor.{op}.bwd_s"] = total(f"tensor.{op}.bwd_s")
        out[f"tensor.{op}.calls"] = total(f"tensor.{op}.calls")
    for op in ("conv2d", "linear"):
        out[f"tensor.{op}.fwd_gflop"] = total(f"tensor.{op}.fwd_gflop")
        out[f"tensor.{op}.bwd_gflop"] = total(f"tensor.{op}.bwd_gflop")
    grad_bytes = total("tensor.backward.grad_bytes")
    wasted_bytes = total("tensor.backward.wasted_grad_bytes")
    out.update({
        "tensor.conv2d.im2col_mb": peaks.get("tensor.conv2d.im2col_mb", 0.0),
        "tensor.backward_s": total("tensor.backward.s"),
        "tensor.backward.self_s": total("tensor.backward.self_s"),
        "tensor.tape.ops": peaks.get("tensor.tape.ops", 0.0),
        "tensor.tape.retained_mb": peaks.get("tensor.tape.retained_mb", 0.0),
        "tensor.backward.zero_grad_rules": total("tensor.backward.zero_grad_rules"),
        "tensor.backward.wasted_grad_mb": wasted_bytes / MB,
        "tensor.backward.wasted_gflop": total("tensor.backward.wasted_gflop"),
        "tensor.backward.useful_grad_share":
            1.0 - wasted_bytes / grad_bytes if grad_bytes else 1.0,
        "layers.batchnorm2d.fwd_s": total("layers.batchnorm2d_forward.s"),
        "layers.batchnorm2d.bwd_s": total("layers.batchnorm2d.bwd_s"),
        "layers.batchnorm2d.calls": total("layers.batchnorm2d_forward.calls"),
        "layers.dropout.fwd_s": total("layers.dropout.s"),
        "models.model_forward.train_s": total("models.model_forward.train.s"),
        "models.model_forward.eval_s": total("models.model_forward.eval.s"),
        "models.save_checkpoint_s": total("models.save_checkpoint.s"),
        "models.load_checkpoint_s": total("models.load_checkpoint.s"),
        "optim.train_steps_s":
            total("optim.train.s") - total("optim.train.evaluate_s"),
        "optim.evaluate_s": total("optim.evaluate.s"),
        "optim.adam_step_s": total("optim.adam_step.s"),
        "optim.add_l2_gradients_s": total("optim.add_l2_gradients.s"),
        "optim.rmse_loss.fwd_s": total("optim.rmse_loss.s"),
        "optim.rmse_loss.bwd_s": total("optim.rmse_loss.bwd_s"),
        "data.make_batch_s": total("data.make_batch.s"),
        "data.make_batch_mb": total("data.make_batch_mb"),
    })
    for fn in DATA_CALLS:
        out[f"data.{fn}_s"] = total(f"data.{fn}.s")
    for fn in RSS_CALLS:
        out[f"data.{fn}.rss_rise_mb"] = peaks.get(f"data.{fn}.rss_rise_mb", 0.0)
    out.update({
        "saliency.saliency_map_s": total("saliency.saliency_map.s"),
        "cli.import.self_s": total("cli.import.s") - total("cli.import.data_s"),
        "cli.split.self_s": total("cli.split.s") - total("cli.split.data_s"),
        "trace.task_s": task_s,
    })
    if list(out) != list(CATALOG):
        raise RuntimeError("layer metrics drifted from the catalog")
    return out
