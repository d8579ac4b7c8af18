"""ADAM optimizer, staged learning-rate schedule, loss, and the train loop.

The loss is the root mean squared error pooled over both outputs of the
batch, plus an L2 penalty on every parameter. The penalty's gradient
(2*lambda*p) never enters the recorded graph: adam_step folds it into the
same block-wise pass that updates the moments and the parameter, so the
update allocates no parameter-sized temporary. add_l2_gradients is the unfused
reference for that term. Training runs a fixed number of epochs
through exactly four learning-rate stages. The stage index alone sets the
rate, and one rule ends a stage: every stage_length epochs, or with adaptive
stages once validation RMSE has stopped improving (patience 2) while a later
stage and a later epoch remain.

TrainState is the whole state between epochs and run_epoch the one step
from an epoch to the next; train() loops over it and writes the files.
Timing and resume wrap run_epoch and TrainState from outside.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from . import tensor as T
from .data import iter_batches
from .layers import Rng
from .metrics import compute_report
from .models import Model, _resnet_spatial_plan, model_forward, param_count, save_checkpoint


class NumericError(RuntimeError):
    """Training produced a non-finite quantity."""


# ---------------------------------------------------------------------------
# loss

def rmse_loss(pred: T.Tensor, target: T.Tensor) -> T.Tensor:
    """sqrt(mean((pred - target)^2)) over all entries; 1-element tensor."""
    if pred.shape != target.shape:
        raise T.ShapeError(f"rmse_loss: {pred.shape} vs {target.shape}")
    if pred.dtype != target.dtype:
        raise T.ShapeError("rmse_loss: dtype mismatch")
    diff = pred.data - target.data
    n = diff.size
    value = float(np.sqrt(np.mean(diff.astype(np.float64) ** 2)))
    out = np.array([value], dtype=pred.data.dtype)

    def rule(g):
        # d rmse / d pred = diff / (n * rmse); zero diff means zero grad,
        # so guard the denominator rather than divide by 0
        denom = n * max(value, 1e-30)
        gp = (g[0] / denom) * diff
        return (gp, -gp)

    return T.record("rmse_loss", (pred, target), out, rule)


def l2_penalty(params: dict, lam: float) -> float:
    """lambda * sum of squared parameter entries (float64 accumulation)."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if lam == 0:
        return 0.0
    return float(lam * sum(float(np.sum(p.data.astype(np.float64) ** 2))
                           for p in params.values()))


def add_l2_gradients(params: dict, lam: float) -> None:
    """Add the penalty gradient 2*lambda*p to each parameter's .grad.

    train folds this term into adam_step instead; this is its reference."""
    if lam == 0:
        return
    for p in params.values():
        contrib = (2.0 * lam) * p.data
        # .grad may alias another tensor's grad: replace, never mutate
        p.grad = contrib if p.grad is None else p.grad + contrib


def loss_with_l2(pred, target, params: dict, lam: float) -> float:
    """Scalar training objective: pooled RMSE plus the L2 penalty."""
    p = pred.data if isinstance(pred, T.Tensor) else np.asarray(pred)
    t = target.data if isinstance(target, T.Tensor) else np.asarray(target)
    if p.shape != t.shape:
        raise T.ShapeError(f"loss_with_l2: {p.shape} vs {t.shape}")
    rmse = float(np.sqrt(np.mean((p.astype(np.float64) - t.astype(np.float64)) ** 2)))
    return rmse + l2_penalty(params, lam)


# ---------------------------------------------------------------------------
# ADAM

# elements per working block in adam_step: its scratch is two blocks per
# dtype, never a parameter-sized temporary
_ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def adam_step(state: AdamState, params: dict, grads: dict, lr: float,
              l2_lambda: float = 0.0) -> None:
    """One in-place ADAM update with the L2 gradient 2*l2_lambda*p folded in.

    Missing grads count as zeros (moments decay), or as the bare L2 term
    when l2_lambda > 0. Every argument is checked before anything moves,
    so a refused call leaves p, m, v and t as they were. Each parameter is
    walked in blocks of _ADAM_BLOCK elements through two block-sized
    scratch arrays, in the float order of the unfused formula:
    g' = g + p*(2*lambda); m = m*b1 + g'*(1-b1); v = v*b2 + (g'*g')*(1-b2);
    p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps).
    """
    lr, lam2 = float(lr), 2.0 * float(l2_lambda)
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if lam2 < 0:
        raise ValueError(f"l2_lambda must be >= 0, got {l2_lambda}")
    unknown = set(grads) - set(params)
    if unknown:
        raise KeyError(f"grads for unknown parameters {sorted(unknown)[:4]}")
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and (g.shape != p.data.shape or g.dtype != p.data.dtype):
            raise T.ShapeError(f"grad {g.shape} {g.dtype} != param {name} "
                               f"{p.data.shape} {p.data.dtype}")
    state.t += 1
    b1, b2, eps = state.beta1, state.beta2, state.eps
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    scratch: dict = {}
    for name, p in params.items():
        # Tensor data and its zeros_like moments are contiguous, so these
        # flat reshapes are views that the blocks below update in place
        pf = p.data.reshape(-1)
        mf, vf = state.m[name].reshape(-1), state.v[name].reshape(-1)
        g = grads.get(name)
        gf = None if g is None else g.reshape(-1)
        if p.data.dtype not in scratch:
            scratch[p.data.dtype] = (np.empty(_ADAM_BLOCK, p.data.dtype),
                                     np.empty(_ADAM_BLOCK, p.data.dtype))
        sa, sb = scratch[p.data.dtype]
        for lo in range(0, pf.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, pf.size)
            pb, mb, vb = pf[lo:hi], mf[lo:hi], vf[lo:hi]
            a, b = sa[:hi - lo], sb[:hi - lo]
            gb = None if gf is None else gf[lo:hi]
            if lam2 != 0.0:
                np.multiply(pb, lam2, out=a)
                if gb is not None:
                    np.add(gb, a, out=a)
                gb = a
            mb *= b1
            vb *= b2
            if gb is not None:
                np.multiply(gb, 1.0 - b1, out=b)
                mb += b
                np.multiply(gb, gb, out=b)
                b *= 1.0 - b2
                vb += b
            np.divide(mb, bc1, out=a)
            a *= lr
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            pb -= a


# ---------------------------------------------------------------------------
# schedule

@dataclass(frozen=True)
class StageSchedule:
    """Exactly four stages of equal length with strictly decaying rates."""

    stage_length: int = 5
    stage_lrs: tuple = (1e-3, 3e-4, 1e-4, 3e-5)

    def __post_init__(self):
        if self.stage_length < 1:
            raise ValueError(f"stage_length must be >= 1, got {self.stage_length}")
        if len(self.stage_lrs) != 4:
            raise ValueError(f"exactly 4 stage rates required, got {len(self.stage_lrs)}")
        if any(lr <= 0 for lr in self.stage_lrs):
            raise ValueError("stage rates must be positive")
        if any(later >= earlier
               for earlier, later in zip(self.stage_lrs, self.stage_lrs[1:])):
            raise ValueError("stage rates must strictly decrease")

    @property
    def span(self) -> int:
        return self.stage_length * len(self.stage_lrs)


def lr_for_epoch(schedule: StageSchedule, epoch: int) -> float:
    if not 0 <= epoch < schedule.span:
        raise ValueError(f"epoch {epoch} outside schedule span [0, {schedule.span})")
    return schedule.stage_lrs[epoch // schedule.stage_length]


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 20
    l2_lambda: float = 0.0
    seed: int = 0
    schedule: StageSchedule = field(default_factory=StageSchedule)
    adaptive_stages: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.epochs > self.schedule.span:
            raise ValueError(
                f"epochs {self.epochs} exceed the schedule span {self.schedule.span}")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    stage: int
    lr: float
    train_rmse: float
    val_rmse: float
    train_solar_acc: float
    train_wind_acc: float
    val_solar_acc: float
    val_wind_acc: float


@dataclass
class EvalResult:
    n: int
    rmse: float
    solar_acc: float
    wind_acc: float
    pred: np.ndarray      # (N, 2) float64
    target: np.ndarray


@dataclass
class TrainState:
    """Everything one epoch hands the next; the next epoch is len(history)."""

    adam: AdamState
    rng: Rng                  # the dropout stream
    train_mean_solar: float   # the train split's means, which accuracy divides by
    train_mean_wind: float
    stage: int = 0            # stage, stall and best_val: the stage rule's state
    stall: int = 0
    best_val: float = np.inf
    history: list = field(default_factory=list)


def train_split_means(dataset, train_ids) -> tuple[float, float]:
    """The train split's (solar, wind) means; ValueError unless both are positive."""
    means = dataset.targets(train_ids).mean(axis=0)
    if (means <= 0).any():
        raise ValueError(f"training split has nonpositive mean production {means}")
    return float(means[0]), float(means[1])


def evaluate(model: Model, dataset, ids, stack: int, train_means,
             batch_size: int = 16) -> EvalResult:
    """Forward the given samples in eval mode and score them.

    train_means must be the TRAINING split's (solar, wind) production
    means so accuracy stays comparable across splits. The model's mode is
    restored afterwards.
    """
    ids = list(ids)
    if not ids:
        raise ValueError("evaluate needs at least one sample id")
    prior = model.mode
    model.eval()
    try:
        preds = []
        for lo in range(0, len(ids), batch_size):
            chunk = ids[lo:lo + batch_size]
            x, _ = dataset.make_batch(chunk, stack)
            preds.append(model_forward(model, x).data.astype(np.float64))
        pred = np.concatenate(preds, axis=0)
    finally:
        model.mode = prior
    target = dataset.targets(ids).astype(np.float64)
    rep = compute_report(pred, target, train_means)
    return EvalResult(len(ids), rep.rmse, rep.solar_accuracy, rep.wind_accuracy,
                      pred, target)


def _history_csv(history) -> str:
    names = [f.name for f in fields(EpochStats)]
    # ".9g" prints an int below 10**9 as itself: one format for every column
    rows = [",".join(f"{getattr(h, name):.9g}" for name in names) for h in history]
    return "\n".join([",".join(names), *rows]) + "\n"


def run_epoch(state: TrainState, model: Model, dataset, split,
              config: TrainConfig) -> bool:
    """Train and score epoch len(state.history); return whether its stage ended.

    Trains at schedule.stage_lrs[state.stage] on batches shuffled by
    (config.seed, epoch), scores both splits in eval mode for the history
    row, then applies the stage rule. Each step's gradients are freed at
    its update, so a step holds at most one gradient per parameter.
    Changes only `state` and the model: no log, no file. Raises
    NumericError on the first non-finite loss.
    """
    epoch, stage = len(state.history), state.stage
    lr = config.schedule.stage_lrs[stage]
    train_means = (state.train_mean_solar, state.train_mean_wind)
    model.train()
    for batch_ids in iter_batches(split.train, config.batch_size, config.seed, epoch):
        x, y = dataset.make_batch(batch_ids, split.stack)
        with T.Tape() as tape:
            pred = model_forward(model, x, rng=state.rng)
            loss = rmse_loss(pred, y)
            if not np.isfinite(loss.data[0]):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, first id {batch_ids[0]}")
            T.backward(tape, T.create([1], 1.0, dtype=loss.data.dtype))
        # no local names the gradients: clear_grads frees them before the
        # next backward allocates its own
        adam_step(state.adam, model.params,
                  {k: p.grad for k, p in model.params.items() if p.grad is not None},
                  lr, config.l2_lambda)
        T.clear_grads(model.params.values())

    tr = evaluate(model, dataset, split.train, split.stack, train_means, config.batch_size)
    va = evaluate(model, dataset, split.val, split.stack, train_means, config.batch_size)
    state.history.append(EpochStats(epoch, stage, lr, tr.rmse, va.rmse,
                                    tr.solar_acc, tr.wind_acc, va.solar_acc, va.wind_acc))

    if va.rmse < state.best_val:
        state.best_val = va.rmse
        state.stall = 0
    else:
        state.stall += 1

    if config.adaptive_stages:
        stage_ends = (state.stall >= 2 and stage + 1 < len(config.schedule.stage_lrs)
                      and epoch + 1 < config.epochs)
    else:
        stage_ends = (epoch + 1) % config.schedule.stage_length == 0
    if stage_ends:
        state.stage += 1
        state.stall = 0
    return stage_ends


def train(model: Model, dataset, split, config: TrainConfig,
          out_dir=None, log=None) -> TrainState:
    """Check the inputs, then loop run_epoch for config.epochs epochs.

    `split` needs .train, .val and .stack. Each epoch's row is logged, an
    ended stage k is saved as out_dir/stage<k>.wxpm, and final.wxpm and
    history.csv close the run. Returns the TrainState, the whole state
    between epochs; timing and resume wrap run_epoch, the step from one
    state to the next. Raises ValueError before the first step when a
    ResNet with a 1x1 last stage would get a one-sample batch.
    """
    train_ids, val_ids, stack = list(split.train), list(split.val), split.stack
    if not train_ids or not val_ids:
        raise ValueError("split must provide nonempty train and val id lists")
    want_c = dataset.input_channels(stack)
    if want_c != model.spec.input_channels:
        raise ValueError(f"model wants {model.spec.input_channels} channels, "
                         f"stack {stack} provides {want_c}")

    if model.spec.family == "resnet":
        # train-mode batchnorm needs 2 values per channel; a 1x1 last stage
        # gets one from a single-sample batch and would fail mid-epoch
        h, w = _resnet_spatial_plan(model.spec)[-1]
        smallest = len(train_ids) % config.batch_size or config.batch_size
        if h * w == 1 and smallest == 1:
            raise ValueError(
                f"{len(train_ids)} train samples in batches of {config.batch_size} "
                f"leave a one-sample batch, which batchnorm cannot train at the "
                f"{h}x{w} last ResNet stage; choose another batch size")

    state = TrainState(AdamState.init(model.params), Rng(config.seed),
                       *train_split_means(dataset, train_ids))

    say = log or (lambda msg: None)
    say(f"training {model.spec.family}: {param_count(model)} params, "
        f"{len(train_ids)} train / {len(val_ids)} val samples, stack {stack}")

    while len(state.history) < config.epochs:
        stage_ended = run_epoch(state, model, dataset, split, config)
        h = state.history[-1]
        say(f"epoch {h.epoch:3d} stage {h.stage + 1} lr {h.lr:.1e} "
            f"train_rmse {h.train_rmse:.4f} val_rmse {h.val_rmse:.4f}")
        if stage_ended and out_dir is not None:
            save_checkpoint(model, os.path.join(out_dir, f"stage{state.stage}.wxpm"))
        if stage_ended and config.adaptive_stages:
            say(f"epoch {h.epoch + 1}: validation stalled, advancing to stage {state.stage + 1}")

    model.eval()
    if out_dir is not None:
        save_checkpoint(model, os.path.join(out_dir, "final.wxpm"))
        with open(os.path.join(out_dir, "history.csv"), "w") as fh:
            fh.write(_history_csv(state.history))

    return state
