"""Reverse-mode automatic differentiation over float64 numpy arrays.

Define-by-run: every differentiable operation appends its result to a
thread-local tape, so creation order is a valid topological order and
backward() can walk the tape once, in reverse.  Shape rules are strict:
no implicit broadcasting except the *_rowvec helpers (bias-style) and
scale_rows (one scalar per row).
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

PROB_CLAMP = 1e-12      # floor applied to probabilities before log
MASK_LOGIT = -1e30      # additive score for masked attention entries

__all__ = [
    "Tensor", "Graph", "active_graph", "reset_graph", "no_grad", "backward",
    "add", "mul", "scale", "add_rowvec", "mul_rowvec", "scale_rows",
    "matmul", "transpose", "relu", "softmax", "dropout", "row_norm",
    "gather_rows", "concat_cols", "slice_cols", "sum_all", "cross_entropy",
    "finite_diff_check", "GradCheckReport", "PROB_CLAMP", "MASK_LOGIT",
]


class Tensor:
    """A float64 array plus the bookkeeping backward() needs.

    grad is None until a backward pass deposits something; repeated
    backward passes accumulate (callers reset via zero_grad).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


class Graph:
    """Execution tape of one thread: nodes in creation order."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[Tensor] = []


_LOCAL = threading.local()


def active_graph() -> Graph:
    g = getattr(_LOCAL, "graph", None)
    if g is None:
        g = Graph()
        _LOCAL.graph = g
    return g


def reset_graph() -> None:
    """Drop all recorded nodes of this thread's tape."""
    active_graph().nodes.clear()


def _grad_enabled() -> bool:
    return getattr(_LOCAL, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording (inference, finite differences)."""
    prev = _grad_enabled()
    _LOCAL.grad_enabled = False
    try:
        yield
    finally:
        _LOCAL.grad_enabled = prev


def _record(out: Tensor, inputs: tuple[Tensor, ...], bwd: Callable) -> Tensor:
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._backward = bwd
        active_graph().nodes.append(out)
    return out


def _acc(pending: dict, t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        cur = pending.get(t)
        pending[t] = g if cur is None else cur + g


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into .grad for every reachable
    requires_grad tensor.  loss must be a scalar."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    pending: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(active_graph().nodes):
        g = pending.pop(node, None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        node._backward(g, pending)
    # whatever is left never went through an op: leaves (parameters, inputs)
    for leaf, g in pending.items():
        if leaf.requires_grad:
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _need_2d(x: Tensor, op: str) -> None:
    if x.data.ndim != 2:
        raise ValueError(f"{op} needs a 2-D tensor, got shape {x.shape}")


# ---------------------------------------------------------------- arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g, pending):
        _acc(pending, a, g)
        _acc(pending, b, g)

    return _record(out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g, pending):
        _acc(pending, a, g * b.data)
        _acc(pending, b, g * a.data)

    return _record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(x.data * c)

    def bwd(g, pending):
        _acc(pending, x, g * c)

    return _record(out, (x,), bwd)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """x[i, :] + v for every row i (bias add)."""
    _need_2d(x, "add_rowvec")
    if v.data.ndim != 1 or v.shape[0] != x.shape[1]:
        raise ValueError(f"add_rowvec needs v of shape ({x.shape[1]},), got {v.shape}")
    out = Tensor(x.data + v.data)

    def bwd(g, pending):
        _acc(pending, x, g)
        _acc(pending, v, g.sum(axis=0))

    return _record(out, (x, v), bwd)


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """x[i, :] * v for every row i (layer-norm gain)."""
    _need_2d(x, "mul_rowvec")
    if v.data.ndim != 1 or v.shape[0] != x.shape[1]:
        raise ValueError(f"mul_rowvec needs v of shape ({x.shape[1]},), got {v.shape}")
    out = Tensor(x.data * v.data)

    def bwd(g, pending):
        _acc(pending, x, g * v.data)
        _acc(pending, v, (g * x.data).sum(axis=0))

    return _record(out, (x, v), bwd)


def scale_rows(x: Tensor, s: Tensor) -> Tensor:
    """x[i, :] * s[i, 0]: one scalar weight per row."""
    _need_2d(x, "scale_rows")
    if s.data.ndim != 2 or s.shape != (x.shape[0], 1):
        raise ValueError(f"scale_rows needs s of shape ({x.shape[0]}, 1), got {s.shape}")
    out = Tensor(x.data * s.data)

    def bwd(g, pending):
        _acc(pending, x, g * s.data)
        _acc(pending, s, (g * x.data).sum(axis=1, keepdims=True))

    return _record(out, (x, s), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul needs 2-D tensors, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g, pending):
        _acc(pending, a, g @ b.data.T)
        _acc(pending, b, a.data.T @ g)

    return _record(out, (a, b), bwd)


def transpose(x: Tensor) -> Tensor:
    _need_2d(x, "transpose")
    out = Tensor(x.data.T)

    def bwd(g, pending):
        _acc(pending, x, g.T)

    return _record(out, (x,), bwd)


# -------------------------------------------------------------- nonlinearity

def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def bwd(g, pending):
        # subgradient 0 at exactly 0
        _acc(pending, x, g * (x.data > 0.0))

    return _record(out, (x,), bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stable softmax along one axis (max subtraction)."""
    nd = x.data.ndim
    if nd == 0:
        raise ValueError("softmax needs at least one axis")
    ax = axis if axis >= 0 else nd + axis
    if not 0 <= ax < nd:
        raise ValueError(f"softmax axis {axis} out of range for shape {x.shape}")
    if x.data.shape[ax] == 0:
        raise ValueError("softmax along an empty axis")
    z = x.data - x.data.max(axis=ax, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=ax, keepdims=True)
    out = Tensor(y)

    def bwd(g, pending):
        dot = (g * y).sum(axis=ax, keepdims=True)
        _acc(pending, x, y * (g - dot))

    return _record(out, (x,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-rate).  rate=0 is
    the identity (returns x itself, no tape node)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep)

    def bwd(g, pending):
        _acc(pending, x, g * keep)

    return _record(out, (x,), bwd)


def row_norm(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Per-row standardization: (row - mean) / sqrt(pop_var + eps).
    Gain/bias are separate ops so this stays mean-0/var-1 exactly."""
    _need_2d(x, "row_norm")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Tensor(y)

    def bwd(g, pending):
        gm = g.mean(axis=1, keepdims=True)
        gy = (g * y).mean(axis=1, keepdims=True)
        _acc(pending, x, inv * (g - gm - y * gy))

    return _record(out, (x,), bwd)


# ------------------------------------------------------------ shape plumbing

def gather_rows(x: Tensor, indices) -> Tensor:
    """Select rows x[indices].  Backward scatter-adds, so repeated
    indices accumulate (embedding lookups rely on this)."""
    _need_2d(x, "gather_rows")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows needs a 1-D index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(
            f"row index out of range: valid [0, {x.shape[0]}), got "
            f"[{idx.min()}, {idx.max()}]")
    out = Tensor(x.data[idx])

    def bwd(g, pending):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            np.add.at(dx, idx, g)
            _acc(pending, x, dx)

    return _record(out, (x,), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the last axis."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0]
    for p in parts:
        _need_2d(p, "concat_cols")
        if p.shape[0] != rows:
            raise ValueError(
                f"concat_cols row mismatch: {p.shape[0]} vs {rows}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    widths = [p.shape[1] for p in parts]

    def bwd(g, pending):
        at = 0
        for p, w in zip(parts, widths):
            _acc(pending, p, g[:, at:at + w])
            at += w

    return _record(out, tuple(parts), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    _need_2d(x, "slice_cols")
    if not 0 <= start < stop <= x.shape[1]:
        raise ValueError(
            f"slice_cols [{start}:{stop}] out of range for shape {x.shape}")
    out = Tensor(x.data[:, start:stop].copy())

    def bwd(g, pending):
        if x.requires_grad:
            dx = np.zeros_like(x.data)
            dx[:, start:stop] = g
            _acc(pending, x, dx)

    return _record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(g, pending):
        _acc(pending, x, np.broadcast_to(g, x.data.shape).copy())

    return _record(out, (x,), bwd)


# --------------------------------------------------------------------- loss

def cross_entropy(probabilities: Tensor, targets) -> Tensor:
    """Mean over rows of -ln p[target], p clamped at PROB_CLAMP.

    Takes probabilities (each row must already sum to 1 within 1e-6),
    not logits; pair with softmax."""
    _need_2d(probabilities, "cross_entropy")
    p = probabilities.data
    n, c = p.shape
    if n == 0:
        raise ValueError("cross_entropy needs at least one row")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match {n} rows")
    if t.min() < 0 or t.max() >= c:
        raise ValueError(f"target class out of range [0, {c}): {t.min()}..{t.max()}")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} is not a distribution (sums to {sums[i]!r})")
    picked = p[np.arange(n), t]
    clamped = np.maximum(picked, PROB_CLAMP)
    out = Tensor(-np.log(clamped).mean())

    def bwd(g, pending):
        if probabilities.requires_grad:
            dp = np.zeros_like(p)
            live = picked > PROB_CLAMP  # clamp region is flat
            dp[np.arange(n), t] = np.where(live, -1.0 / clamped, 0.0) / n
            _acc(pending, probabilities, dp * g)

    return _record(out, (probabilities,), bwd)


# ----------------------------------------------------------- gradient check

@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    passed: bool


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    eps: float = 1e-5,
    tol: float = 1e-4,
    zero_tol: float = 1e-10,
) -> GradCheckReport:
    """Compare backward() gradients of f() against central differences.

    f is nullary, returns a scalar Tensor, and must be deterministic
    (it is evaluated twice up front to catch live dropout or an unseeded
    rng).  Every component of every parameter is perturbed by +-eps, so
    keep this at desk scale.  Relative error per component is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).

    Components where both estimates are below zero_tol count as exact
    agreement: on a flat direction (a self-attention key bias shifts
    every score of a query row equally, which softmax cancels) the true
    derivative is zero and both sides measure only rounding jitter, so
    their ratio says nothing about gradient correctness.  A non-finite
    estimate on either side is a relative error of inf, a failure.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be a finite number > 0, got {eps}")
    params = list(params)
    with no_grad():
        base = f().item()
        again = f().item()
    if base != again:
        raise ValueError(
            "f() is not deterministic between calls; disable dropout and "
            "fix all rng state before checking gradients")

    for _, p in params:
        p.zero_grad()
    reset_graph()
    backward(f())
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params
    }
    reset_graph()

    worst = 0.0
    worst_name = ""
    n_checked = 0
    with no_grad():
        for name, p in params:
            flat = p.data.reshape(-1)
            ga = analytic[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + eps
                f_plus = f().item()
                flat[i] = saved - eps
                f_minus = f().item()
                flat[i] = saved
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = ga[i]
                if not (np.isfinite(a) and np.isfinite(numeric)):
                    rel = np.inf
                elif max(abs(a), abs(numeric)) < zero_tol:
                    rel = 0.0
                else:
                    rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                n_checked += 1
                if rel > worst:
                    worst = rel
                    worst_name = f"{name}[{i}]"
    worst = float(worst)
    return GradCheckReport(worst, worst_name, n_checked, worst < tol)
