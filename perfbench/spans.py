"""Span tracer for the benchmark's traced run.

Wrappers defined here are installed on ``mlplr`` module attributes at each
layer boundary for the duration of a ``traced()`` block and restored when
it exits. A span records its name, start, end and parent; its self time is
its duration minus the durations of its child spans. Spans of the hot
inner calls (about 25k objective evaluations per profile) are folded into
per-name aggregates of count, total and self time, so the trace stays
bounded in memory however long the run is.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import mlplr
import mlplr.estimation
import mlplr.harness
import mlplr.likelihood
import mlplr.limit_law
import mlplr.model

# Spans recorded only as aggregates; all of them are leaves of the span tree.
HOT = frozenset(
    {
        "estimation.objective",
        "model.project",
        "model.forward_batch",
        "limit_law.cone_eval",
        "limit_law.basis_eval",
        "limit_law.enumerate_partitions",
    }
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Open spans form a stack; closing one charges its duration to the
    parent's child time."""

    def __init__(self, hot=HOT, clock=time.perf_counter):
        self.hot = hot
        self.clock = clock
        self.spans: list[Span] = []
        self.agg: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0

    def open(self, name: str) -> list:
        frame = [self._next_id, name, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed while {top[1]!r} is open")
        span_id, name, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        if name in self.hot:
            entry = self.agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s
        else:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(Span(span_id, name, start, end, parent, duration - child_s))

    def calls(self, name: str) -> int:
        if name in self.agg:
            return self.agg[name][0]
        return sum(1 for s in self.spans if s.name == name)

    def total_s(self, name: str) -> float:
        if name in self.agg:
            return self.agg[name][1]
        return sum(s.duration for s in self.spans if s.name == name)

    def self_s(self, name: str) -> float:
        if name in self.agg:
            return self.agg[name][2]
        return sum(s.self_s for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def layer_self_s(self, layer: str) -> float:
        """Self time of every span whose name starts with ``layer.``."""
        prefix = layer + "."
        out = sum(s.self_s for s in self.spans if s.name.startswith(prefix))
        return out + sum(v[2] for n, v in self.agg.items() if n.startswith(prefix))


# ---------------------------------------------------------------------------
# Hooks that read counts off a wrapped call's arguments and result
# ---------------------------------------------------------------------------


def _after_fit(tracer: Tracer, args, kwargs, fit) -> None:
    config = kwargs["config"] if "config" in kwargs else args[3]
    best = max(fit.per_start_logliks)
    c = tracer.counts
    c["estimation.iters"] += sum(fit.per_start_iters)
    c["estimation.starts"] += len(fit.per_start_iters)
    c["estimation.maxiter_starts"] += sum(it >= config.max_iters for it in fit.per_start_iters)
    c["estimation.useful_starts"] += sum(v >= best - 1e-6 for v in fit.per_start_logliks)
    c["estimation.converged_fits"] += int(fit.converged)


def _after_project(tracer: Tracer, args, kwargs, out) -> None:
    if out is args[0]:  # project_vector hands back a feasible input unchanged
        tracer.counts["model.project_noop"] += 1


def _after_cone_eval(tracer: Tracer, args, kwargs, out) -> None:
    cols = args[2]  # (self, g, cols, v_lin)
    tracer.counts["limit_law.cone_solves"] += 2 ** cols.shape[1] - 1


def _after_partitions(tracer: Tracer, args, kwargs, out) -> None:
    tracer.counts["limit_law.partitions"] += len(out)


def _after_gram(tracer: Tracer, args, kwargs, gram) -> None:
    if gram.method == "mc":
        tracer.counts["limit_law.gram_draws"] += gram.mc_draws


def _simulate_name(args, kwargs) -> str:
    k = kwargs["k"] if "k" in kwargs else args[1]
    return f"limit_law.simulate.k{k}" + ("ext" if kwargs.get("extended") else "")


# (owner, attribute, span name or name function, hook run on the result)
BOUNDARIES = [
    (mlplr, "run_replicates", "harness.run_replicates", None),
    (mlplr.harness, "_run_one", "harness.task", None),
    (mlplr.harness, "generate_dataset", "model.generate_dataset", None),
    (mlplr.harness, "profile_lr_curve", "estimation.profile", None),
    (mlplr.harness, "conditional_loglik", "likelihood.loglik", None),
    (mlplr.harness, "lr_statistic", "likelihood.lr", None),
    (mlplr.harness, "penalty_value", "selection.penalty", None),
    (mlplr.estimation, "fit_mle", "estimation.fit", _after_fit),
    (mlplr.estimation, "negloss_and_grad", "estimation.objective", None),
    (mlplr.estimation, "project_vector", "model.project", _after_project),
    (mlplr.estimation, "conditional_loglik", "likelihood.loglik", None),
    (mlplr.likelihood, "mlp_forward_batch", "model.forward_batch", None),
    (mlplr.model, "mlp_forward_batch", "model.forward_batch", None),
    (mlplr, "gram_matrix", "limit_law.gram", _after_gram),
    (mlplr, "gram_matrix_gh", "limit_law.gram", _after_gram),
    (mlplr.limit_law, "eval_score_basis_batch", "limit_law.basis_eval", None),
    (mlplr, "check_h4", "limit_law.h4", None),
    (mlplr.limit_law, "check_h4", "limit_law.h4", None),
    (mlplr, "simulate_limit", _simulate_name, None),
    (mlplr.limit_law, "enumerate_partitions", "limit_law.enumerate_partitions", _after_partitions),
    (mlplr.limit_law._ConeMaximizer, "values_with_columns", "limit_law.cone_eval", _after_cone_eval),
]


def _wrap(tracer: Tracer, fn, name, after):
    def wrapper(*args, **kwargs):
        frame = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install a wrapper at every boundary; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, after in BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
