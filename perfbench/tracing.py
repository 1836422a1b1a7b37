"""Traced runs: spans around the calls into each engine layer.

The tracer wraps, for the length of a traced pass,

* ``generate_plan`` where ``repro.core.matcher`` and ``repro.core.mining``
  bind it (layer ``plan``);
* ``match_df`` at the same two bindings (layer ``build``: DataFrame
  construction over py4j);
* the DataFrame actions ``count``, ``collect`` and ``take``. Each action
  is split into ``optimize`` (Catalyst: analysis, optimization and
  physical planning, forced through ``queryExecution().executedPlan()``)
  and ``execute`` (running that same physical plan). ``count`` is run
  as ``groupBy().count()`` and ``take(n)`` as ``limit(n).collect()``,
  which is what PySpark's own methods run.

Spans stay in memory. Reading plan metrics and job status is itself a
span (layer ``trace``); it is not charged to the query, so for every
query plan + build + optimize + execute + ``mining.self_s`` equals the
query's time, and the cost of tracing shows as ``trace.overhead_frac``.
"""
from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

LAYERS = ("plan", "build", "optimize", "execute")
_JOIN_LINE = re.compile(r"^[\s:|+-]*Join ", re.M)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    query: int
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class QueryTrace:
    """Per-query totals: layer self time and counts read at the layer
    boundaries."""

    name: str
    seconds: float = 0.0  # wall time minus tracing bookkeeping
    layer_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    plan_max_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.seconds - sum(self.layer_s[layer] for layer in LAYERS)


class Tracer:
    def __init__(self, spark, dataframe_cls):
        self.sc = spark.sparkContext
        self.df_cls = dataframe_cls
        self.spans: list[Span] = []
        self.queries: list[QueryTrace] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._in_action = False

    # -- installing the wrappers ----------------------------------------
    def install(self) -> None:
        from repro.core import matcher, mining

        for mod in (matcher, mining):
            self._patch(mod, "generate_plan", self._wrap_plan)
            self._patch(mod, "match_df", self._wrap_build)
        self._collect = self.df_cls.collect
        for name in ("count", "collect", "take"):
            self._patch(self.df_cls, name, lambda orig, name=name: self._wrap_action(name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()
        self.sc._jsc.clearJobGroup()

    def _patch(self, owner, name, make) -> None:
        orig = getattr(owner, name)
        self._patched.append((owner, name, orig))
        setattr(owner, name, make(orig))

    # -- spans ------------------------------------------------------------
    @contextmanager
    def _span(self, layer: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent and parent.id, len(self.queries) - 1,
                 layer, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.end - s.start
            q = self.queries[-1]
            q.layer_s[layer] += s.self_s

    @contextmanager
    def query(self, name: str):
        """Trace one query; its jobs run under their own job group."""
        q = QueryTrace(name)
        self.queries.append(q)
        group = f"perfbench-q{len(self.queries)}"
        self.sc.setJobGroup(group, name)
        first = len(self.spans)
        t0 = time.perf_counter()
        try:
            yield q
        finally:
            wall = time.perf_counter() - t0
            q.seconds = wall - sum(
                s.end - s.start for s in self.spans[first:] if s.layer == "trace"
            )
            with self._span("trace"):
                self._record_jobs(q, group)

    # -- wrappers -----------------------------------------------------------
    def _wrap_plan(self, fn):
        def generate_plan(*args, **kwargs):
            with self._span("plan") as s:
                out = fn(*args, **kwargs)
            q = self.queries[-1]
            q.counts["plan.calls"] += 1
            q.plan_max_s = max(q.plan_max_s, s.end - s.start)
            return out

        return generate_plan

    def _wrap_build(self, fn):
        def match_df(*args, **kwargs):
            with self._span("build"):
                df = fn(*args, **kwargs)
                with self._span("trace"):
                    q = self.queries[-1]
                    q.counts["build.calls"] += 1
                    analyzed = df._jdf.queryExecution().analyzed().treeString()
                    q.counts["build.joins"] += len(_JOIN_LINE.findall(analyzed))
            return df

        return match_df

    def _wrap_action(self, kind: str, orig):
        tracer = self

        def action(df, *args, **kwargs):
            if tracer._in_action:  # an action called by another one
                return orig(df, *args, **kwargs)
            collect = tracer._collect
            tracer._in_action = True
            try:
                with tracer._span("action"):
                    if kind == "count":
                        target = df.groupBy().count()
                    elif kind == "take":
                        target = df.limit(args[0] if args else kwargs["num"])
                    else:
                        target = df
                    with tracer._span("optimize"):
                        plan = target._jdf.queryExecution().executedPlan()
                    with tracer._span("execute"):
                        rows = collect(target)
                    result = rows[0][0] if kind == "count" else rows
                    with tracer._span("trace"):
                        q = tracer.queries[-1]
                        q.counts["mining.actions"] += 1
                        n = int(result) if kind == "count" else len(rows)
                        q.counts["execute.result_rows"] += n
                        if kind != "count":
                            q.counts["mining.collected_rows"] += n
                        _record_plan(q, plan)
            finally:
                tracer._in_action = False
            return result

        return action

    # -- reading Spark's own accounting -------------------------------------
    def _record_jobs(self, q: QueryTrace, group: str) -> None:
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        stages = {}
        jobs = st.getJobIdsForGroup(group)
        for j in jobs:
            info = st.getJobInfo(j)
            for sid in info.stageIds if info else ():
                si = st.getStageInfo(sid)
                if si is not None and si.numCompletedTasks + si.numFailedTasks:
                    stages[sid] = si
        q.counts["execute.jobs"] += len(jobs)
        q.counts["execute.stages"] += len(stages)
        q.counts["execute.tasks"] += sum(s.numCompletedTasks for s in stages.values())
        q.counts["execute.failed_tasks"] += sum(s.numFailedTasks for s in stages.values())


def _record_plan(q: QueryTrace, plan) -> None:
    """Join output rows and shuffle writes of the executed plan, and the
    shuffle exchanges Catalyst planned."""
    adaptive = plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec"
    initial = plan.initialPlan() if adaptive else plan

    def planned(cls, node):
        if cls == "ShuffleExchangeExec":
            q.counts["optimize.exchanges"] += 1

    _walk(initial, planned)

    def visit(cls, node):
        if cls.endswith("JoinExec") or cls == "CartesianProductExec":
            q.counts["execute.join_rows"] += _metric(node, "numOutputRows")
        elif cls == "ShuffleExchangeExec":
            q.counts["execute.shuffle_bytes"] += _metric(node, "shuffleBytesWritten")
            q.counts["execute.shuffle_records"] += _metric(node, "shuffleRecordsWritten")

    _walk(plan, visit)


def _walk(node, visit) -> None:
    """Visit every operator of a physical plan, descending through AQE's
    final plan and query stages; a reused exchange is counted where it ran."""
    cls = node.getClass().getSimpleName()
    if cls == "AdaptiveSparkPlanExec":
        return _walk(node.executedPlan(), visit)
    if cls.endswith("QueryStageExec"):
        return _walk(node.plan(), visit)
    if cls == "ReusedExchangeExec":
        return None
    visit(cls, node)
    children = node.children()
    for i in range(children.size()):
        _walk(children.apply(i), visit)
    return None


def _metric(node, name: str) -> int:
    m = node.metrics().get(name)
    return int(m.get().value()) if m.isDefined() else 0
