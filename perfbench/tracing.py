"""Span tracing from outside the program.

The benchmark never edits program code.  It records spans in two ways:

- around its own calls into a module's public functions
  (``Tracer.span``), and
- by temporarily replacing a public function or method with a wrapper
  that opens a span around the original (``Tracer.patched``).

Every span sets a Spark job group, so Spark jobs started inside it are
charged to it.  When the run ends, ``Tracer.finish`` reads per-stage
counters from Spark's status store (no UI needed), charges each stage
to the job group of the first job that ran it, and computes self time
and self Spark counters per span.  Spans are kept in memory until then.
"""
from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional

#: Spark counters read per stage from the status store.
SPARK_FIELDS = ("jobs", "tasks", "executor_run_s", "executor_cpu_s",
                "shuffle_write_mb", "shuffle_read_mb")


class Tracer:
    """In-memory span recorder bound to one SparkContext.

    While ``enabled`` is false, ``span`` and the installed wrappers cost
    one attribute test and record nothing.
    """

    def __init__(self, sc):
        self.sc = sc
        self.enabled = False
        self.pass_name: Optional[str] = None
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    # ---- spans ------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record one span; the yielded dict collects the span's counts."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pass": self.pass_name,
            "group": f"perfbench-{len(self.spans)}",
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        self.sc.setJobGroup(rec["group"], name)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self.sc.setJobGroup(self._stack[-1]["group"], self._stack[-1]["name"])
            else:
                self.sc.setLocalProperty("spark.jobGroup.id", None)

    # ---- wrappers ---------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, count_fn: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as counts:
                out = fn(*args, **kwargs)
                if count_fn is not None:
                    counts.update(count_fn(args, kwargs, out))
                return out

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets) -> Iterator[None]:
        """Install span wrappers for ``targets`` and restore them on exit.

        Each target is ``(owner, attribute, span_name, count_fn)``:
        ``owner`` is a module (the one whose global the program looks
        up at call time) or a class; plain methods and classmethods are
        both handled.  ``count_fn(args, kwargs, result)`` returns the
        counts to add to the span, or is ``None``.
        """
        saved = []
        try:
            for owner, attr, name, count_fn in targets:
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(orig.__func__, name, count_fn))
                else:
                    new = self._wrap(orig, name, count_fn)
                saved.append((owner, attr, orig))
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # ---- end of run -------------------------------------------------------
    def finish(self) -> List[dict]:
        """Attach Spark counters, self time and durations to every span."""
        by_group = spark_counters_by_group(self.sc) if self.spans else {}
        children: Dict[int, List[dict]] = {}
        for s in self.spans:
            s["dur_s"] = s["end"] - s["start"]
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        for s in self.spans:
            kids = children.get(s["id"], [])
            s["self_s"] = s["dur_s"] - sum(k["dur_s"] for k in kids)
            s["spark_self"] = by_group.get(s["group"], dict.fromkeys(SPARK_FIELDS, 0))
        # inclusive counters: children finish before parents, so a reverse
        # walk over ids sees every child's total before its parent's
        for s in reversed(self.spans):
            tot = dict(s["spark_self"])
            for k in children.get(s["id"], []):
                for f in SPARK_FIELDS:
                    tot[f] += k["spark"][f]
            s["spark"] = tot
        return self.spans


def spark_counters_by_group(sc) -> Dict[str, Dict[str, float]]:
    """Per job group: jobs, tasks, executor run/CPU seconds, shuffle MB.

    Reads ``AppStatusStore`` through the JVM gateway, which works with
    ``spark.ui.enabled=false``.  A stage that several jobs share (later
    jobs skip it) is charged once, to the first job that lists it.
    """
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty(30_000)
    store = jsc.statusStore()
    jvm = sc._jvm
    conv = jvm.scala.jdk.javaapi.CollectionConverters
    stage_totals: Dict[int, list] = {}
    stages = store.stageList(
        jvm.java.util.ArrayList(), False, False,
        sc._gateway.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
    )
    for st in conv.asJava(stages):
        t = stage_totals.setdefault(st.stageId(), [0, 0.0, 0.0, 0.0, 0.0])
        t[0] += st.numTasks() if st.status().toString() != "SKIPPED" else 0
        t[1] += st.executorRunTime() / 1e3
        t[2] += st.executorCpuTime() / 1e9
        t[3] += st.shuffleWriteBytes() / 2**20
        t[4] += st.shuffleReadBytes() / 2**20

    out: Dict[str, Dict[str, float]] = {}
    charged = set()
    jobs = sorted(
        conv.asJava(store.jobsList(jvm.java.util.ArrayList())), key=lambda j: j.jobId()
    )
    for job in jobs:
        grp = job.jobGroup()
        if not grp.isDefined():
            continue
        acc = out.setdefault(grp.get(), dict.fromkeys(SPARK_FIELDS, 0))
        acc["jobs"] += 1
        for sid in conv.asJava(job.stageIds()):
            if sid in charged or sid not in stage_totals:
                continue
            charged.add(sid)
            n, run_s, cpu_s, w_mb, r_mb = stage_totals[sid]
            acc["tasks"] += n
            acc["executor_run_s"] += run_s
            acc["executor_cpu_s"] += cpu_s
            acc["shuffle_write_mb"] += w_mb
            acc["shuffle_read_mb"] += r_mb
    return out
