"""Span recorder and layer wrappers for the benchmark's traced runs.

``install()`` wraps public functions of each layer, from outside the
program, so every call records a span: layer, thread, start, duration and
the time its child spans cover.  A root span (``_Handler.do_GET`` in the
server, one worker cycle in the FireWorks drain) sets a thread-local
operation id that its children inherit.  Spans stay in memory; ``dump()``
writes them, plus counter snapshots taken at the start and end of the
measured window, as one JSON file when the workload ends.

A layer's self time is its span's duration minus the part its child spans
cover.  Children run on the parent's thread, so that part is the sum of
the direct children's durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: Request header carrying the client's operation id into the server.
OP_HEADER = "X-Bench-Op"
#: Operation ids of measured operations start with this prefix; set-up and
#: warm-up requests use other ids and are left out of the aggregation.
MEASURED_PREFIX = "m"
#: Operation ids of the requests that open and close the measured window.
START_OP = "start"
END_OP = "end"


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # (op, layer, name, start, duration, child_time)
        self.spans: List[tuple] = []
        self.read_shapes: Dict[str, dict] = {}
        self.counters: Dict[str, Any] = {}
        self.store: Any = None
        self.window: List[Optional[float]] = [None, None]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    def call(self, layer: str, name: str, fn: Callable, args: tuple,
             kwargs: dict, op: Optional[str] = None) -> Any:
        stack = self._stack()
        is_root = op is not None
        if is_root:
            self._local.op = op
        frame = [0.0]  # time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            record = (self.op, layer, name, start, duration, frame[0])
            if is_root:
                self._local.op = None
            with self._lock:
                self.spans.append(record)

    # -- counter snapshots around the measured window ----------------------

    def _snapshot(self) -> dict:
        store = self.store
        if store is None:
            return {}
        status = store.server_status()
        return {
            "locks": store.lock_report()["totals"],
            "plan_cache": status.get("planCache", {}),
            "journal": status.get("journal", {}),
        }

    def mark_start(self) -> None:
        self.counters["start"] = self._snapshot()
        self.window[0] = time.perf_counter()

    def mark_end(self) -> None:
        self.window[1] = time.perf_counter()
        self.counters["end"] = self._snapshot()

    def note_read_shape(self, coll: Any, query: Any, sort: Any) -> None:
        """Count one read of a query shape; explained after the run."""
        key = json.dumps([coll.database.name if coll.database else None,
                          coll.name, _shape(query), sort], default=str)
        with self._lock:
            entry = self.read_shapes.get(key)
            if entry is None:
                self.read_shapes[key] = {"coll": coll, "query": query,
                                         "sort": sort, "count": 1}
            else:
                entry["count"] += 1

    def explain_shapes(self) -> List[dict]:
        """``explain()`` each distinct read shape (outside any timing)."""
        out = []
        for key, entry in self.read_shapes.items():
            try:
                plan = entry["coll"].explain(entry["query"], sort=entry["sort"])
            except Exception as exc:  # noqa: BLE001 - report, keep dumping
                out.append({"shape": key, "count": entry["count"],
                            "error": repr(exc)})
                continue
            out.append({"shape": key, "count": entry["count"],
                        "stage": plan.get("stage"),
                        "examined": plan.get("docsExamined"),
                        "returned": plan.get("nReturned")})
        return out

    def dump(self, path: str) -> None:
        if self.window[1] is None:
            self.mark_end()
        doc = {
            "window": self.window,
            "counters": self.counters,
            "read_shapes": self.explain_shapes(),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _shape(query: Any) -> Any:
    """A query with its values replaced by their type names."""
    if isinstance(query, dict):
        return {k: (_shape(v) if k.startswith("$") or isinstance(v, dict)
                    else type(v).__name__)
                for k, v in sorted(query.items())}
    if isinstance(query, list):
        return [_shape(v) for v in query]
    return type(query).__name__


def _wrap(recorder: Recorder, owner: Any, attr: str, layer: str,
          op_of: Optional[Callable[..., Optional[str]]] = None) -> None:
    original = getattr(owner, attr)
    name = f"{owner.__name__}.{attr}"

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        op = op_of(*args) if op_of is not None else None
        return recorder.call(layer, name, original, args, kwargs, op=op)

    setattr(owner, attr, wrapper)


#: (module, class, method, layer) wrapped in every traced process.
LAYER_FUNCTIONS = [
    ("repro.api.rest", "MaterialsAPI", "handle", "api.rest"),
    ("repro.api.queryengine", "QueryEngine", "query", "api.queryengine"),
    ("repro.api.querylog", "QueryLog", "record_access", "api.querylog"),
    ("repro.docstore.planner", "QueryPlanner", "plan", "docstore.planner"),
    ("repro.docstore.cursor", "Cursor", "to_list", "docstore.read"),
    ("repro.docstore.cursor", "Cursor", "__iter__", "docstore.read"),
    ("repro.docstore.collection", "Collection", "find_one", "docstore.read"),
    ("repro.docstore.collection", "Collection", "find_one_and_update",
     "docstore.write"),
    ("repro.docstore.collection", "Collection", "update_one",
     "docstore.write"),
    ("repro.docstore.collection", "Collection", "insert_one",
     "docstore.write"),
    ("repro.docstore.indexes", "IndexManager", "add_document",
     "docstore.indexes"),
    ("repro.docstore.persistence", "JournalWriter", "append",
     "docstore.persistence"),
    ("repro.fireworks.launchpad", "LaunchPad", "checkout_firework",
     "fireworks.launchpad"),
    ("repro.fireworks.launchpad", "LaunchPad", "apply_actions",
     "fireworks.launchpad"),
    ("repro.builders.core", "MaterialsBuilder", "refresh", "builders.core"),
    ("repro.obs.warehouse", "TelemetryWarehouse", "tick", "obs.warehouse"),
    ("repro.obs.flight", "FlightRecorder", "capture", "obs.flight"),
]


def install(recorder: Recorder, window_requests: bool = False) -> None:
    """Wrap every layer function; also capture the first store opened.

    With ``window_requests``, requests whose operation id is ``start`` or
    ``end`` open and close the measured window (the HTTP client's markers
    around its load).
    """
    import importlib

    for module, cls, attr, layer in LAYER_FUNCTIONS:
        _wrap(recorder, getattr(importlib.import_module(module), cls),
              attr, layer)

    from repro.api.httpd import _Handler
    from repro.docstore.collection import Collection
    from repro.docstore.cursor import Cursor
    from repro.docstore.database import DocumentStore

    def op_of_request(handler: Any) -> str:
        op = handler.headers.get(OP_HEADER) or "unlabelled"
        if window_requests and op == START_OP:
            recorder.mark_start()
        elif window_requests and op == END_OP:
            recorder.mark_end()
        return op

    _wrap(recorder, _Handler, "do_GET", "api.httpd", op_of=op_of_request)

    # Note every measured read's query shape so it can be explained after
    # the run: cursors are tagged with their query when ``find`` builds
    # them and noted when they execute; ``find_one`` is noted directly.
    find = Collection.find

    @functools.wraps(find)
    def tagged_find(self: Any, query: Any = None, *args: Any,
                    **kwargs: Any) -> Any:
        cursor = find(self, query, *args, **kwargs)
        cursor._bench_read = (self, query or {})
        return cursor

    Collection.find = tagged_find

    def note(coll: Any, query: Any, sort: Any) -> None:
        op = recorder.op
        if op is not None and op.startswith(MEASURED_PREFIX):
            recorder.note_read_shape(coll, query, sort)

    def noting_cursor(attr: str) -> None:
        execute = getattr(Cursor, attr)

        @functools.wraps(execute)
        def wrapper(self: Any) -> Any:
            read = getattr(self, "_bench_read", None)
            if read is not None:
                note(read[0], read[1], getattr(self, "_sort_spec", None) or None)
            return execute(self)

        setattr(Cursor, attr, wrapper)

    noting_cursor("to_list")
    noting_cursor("__iter__")
    find_one = Collection.find_one

    @functools.wraps(find_one)
    def noting_find_one(self: Any, query: Any = None, *args: Any,
                        **kwargs: Any) -> Any:
        note(self, query or {}, None)
        return find_one(self, query, *args, **kwargs)

    Collection.find_one = noting_find_one

    init = DocumentStore.__init__

    @functools.wraps(init)
    def capturing_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        if recorder.store is None and self.persistence_dir is not None:
            recorder.store = self

    DocumentStore.__init__ = capturing_init
