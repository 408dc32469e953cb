"""The benchmark's own spans, recorded around the calls it makes.

Spans inside the program are the program's business (``repro.obs``);
these are taken from outside: one per phase and one per public call
(``db.put``/``get``/``scan``, ``cluster.serve``) of the traced pass.
Each span is ``name, start, end, parent`` on the host clock plus the
call's virtual submission and completion times, kept in memory and
written once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class SpanLog:
    """In-memory span list with a current-parent stack."""

    def __init__(self) -> None:
        self.spans: List[List[object]] = []
        #: (calls so far, probe result) every ``sample_every`` calls
        self.samples: List[Dict[str, int]] = []
        self._parents: List[int] = []
        self._origin = time.perf_counter_ns()
        self.calls = 0

    def _now(self) -> int:
        return time.perf_counter_ns() - self._origin

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A span that is the parent of everything recorded inside it."""
        parent = self._parents[-1] if self._parents else None
        record = [name, self._now(), None, parent, None, None]
        self.spans.append(record)
        self._parents.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._parents.pop()
            record[2] = self._now()

    def call(self, name: str, start: int, at: int, done: Optional[int]) -> None:
        self.spans.append(
            [name, start, self._now(), self._parents[-1], at, done]
        )

    def wrap_store(
        self,
        db,
        probe: Optional[Callable[[], Dict[str, int]]] = None,
        sample_every: int = 0,
    ) -> None:
        """Shadow ``db.put/get/scan`` with recording versions.

        Instance attributes win over the class's methods, so the timed
        code runs unchanged. ``probe`` is sampled every ``sample_every``
        calls (used for the write-amplification curve and shadow peak).
        """
        now, record = self._now, self.call
        put, get, scan = db.put, db.get, db.scan

        def sample() -> None:
            self.calls += 1
            if probe is not None and self.calls % sample_every == 0:
                self.samples.append(dict(probe(), calls=self.calls))

        def traced_put(key, value, at):
            start = now()
            done = put(key, value, at=at)
            record("db.put", start, at, done)
            sample()
            return done

        def traced_get(key, at):
            start = now()
            value, done = get(key, at=at)
            record("db.get", start, at, done)
            sample()
            return value, done

        def traced_scan(start_key, count, at):
            start = now()
            pairs, done = scan(start_key, count, at=at)
            record("db.scan", start, at, done)
            sample()
            return pairs, done

        db.put, db.get, db.scan = traced_put, traced_get, traced_scan

    def wrap_cluster(self, cluster) -> None:
        now, record = self._now, self.call
        serve = cluster.serve

        def traced_serve(request):
            start = now()
            done = serve(request)
            record("cluster.serve", start, request.arrival, done)
            return done

        cluster.serve = traced_serve

    def write(self, path: str, meta: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = (
            "name", "start_ns", "end_ns", "parent", "virt_start_ns",
            "virt_end_ns",
        )
        document = {
            "meta": meta,
            "clock": "start_ns/end_ns: host perf_counter ns since the "
                     "traced pass began; virt_*: simulated ns",
            "fields": ["id", *fields],
            "spans": [[index, *span] for index, span in enumerate(self.spans)],
            "samples": self.samples,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
