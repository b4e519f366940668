"""Spans around the hered3 layers, recorded from outside the package.

`Tracer.install` replaces module and class attributes with timing wrappers
at the names the callers look up (for example `solver.run_fixpoint`, which
solver imported by name), and `Tracer.restore` puts the originals back.
Only calls inside an open request are recorded, so set-up and answer checks
leave no spans.  A span is (name, start_ns, end_ns, parent index, request
id); self time is a span's duration minus its children's.

`graph` gets no span: its calls are too fine-grained to wrap without
distorting the numbers, so its cost lands in its callers' self time.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import thread_time_ns


def _cycle_name(args, kwargs):
    k = args[1] if len(args) > 1 else kwargs.get("k")
    return "patterns.c5" if k == 5 else "patterns.anchor_search"


_cycle_name.names = ("patterns.c5", "patterns.anchor_search")


# (module, owner attribute or None, attribute, span name or namer).  The
# owner is a class whose method is wrapped; None wraps the module attribute.
TARGETS = (
    ("patterns", None, "find_induced_cycle", _cycle_name),
    ("patterns", None, "find_induced_2p4", "patterns.2p4"),
    ("patterns", None, "find_co_c7", "patterns.co_c7"),
    ("patterns", None, "find_nonbipartite_neighborhood", "patterns.odd_nbhd"),
    ("solver", None, "run_fixpoint", "reductions.fixpoint"),
    ("solver", None, "_advance", "solver.stage"),
    ("solver", None, "_backtrack_color", "solver.backtrack"),
    ("solver", None, "_verify_witness", "solver.verify"),
    ("reductions", "Instance", "clone", "reductions.clone"),
    ("reductions", "Instance", "assemble_witness", "reductions.replay"),
    ("cograph", None, "cotree_or_failure", "cograph.cotree"),
    ("cograph", None, "list3color", "cograph.list3color"),
    ("twosat", "TwoSat", "solve", "twosat.solve"),
    ("formats", None, "parse_graph", "formats.parse"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.child_ns: list[int] = []
        self.misses = 0          # anchor searches that found no cycle
        self.absent: set[str] = set()   # span names whose target is missing
        self._stack: list[int] = []
        self._request = None
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self._request)
        self.child_ns.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(thread_time_ns())
        return idx

    def close(self, idx: int) -> None:
        end = thread_time_ns()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_ns[parent] += end - self.starts[idx]

    @contextmanager
    def request(self, rid: int):
        """Root span of one request; wrapped calls record only inside it."""
        self._request = rid
        idx = self.open("request")
        try:
            yield
        finally:
            self.close(idx)
            self._request = None

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_ns(self, idx: int) -> int:
        return self.ends[idx] - self.starts[idx] - self.child_ns[idx]

    # -- wrapping --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target present in `modules` (name -> module or None).

        The span names of a target missing from the program go to `absent`,
        so the benchmark keeps running after a stage is deleted.
        """
        for mod_name, owner_name, attr, naming in TARGETS:
            holder = modules.get(mod_name)
            if holder is not None and owner_name is not None:
                holder = getattr(holder, owner_name, None)
            fn = getattr(holder, attr, None) if holder is not None else None
            if fn is None:
                self.absent.update((naming,) if isinstance(naming, str) else naming.names)
                continue
            self._saved.append((holder, attr, fn))
            setattr(holder, attr, self._wrap(fn, naming))

    def restore(self) -> None:
        while self._saved:
            holder, attr, fn = self._saved.pop()
            setattr(holder, attr, fn)

    def _wrap(self, fn, naming):
        tracer = self
        fixed = naming if isinstance(naming, str) else None

        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            name = fixed or naming(args, kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if result is None and name == "patterns.anchor_search":
                tracer.misses += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries -------------------------------------------------------

    def totals(self, scale) -> dict:
        """name -> [calls, self ns], plus "cograph.cotree@patterns.2p4"
        counting cotree builds made directly by the 2P4 scan.  Self times
        are multiplied by scale[request id]."""
        out: dict = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, [0, 0])
            row[0] += 1
            row[1] += self.self_ns(idx) * scale[self.requests[idx]]
            parent = self.parents[idx]
            if name == "cograph.cotree" and parent >= 0 and self.names[parent] == "patterns.2p4":
                out.setdefault("cograph.cotree@patterns.2p4", [0, 0])[0] += 1
        return out

    def write(self, path) -> None:
        """One tab-separated line per span, in opening order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\trequest\tname\tparent\tstart_ns\tend_ns\tself_ns\n")
            for idx, name in enumerate(self.names):
                fh.write(f"{idx}\t{self.requests[idx]}\t{name}\t{self.parents[idx]}\t"
                         f"{self.starts[idx]}\t{self.ends[idx]}\t{self.self_ns(idx)}\n")
