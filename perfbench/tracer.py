"""Traced run of one graphinv command, in process.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json CLI-ARGS...

Wraps the public functions of each layer in every graphinv module that binds
them (``census.snf`` and ``sandpile.snf`` as well as ``exact.snf``), runs
``graphinv.cli.main(argv)`` once, and exits with its code.  Spans are kept in
memory as (name, start, end, parent, kind) and written to SPANS.json at the
end, with the counts, the per-layer metrics and the environment.  ``kind`` is
the matrix kind of a charpoly or SNF call, known when its argument is the
matrix the latest ``build`` returned.

Generator functions (the corpus generators and the graph6 reader) get one
span per item they yield, so their spans cover the work of producing the
corpus and none of the consumer's work between items.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

KINDS = ("A", "L", "Q", "D", "DL", "DQ", "Atr", "AtrPlus", "Ddeg", "DdegPlus")

# Public functions wrapped, by defining module.
TARGETS = {
    "exact": ("charpoly", "snf"),
    "matrices": ("build",),
    "graphs": ("distance_profile", "conductance", "iter_graph6", "parse_graph6"),
    "generators": ("generate_connected_graphs", "generate_trees"),
    "census": ("run_census", "bucket_counts", "tree_census"),
    "spectra": ("eigenvalues_symmetric",),
    "sandpile": ("sandpile_group", "cross_check"),
}

_DONE = object()


def environment() -> dict:
    """Git revision (read from .git, if the checkout has one), Python, nproc, load."""
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: "):
            ref = ROOT / ".git" / rev[5:]
            rev = ref.read_text().strip() if ref.is_file() else rev[5:]
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load1": os.getloadavg()[0],
    }


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.last_built = None
        self.last_kind = None
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                return self._items(name, fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                kind = None
                if name in ("exact.charpoly", "exact.snf") and args and args[0] is self.last_built:
                    kind = self.last_kind
                result = self._call(name, kind, fn, args, kwargs)
                if name == "matrices.build":
                    self.last_built = result
                    self.last_kind = (args[1] if len(args) > 1 else kwargs["kind"]).value
                elif name == "census.bucket_counts":
                    tables = result[2].values()
                    self.counts["census.buckets"] += sum(len(t) for t in tables)
                    largest = max((max(t.values(), default=0) for t in tables), default=0)
                    self.counts["census.largest_bucket"] = max(self.counts["census.largest_bucket"], largest)
                return result
        return functools.update_wrapper(wrapper, fn)

    def _call(self, name, kind, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, perf_counter(), parent, kind)
            stack.pop()

    def _items(self, name, it):
        while True:
            item = self._call(name, None, next, (it, _DONE), {})
            if item is _DONE:
                return
            self.counts[name] += 1
            yield item

    def install(self) -> None:
        """Replace every binding of each target in the loaded graphinv modules."""
        modules = [m for n, m in sys.modules.items() if n == "graphinv" or n.startswith("graphinv.")]
        wrappers = {}
        for mod_name, names in TARGETS.items():
            mod = sys.modules.get(f"graphinv.{mod_name}")
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{name}")
                else:
                    wrappers[id(fn)] = self.wrap(f"{mod_name}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def metrics(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start

        def spans_of(names):
            return [i for i, s in enumerate(spans) if s[0] in names]

        def busy(*names):
            # Spans with an ancestor of the same layer are already covered.
            total = 0.0
            for i in spans_of(names):
                p = spans[i][3]
                while p >= 0 and spans[p][0] not in names:
                    p = spans[p][3]
                if p < 0:
                    total += spans[i][2] - spans[i][1]
            return total

        def self_time(*names):
            return sum(spans[i][2] - spans[i][1] - child[i] for i in spans_of(names))

        def calls(name):
            return len(spans_of((name,)))

        def by_kind(name):
            out = dict.fromkeys(KINDS, 0.0)
            for n, start, end, _, kind in spans:
                if n == name and kind in out:
                    out[kind] += end - start
            return out

        s, c = "s", "count"
        m = {
            "exact.charpoly_s": (busy("exact.charpoly"), s),
            "exact.charpoly_calls": (calls("exact.charpoly"), c),
            "exact.snf_s": (busy("exact.snf"), s),
            "exact.snf_calls": (calls("exact.snf"), c),
        }
        for op in ("charpoly", "snf"):
            for kind, t in by_kind(f"exact.{op}").items():
                m[f"exact.{op}_s.{kind}"] = (t, s)
        gens = ("generators.generate_connected_graphs", "generators.generate_trees")
        m.update({
            "generators.busy_s": (busy(*gens), s),
            "generators.graphs": (sum(self.counts[g] for g in gens), c),
            "graphs.parse_s": (busy("graphs.iter_graph6", "graphs.parse_graph6"), s),
            "graphs.records": (self.counts["graphs.iter_graph6"], c),
            "graphs.distance_s": (busy("graphs.distance_profile"), s),
            "graphs.distance_calls": (calls("graphs.distance_profile"), c),
            "graphs.conductance_s": (busy("graphs.conductance"), s),
            "graphs.conductance_calls": (calls("graphs.conductance"), c),
            "matrices.build_s": (busy("matrices.build"), s),
            "matrices.build_calls": (calls("matrices.build"), c),
            "census.self_s": (self_time("census.run_census", "census.bucket_counts", "census.tree_census"), s),
            "census.buckets": (self.counts["census.buckets"], c),
            "census.largest_bucket": (self.counts["census.largest_bucket"], c),
            "spectra.eigen_s": (busy("spectra.eigenvalues_symmetric"), s),
            "spectra.eigen_calls": (calls("spectra.eigenvalues_symmetric"), c),
            "sandpile.busy_s": (busy("sandpile.sandpile_group", "sandpile.cross_check"), s),
            "cli.self_s": (self_time("cli.main"), s),
        })
        return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def main(out: str, argv: list[str]) -> int:
    env = environment()
    from graphinv import cli

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    record = {
        "argv": argv,
        "env": env,
        "exit": code,
        "missing": tracer.missing,
        "metrics": tracer.metrics(),
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }
    Path(out).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
