"""In-memory span tracing of wavecrit's layers, installed from outside.

The package binds names with ``from .x import f``, so a function can be
reached through several module attributes (``roots_for`` lives in
``characteristic`` and is bound again in ``packets``, ``corrector``,
``dns`` and ``cli``).  ``Tracer.install`` wraps the function once and
rebinds every ``wavecrit.*`` attribute that holds the original, so every
call site is seen; ``uninstall`` puts the originals back.

Each call records one span: (name, start, end, parent index, run id).
Spans stay in a list until ``write_csv`` is called at the end of a run.
"""

import csv
import importlib
import statistics
import sys
import time

#: layer -> (module, functions); "Class.method" names patch the class
LAYERS = {
    "characteristic": ("wavecrit.characteristic", ("roots_for", "eigenvector")),
    "boundary": ("wavecrit.boundary",
                 ("lift_critical", "lift_noncritical", "lift_nonoscillating")),
    "packets": ("wavecrit.packets", ("assemble_W0", "evaluate_packet")),
    "corrector": ("wavecrit.corrector",
                  ("assemble_W1", "lift_second_harmonic", "lift_mean_flow",
                   "modes_norms", "residual_Rapp", "evaluate_W1")),
    "dns": ("wavecrit.dns",
            ("Solver.__init__", "Solver.run", "Solver.step", "Solver.project",
             "Solver._diffuse", "Solver.advect", "Solver.dissipation",
             "init_from_Wapp", "compare_stability", "energy_budget")),
    "cli": ("wavecrit.cli", ("run_experiment",)),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent]
        self.results = {}  # name -> return values, for callers that ask
        self._stack = []
        self._undo = []
        self._layer_of = {}

    def _wrap(self, name, fn, keep_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep_result:
                self.results.setdefault(name, []).append(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, keep_results=()):
        """Wrap every function in LAYERS at each of its bindings."""
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "wavecrit" or n.startswith("wavecrit.")]
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            for name in names:
                self._layer_of[name] = layer
                keep = name in keep_results
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, keep))
                    continue
                orig = getattr(mod, name)
                wrapped = self._wrap(name, orig, keep)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s", "durations"}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "durations": []})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["durations"].append(t1 - t0)
        return out

    def covered_s(self) -> float:
        """Time inside the outermost spans of the non-cli layers."""
        total = 0.0
        for name, t0, t1, parent in self.spans:
            if self._layer_of[name] == "cli":
                continue
            if parent < 0 or self._layer_of[self.spans[parent][0]] == "cli":
                total += t1 - t0
        return total

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "layer", "start", "end", "parent",
                          "run_id"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                out.writerow([i, name, self._layer_of[name], repr(t0),
                              repr(t1), parent, self.run_id])


def percentile_ms(durations, q: int) -> float:
    """q-th percentile (1..99) of span durations, in milliseconds."""
    return 1e3 * statistics.quantiles(durations, n=100)[q - 1]
