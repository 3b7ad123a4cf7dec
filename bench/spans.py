"""In-memory spans, self-time arithmetic and the per-layer instrumentation.

A span is (id, name, start, end, parent id, run id).  Spans stay in memory
while the run executes and are written once it has ended.  A span name is
``layer`` or ``layer/detail``; the part before ``/`` is the layer the span's
self time is charged to, and only spans named exactly ``layer`` count as
calls of that layer.

The stepping layers have no tracing of their own, so
``Instrumentation.install`` wraps the functions the stepper looks up at call
time.  A name that is missing
(renamed or deleted by a later change) is reported as an absent layer
instead of raising.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Krylov solvers in scipy.sparse.linalg; none is called by the stepper yet
KRYLOV_NAMES = ("cg", "gmres", "lgmres", "bicgstab", "minres", "gcrotmk",
                "cgs", "qmr", "tfqmr", "bicg")
FACTOR_NAMES = ("splu", "spilu", "factorized")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def layer(self) -> str:
        return self.name.split("/", 1)[0]


class Tracer:
    """Records nested spans and per-layer counters for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.fill_nnz: Counter = Counter()     # layer -> summed L+U nonzeros
        self.fill_factors: Counter = Counter()  # layer -> factors with a fill

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        parent = self.current
        sp = Span(len(self.spans), name, self.clock(), float("nan"),
                  parent.id if parent else None, self.run_id)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(dataclasses.asdict(sp)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        lo_open = hi_open = None
        for c in sorted(children[sp.id], key=lambda c: c.start):
            lo, hi = max(c.start, sp.start), min(c.end, sp.end)
            if hi <= lo:
                continue
            if hi_open is None or lo > hi_open:
                if hi_open is not None:
                    covered += hi_open - lo_open
                lo_open, hi_open = lo, hi
            else:
                hi_open = max(hi_open, hi)
        if hi_open is not None:
            covered += hi_open - lo_open
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def subtree(spans, root_id: int) -> list:
    """The span with ``root_id`` and all its descendants."""
    keep = {root_id}
    out = []
    for sp in spans:                   # parents are recorded before children
        if sp.id in keep or sp.parent in keep:
            keep.add(sp.id)
            out.append(sp)
    return out


def layer_totals(spans) -> tuple[dict, Counter]:
    """(layer -> summed self time, layer -> calls) over ``spans``."""
    st = self_times(spans)
    seconds = defaultdict(float)
    calls = Counter()
    for sp in spans:
        seconds[sp.layer] += st[sp.id]
        if sp.name == sp.layer:
            calls[sp.layer] += 1
    return dict(seconds), calls


# ---------------------------------------------------------------------------
# instrumentation of the surfflow layers
# ---------------------------------------------------------------------------

# (module, dotted attribute, span name); a class method is patched on the
# class, a module function where the stepper looks it up at call time
FUNCTION_LAYERS = (
    ("surfflow.stepper", "step", "stepper.step"),
    ("surfflow.stepper", "assemble_linear", "stepper.assemble_linear"),
    ("surfflow.stepper", "_Terms.__init__", "stepper.terms"),
    ("surfflow.stepper", "_Terms.residual", "stepper.terms/residual"),
    ("surfflow.stepper", "_residual_vector", "stepper.terms/residual_vector"),
    ("surfflow.stepper", "_jacobian", "stepper.jacobian"),
    ("surfflow.stepper", "convect_skew", "mesh.convect"),
    ("surfflow.stepper", "convect_matrix", "mesh.convect"),
    ("surfflow.stepper", "convect_flux_jacobian", "mesh.convect"),
    ("surfflow.stepper", "transport_defect", "stepper.transport_defect"),
    ("surfflow.energy", "audit_step", "energy.audit"),
    ("surfflow.linalg", "MeanPoissonSolver.__init__", "linalg.init"),
    ("surfflow.linalg", "SaddleSolver.__init__", "linalg.init"),
    ("surfflow.linalg", "MeanPoissonSolver.solve", "linalg.solve"),
    ("surfflow.linalg", "SaddleSolver.solve", "linalg.solve"),
)

def _resolve(module: str, dotted: str):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class _TracedLU:
    """Newton factorization whose triangular solves are spans."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("stepper.newton_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _factor_wrapper(fn, tracer: Tracer):
    """A factorization is charged to ``linalg.factor`` inside a linalg solver
    constructor and to ``stepper.newton_factor`` anywhere else."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = tracer.current
        inside_linalg = parent is not None and parent.layer == "linalg.init"
        layer = "linalg.factor" if inside_linalg else "stepper.newton_factor"
        with tracer.span(layer):
            out = fn(*args, **kwargs)
        nnz = getattr(out, "nnz", None)      # SuperLU: L+U nonzeros
        if nnz is not None:
            tracer.fill_nnz[layer] += int(nnz)
            tracer.fill_factors[layer] += 1
        if not inside_linalg and hasattr(out, "solve"):
            return _TracedLU(out, tracer)
        return out
    return traced


class Instrumentation:
    """Installs the layer wrappers; ``restore`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._saved = []

    def _patch(self, owner, attr, value):
        # a class attribute is saved from the class itself, not a base class
        saved = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, value)

    def install(self, function_layers=FUNCTION_LAYERS):
        tracer = self.tracer
        for module, dotted, name in function_layers:
            found = _resolve(module, dotted)
            if found is None:
                self.absent.append(f"{name.split('/')[0]} ({module}.{dotted})")
                continue
            owner, attr, fn = found
            self._patch(owner, attr, tracer.wrap(fn, name))
        for attr in FACTOR_NAMES + KRYLOV_NAMES:
            found = _resolve("scipy.sparse.linalg", attr)
            if found is None:
                continue
            owner, attr, fn = found
            self._patch(owner, attr, _factor_wrapper(fn, tracer)
                        if attr in FACTOR_NAMES
                        else tracer.wrap(fn, "stepper.krylov"))
        return self

    def traced_cset(self, cset):
        """Copy of a ConstitutiveSet whose model functions are spans."""
        if not dataclasses.is_dataclass(cset):
            self.absent.append("constitutive.eval (ConstitutiveSet fields)")
            return cset
        updates = {f.name: self.tracer.wrap(getattr(cset, f.name), "constitutive.eval")
                   for f in dataclasses.fields(cset)
                   if f.name != "params" and callable(getattr(cset, f.name))}
        return dataclasses.replace(cset, **updates)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._saved.clear()
