"""Span tracer installed around relbetti's public functions from outside.

`Tracer.install()` wraps each traced function once and rebinds that one
wrapper under every name a relbetti module holds for it, including the
values of module-level dicts such as the CLI's builder tables: a
`from relbetti.fieldlin import rref` makes a binding of its own, and two
wrappers for one function would count its calls twice.

A span is (name, start, end, parent, item).  Spans live in flat arrays
while the run lasts and are written out with `save()` at its end.
Functions that run so often that a span would cost more than it tells
(matrix and module constructors, cached composites) only bump a counter.
Every count is taken from argument and result shapes or from span
parentage, never from inside the program.
"""
import array
import sys
import time
from collections import defaultdict

import numpy as np


def _shape_cells(m):
    return m.rows * m.cols


def _rref_cells(counts, args, out):
    counts["fieldlin.rref.cells"] += _shape_cells(args[0])


def _kron_cells(counts, args, out):
    counts["fieldlin.kron.cells"] += _shape_cells(out)


def _nat_basis_shape(counts, args, out):
    f, g = args
    poset = f.poset
    sizes = [g.dims[a] * f.dims[a] for a in range(poset.n)]
    counts["homalg.nat_basis.unknowns"] += sum(sizes)
    if sum(sizes):
        # block rows nat_basis keeps: all-zero ones constrain nothing
        counts["homalg.nat_basis.equations"] += sum(
            g.dims[b] * f.dims[a]
            for a, b in poset.covers
            if sizes[a] or sizes[b]
        )
    counts["homalg.nat_basis.basis_dim"] += len(out)


def _koszul_cells(counts, args, out):
    counts["homalg.koszul.cells"] += sum(out.dims)


def _resolution_degrees(key):
    def measure(counts, args, out):
        counts[key] += len(out.terms)
    return measure


def _index_elements(counts, args, out):
    counts["collections.index_elements"] += out.index.n


# (module, attribute path, span name, measure); the attribute path names
# a module function, a method, or a staticmethod
SPANS = [
    ("relbetti.fieldlin", "rref", "fieldlin.rref", _rref_cells),
    ("relbetti.fieldlin", "kernel_basis", "fieldlin.kernel_basis", None),
    ("relbetti.fieldlin", "solve", "fieldlin.solve", None),
    ("relbetti.fieldlin", "kron", "fieldlin.kron", _kron_cells),
    ("relbetti.fieldlin", "homology_dims", "fieldlin.homology_dims", None),
    ("relbetti.fieldlin", "Matrix.__matmul__", "fieldlin.matmul", None),
    ("relbetti.poset", "Poset.from_covers", "poset.construct", None),
    ("relbetti.poset", "Poset.from_order", "poset.construct", None),
    ("relbetti.poset", "Poset.grid", "poset.construct", None),
    ("relbetti.poset", "Poset.sublattice_closure",
     "poset.sublattice_closure", None),
    ("relbetti.pmod", "radical", "pmod.radical", None),
    ("relbetti.pmod", "free_on", "pmod.free_on", None),
    ("relbetti.pmod", "direct_sum", "pmod.direct_sum", None),
    ("relbetti.pmod", "PersistenceModule.map", "pmod.map", None),
    ("relbetti.homalg", "nat_basis", "homalg.nat_basis", _nat_basis_shape),
    ("relbetti.homalg", "NatTransformation.__matmul__", "homalg.compose",
     None),
    ("relbetti.homalg", "kernel", "homalg.kernel", None),
    ("relbetti.homalg", "minimal_cover", "homalg.minimal_cover", None),
    ("relbetti.homalg", "minimal_resolution", "homalg.minimal_resolution",
     _resolution_degrees("homalg.minimal_resolution.degrees")),
    ("relbetti.homalg", "koszul", "homalg.koszul", _koszul_cells),
    ("relbetti.relative", "CollectionFunctor.pair_basis",
     "relative.pair_basis", None),
    ("relbetti.relative", "nat_module", "relative.nat_module", None),
    ("relbetti.relative", "unit", "relative.unit", None),
    ("relbetti.relative", "relative_minimal_resolution",
     "relative.relative_minimal_resolution",
     _resolution_degrees("relative.relative_minimal_resolution.degrees")),
    ("relbetti.relative", "relative_betti_diagram",
     "relative.relative_betti_diagram", None),
    ("relbetti.relative", "is_thin", "relative.is_thin", None),
    ("relbetti.relative", "is_flat", "relative.is_flat", None),
    ("relbetti.relative", "degeneracy_hypothesis",
     "relative.degeneracy_hypothesis", None),
    ("relbetti.cli", "main", "cli.main", None),
] + [
    ("relbetti.collections", name, "collections.build", _index_elements)
    for name in (
        "singleton", "all_subfunctors", "translated", "spreads_omega",
        "single_source_omega0", "lower_hooks", "lower_hooks_inf",
        "rectangles_naive", "rectangles_grid",
    )
]

# counted, not timed
COUNTERS = [
    ("relbetti.fieldlin", "Matrix.__init__", "fieldlin.matrix.constructions"),
    ("relbetti.pmod", "PersistenceModule.__init__",
     "pmod.module.constructions"),
    ("relbetti.poset", "Poset.meet_bounded", "poset.meet_bounded.calls"),
    ("relbetti.pmod", "h0", "pmod.h0.calls"),
    ("relbetti.relative", "CollectionFunctor.arrow_to",
     "relative.arrow_to.calls"),
]


class Tracer:
    """Collects spans and counts for one process; see the module doc."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self._stack = [-1]
        self.item = -1
        self.counts = defaultdict(int)
        self.item_counts = {}
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name, measure):
        nid = self._name_id(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, clock, tracer = self.counts, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if measure is not None:
                measure(counts, args, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every traced function once and rebind it everywhere."""
        import relbetti.cli  # noqa: F401  (imports every traced module)

        wrappers = {}
        targets = [(m, p, ("span", n, f)) for m, p, n, f in SPANS]
        targets += [(m, p, ("count", k, None)) for m, p, k in COUNTERS]
        for modname, path, (kind, name, measure) in targets:
            owner = sys.modules[modname]
            attr = path
            if "." in path:
                clsname, attr = path.split(".")
                owner = getattr(owner, clsname)
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if id(fn) in wrappers:
                raise RuntimeError(f"{modname}.{path} is traced twice")
            if kind == "span":
                new = self._span_wrapper(fn, name, measure)
            else:
                new = self._count_wrapper(fn, name)
            new.__name__, new.__doc__ = fn.__name__, fn.__doc__
            new.__wrapped__ = fn
            wrappers[id(fn)] = (fn, new)
            self._set(owner, attr, staticmethod(new) if static else new)
        for modname, mod in list(sys.modules.items()):
            if modname != "relbetti" and not modname.startswith("relbetti."):
                continue
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, key, hit[1])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._undo.append((val.__setitem__, k, v))
                            val[k] = hit[1]
        return self

    def _set(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        self._undo.append((lambda k, v, o=owner: setattr(o, k, v), attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)

    def begin_item(self, item):
        self.item = item
        self._before = dict(self.counts)

    def end_item(self):
        delta = {
            k: v - self._before.get(k, 0)
            for k, v in self.counts.items()
            if v != self._before.get(k, 0)
        }
        self.item_counts[self.item] = delta
        self.item = -1

    def arrays(self):
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.span_item, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }


def save(path, spans, counts):
    """Write spans (a dict of arrays as from Tracer.arrays) and counts."""
    np.savez_compressed(
        path,
        names=np.array(list(spans["names"]), dtype=str),
        name=spans["name"], parent=spans["parent"], item=spans["item"],
        start=spans["start"], end=spans["end"],
        count_keys=np.array(sorted(counts), dtype=str),
        count_vals=np.array([counts[k] for k in sorted(counts)],
                            dtype=np.int64),
    )


def load(path):
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "parent", "item", "start", "end")}
        spans["names"] = list(z["names"])
        counts = dict(zip(z["count_keys"].tolist(),
                          z["count_vals"].tolist()))
    return spans, counts


def concat(parts):
    """Merge span sets from several processes into one (parents shift)."""
    names = []
    ids = {}
    out = {k: [] for k in ("name", "parent", "item", "start", "end")}
    offset = 0
    for spans in parts:
        remap = np.array(
            [ids.setdefault(nm, len(ids)) for nm in spans["names"]],
            dtype=np.int32,
        )
        names = list(ids)
        n = len(spans["name"])
        out["name"].append(remap[spans["name"]] if n else spans["name"])
        par = spans["parent"].copy()
        par[par >= 0] += offset
        out["parent"].append(par)
        for k in ("item", "start", "end"):
            out[k].append(spans[k])
        offset += n
    merged = {
        k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
        for k, v in out.items()
    }
    merged["names"] = names
    return merged


# spans reported with calls and self time
_TIMED = [
    "fieldlin.rref", "fieldlin.kernel_basis", "fieldlin.solve",
    "fieldlin.kron", "fieldlin.homology_dims", "fieldlin.matmul",
    "poset.sublattice_closure", "pmod.radical", "pmod.free_on",
    "pmod.direct_sum", "homalg.nat_basis", "homalg.compose",
    "homalg.kernel", "homalg.minimal_cover", "homalg.minimal_resolution",
    "homalg.koszul", "relative.nat_module", "relative.unit",
    "collections.build",
]
# spans reported with self time only
_SELF_ONLY = [
    "relative.relative_minimal_resolution",
    "relative.relative_betti_diagram",
    "relative.is_thin",
    "relative.is_flat",
    "relative.degeneracy_hypothesis",
    "cli.main",
]


def layer_metrics(spans, counts):
    """Per-layer metrics from merged spans and counts.

    Returns {metric: value}; every metric of the benchmark's per-layer
    list except the trace.* and cli.startup_s/stdout_bytes ones, which
    need the run's wall times.
    """
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    n = len(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=n)
    self_time = dur - child_time[:n]
    nid = {nm: i for i, nm in enumerate(names)}

    def mask(span_name):
        i = nid.get(span_name)
        return name == i if i is not None else np.zeros(n, dtype=bool)

    def children_named(span_name):
        # spans that have at least one direct child called span_name
        flag = np.zeros(n, dtype=bool)
        m = mask(span_name) & has_parent
        flag[parent[m]] = True
        return flag

    out = {}
    for span_name in _TIMED:
        m = mask(span_name)
        out[f"{span_name}.calls"] = int(m.sum())
        out[f"{span_name}.self_s"] = float(self_time[m].sum())
    for span_name in _SELF_ONLY:
        out[f"{span_name}.self_s"] = float(self_time[mask(span_name)].sum())

    construct = mask("poset.construct")
    nested = np.zeros(n, dtype=bool)
    nested[has_parent] = construct[parent[has_parent]]
    out["poset.construct.calls"] = int((construct & ~nested).sum())
    out["poset.construct.self_s"] = float(self_time[construct].sum())

    maps = mask("pmod.map")
    out["pmod.map.calls"] = int(maps.sum())
    out["pmod.map.misses"] = int((maps & children_named("fieldlin.matmul")).sum())

    pairs = mask("relative.pair_basis")
    misses = int((pairs & children_named("homalg.nat_basis")).sum())
    calls = int(pairs.sum())
    out["relative.pair_basis.calls"] = calls
    out["relative.pair_basis.misses"] = misses
    out["relative.pair_basis.hits"] = calls - misses
    out["relative.pair_basis.hit_ratio"] = (
        (calls - misses) / calls if calls else 0.0
    )

    for key in (
        "fieldlin.rref.cells", "fieldlin.kron.cells",
        "fieldlin.matrix.constructions", "poset.meet_bounded.calls",
        "pmod.h0.calls", "pmod.module.constructions",
        "homalg.nat_basis.unknowns", "homalg.nat_basis.equations",
        "homalg.nat_basis.basis_dim", "homalg.minimal_resolution.degrees",
        "homalg.koszul.cells", "relative.arrow_to.calls",
        "relative.relative_minimal_resolution.degrees",
        "collections.index_elements",
    ):
        out[key] = int(counts.get(key, 0))
    return out


def inclusive_share(spans, span_name, total_s):
    """Share of total_s spent inside the items' outermost spans called
    span_name."""
    names = spans["names"]
    if span_name not in names or total_s <= 0:
        return 0.0
    i = names.index(span_name)
    name, parent = spans["name"], spans["parent"]
    m = (name == i) & (spans["item"] >= 0)
    inner = np.zeros(len(name), dtype=bool)
    # a span nested in another of the same name is already covered; walk
    # up the parent chain for the few names that recurse
    for s in np.nonzero(m)[0]:
        p = parent[s]
        while p >= 0:
            if name[p] == i:
                inner[s] = True
                break
            p = parent[p]
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    return float(dur[m & ~inner].sum() / total_s)


def root_time(spans):
    """Seconds covered by item spans that have no parent span."""
    dur = (spans["end"] - spans["start"]).astype(np.float64) / 1e9
    return float(dur[(spans["parent"] < 0) & (spans["item"] >= 0)].sum())
