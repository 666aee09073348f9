"""In-memory spans around the calls into each torsionlab layer.

The wrappers live here, not in the package: `install` replaces a public
function in every torsionlab module that imported it by name (and methods
on their classes), `restore` puts the originals back.  Every span records
its name, start, end, parent span and the index of the CLI call (the
item) it belongs to; self time is computed from those records afterwards.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# span names in report order; each reports .calls, .busy_s and .self_s
SPANS = (
    "cli.dispatch",
    "walks.run_walk",
    "walks.embedded_qr",
    "hermitian.matmul",
    "ringcore.laurent_mul",
    "ringcore.laurent_add",
    "mahler.build_K_alpha",
    "hermitian.check_form_preserved",
    "hermitian.block_det",
    "ringcore.cyc_mul",
    "homology.growth_scan",
    "homology.cover_homology",
    "homology.circulant_det",
    "homology.smith_normal_form",
    "mahler.mahler_measure",
    "mahler.polyroots",
    "mahler.kronecker_zero_test",
    "ringcore.cyclotomic",
    "ringcore.divide_exact",
    "mahler.constraint_check",
)

# extra counts: name -> (unit, better)
COUNTS = {
    "ringcore.laurent_mul.term_products": ("count", "lower"),
    "ringcore.laurent_mul.max_coeff_bits": ("bits", "lower"),
    "homology.cover_homology.snf": ("count", "lower"),
    "homology.cover_homology.circulant_det": ("count", "higher"),
    "homology.circulant_det.nonzero_ratio": ("ratio", "higher"),
    "homology.smith_normal_form.max_dim": ("count", "lower"),
    "homology.torsion_bits": ("bits", "higher"),
    "mahler.polyroots.degree_sum": ("count", "lower"),
    "mahler.polyroots.max_dps": ("digits", "lower"),
    "mahler.kronecker_zero_test.certified": ("count", "higher"),
    "mahler.kronecker_zero_test.rejected": ("count", "higher"),
    "mahler.kronecker_zero_test.raised": ("count", "lower"),
    "ringcore.divide_exact.hit_ratio": ("ratio", "higher"),
}


class Tracer:
    """Span records in parallel arrays, so millions of spans stay small."""

    def __init__(self):
        self.name = array("B")
        self.nest = array("B")  # spans of the same name already open
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._depth = [0] * len(SPANS)
        self.current_item = -1
        self.count = dict.fromkeys(COUNTS, 0)
        self.count["homology.circulant_det.nonzero"] = 0
        self.count["ringcore.divide_exact.hits"] = 0

    def open(self, k: int) -> int:
        i = len(self.start)
        self.name.append(k)
        d = self._depth[k]
        self.nest.append(d if d < 255 else 255)
        self._depth[k] = d + 1
        self.parent.append(self._stack[-1])
        self.item.append(self.current_item)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int, k: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()
        self._depth[k] -= 1

    def bump_max(self, key: str, value: int) -> None:
        if value > self.count[key]:
            self.count[key] = value

    def metrics(self) -> dict:
        """calls, busy (outermost spans of a name) and self time per span."""
        import numpy as np  # loaded by torsionlab already

        k = len(SPANS)
        name = np.frombuffer(self.name, dtype=np.uint8).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        outer = np.frombuffer(self.nest, dtype=np.uint8) == 0
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name[outer], weights=dur[outer], minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        out = {}
        for i, s in enumerate(SPANS):
            out[f"{s}.calls"] = int(calls[i])
            out[f"{s}.busy_s"] = float(busy[i]) / 1e9
            out[f"{s}.self_s"] = float(own[i]) / 1e9
        c = self.count
        for key in COUNTS:
            out[key] = c[key]
        circ = out["homology.circulant_det.calls"]
        div = out["ringcore.divide_exact.calls"]
        out["homology.circulant_det.nonzero_ratio"] = (
            c["homology.circulant_det.nonzero"] / circ if circ else 0.0
        )
        out["ringcore.divide_exact.hit_ratio"] = (
            c["ringcore.divide_exact.hits"] / div if div else 0.0
        )
        return out


def _span(tracer: Tracer, name: str, fn, after=None, outermost_only=False):
    k = SPANS.index(name)
    depth = tracer._depth
    open_, close = tracer.open, tracer.close

    def wrapped(*args, **kwargs):
        if outermost_only and depth[k]:
            return fn(*args, **kwargs)
        i = open_(k)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(i, k)
        if after is not None:
            after(args, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


class _Proxy:
    """Module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class Installation:
    """Wrappers installed into torsionlab; `restore` undoes every patch."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original, wrapper) -> None:
        """Replace `original` in every torsionlab module bound to it."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "torsionlab":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, attr, wrapper)

    def method(self, cls, attrs, wrapper) -> None:
        for attr in attrs:
            self.replace(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def install(tracer: Tracer) -> Installation:
    from torsionlab import cli, hermitian, homology, mahler, ringcore, walks

    inst = Installation()
    count = tracer.count

    def fn(name, original, **kw):
        inst.function(original, _span(tracer, name, original, **kw))

    fn("cli.dispatch", cli.dispatch)
    fn("walks.run_walk", walks.run_walk)
    fn("mahler.build_K_alpha", mahler.build_K_alpha)
    fn("hermitian.check_form_preserved", hermitian.check_form_preserved)
    fn("hermitian.block_det", hermitian.block_det, outermost_only=True)
    fn("homology.growth_scan", homology.growth_scan)
    fn("mahler.mahler_measure", mahler.mahler_measure)
    fn("mahler.constraint_check", mahler.constraint_check)
    fn("ringcore.cyclotomic", ringcore.cyclotomic)

    def after_cover(args, rep):
        count["homology.torsion_bits"] += rep.torsion_order.bit_length()
        key = "snf" if rep.method == "snf" else "circulant_det"
        count[f"homology.cover_homology.{key}"] += 1

    fn("homology.cover_homology", homology.cover_homology, after=after_cover)

    def after_circ(args, det):
        if det:
            count["homology.circulant_det.nonzero"] += 1

    fn("homology.circulant_det", homology.circulant_det, after=after_circ)

    def after_snf(args, snf):
        tracer.bump_max("homology.smith_normal_form.max_dim", max(snf.shape))

    fn("homology.smith_normal_form", homology.smith_normal_form, after=after_snf)

    kron = _span(tracer, "mahler.kronecker_zero_test", mahler.kronecker_zero_test)

    def kronecker(p):
        try:
            fac = kron(p)
        except Exception:
            count["mahler.kronecker_zero_test.raised"] += 1
            raise
        key = "rejected" if fac is None else "certified"
        count[f"mahler.kronecker_zero_test.{key}"] += 1
        return fac

    kronecker.__wrapped__ = mahler.kronecker_zero_test
    inst.function(mahler.kronecker_zero_test, kronecker)

    def after_roots(args, roots):
        count["mahler.polyroots.degree_sum"] += len(args[0]) - 1
        tracer.bump_max("mahler.polyroots.max_dps", mahler.mp.mp.dps)

    polyroots = _span(tracer, "mahler.polyroots", mahler.mp.polyroots, after=after_roots)
    inst.replace(mahler, "mp", _Proxy(mahler.mp, polyroots=polyroots))

    qr = _span(tracer, "walks.embedded_qr", walks.np.linalg.qr)
    inst.replace(walks, "np", _Proxy(walks.np, linalg=_Proxy(walks.np.linalg, qr=qr)))

    LP = ringcore.LaurentPoly

    def after_mul(args, out):
        if out is NotImplemented:
            return
        a, b = args
        if isinstance(b, LP):
            count["ringcore.laurent_mul.term_products"] += len(a.coeffs) * len(b.coeffs)
        if out.coeffs:
            bits = max(abs(c) for c in out.coeffs.values()).bit_length()
            tracer.bump_max("ringcore.laurent_mul.max_coeff_bits", bits)

    def after_div(args, quot):
        if quot is not None:
            count["ringcore.divide_exact.hits"] += 1

    inst.method(LP, ("__mul__", "__rmul__"),
                _span(tracer, "ringcore.laurent_mul", LP.__mul__, after=after_mul))
    inst.method(LP, ("__add__", "__radd__"),
                _span(tracer, "ringcore.laurent_add", LP.__add__))
    inst.method(LP, ("divide_exact",),
                _span(tracer, "ringcore.divide_exact", LP.divide_exact, after=after_div))
    inst.method(ringcore.CycElem, ("__mul__", "__rmul__"),
                _span(tracer, "ringcore.cyc_mul", ringcore.CycElem.__mul__))
    inst.method(hermitian.FormMatrix, ("__matmul__",),
                _span(tracer, "hermitian.matmul", hermitian.FormMatrix.__matmul__))
    return inst
