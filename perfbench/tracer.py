"""Outside-in tracing of jetcalc's layers, installed from the benchmark.

``Tracer.install`` rebinds every listed function wherever a ``jetcalc.*``
namespace or class holds it: modules import kernels by name
(``from .linalg import rank``) and classes alias methods
(``__rmul__ = __mul__``), so patching the defining module alone would
miss most callers.  A listed name that does not exist is recorded as
absent instead of failing, so later refactors do not break tracing.

Each wrapped call is a span.  Self time is the span's duration minus the
wall time of the wrapped calls it makes; the wrappers' own bookkeeping
and the derived-count probes are charged to neither.  Unwrapped helpers
(``multiindex``, ``fractions``, private functions) land in the self time
of the nearest wrapped caller.  Spans are aggregated per call path into
one tree per op.
"""

import functools
import importlib
import sys
import time

# Layers bottom-up, following the import stack; each entry lists the
# functions wrapped in that module.
LAYERS = (
    ("poly", ("Poly.__mul__", "Poly.mul_truncated", "Poly.__add__", "Poly.diff",
              "Poly.compose", "Poly.shift")),
    ("linalg", ("rref", "rank", "nullspace", "solve", "invert", "row_space_contains")),
    ("jets", ("jet_product", "prolong_vector_field", "FunctionJetSection.__add__",
              "VectorJetSection.__add__")),
    ("arrows", ("compose_arrows", "invert_arrow", "pushforward_vector_jet",
                "pushforward_function_jet", "Arrow.displacement_polynomials")),
    ("spencer", ("spencer_bracket", "algebraic_bracket", "isotropy_bracket", "jet_action",
                 "JetGroupAlgebra.check_jacobi", "JetGroupAlgebra.bracket_coords")),
    ("forms", ("exterior_derivative", "wedge", "interior_product", "lie_derivative")),
    ("liealg", ("validate_lie_algebra", "FiniteLieAlgebra.bracket", "ce_differential_matrix",
                "extension_two_cocycle", "is_split", "nilpotency_analysis")),
    ("lie_equations", ("solve_system", "prolongation_report", "LinearJetSubspace.contains",
                       "restrict_projection")),
    ("klein", ("validate_realization", "isotropy_filtration", "sigma_homomorphism_check",
               "RealizedLieAlgebra.jet_at_point")),
    ("cli", ("main",)),
)

TARGETS = tuple(f"{module}.{qual}" for module, quals in LAYERS for qual in quals)


def import_layers():
    """Import every traced module that exists; return the missing ones."""
    missing = []
    for module, _ in LAYERS:
        try:
            importlib.import_module(f"jetcalc.{module}")
        except ImportError:
            missing.append(module)
    return missing


# ---------------------------------------------------------------------------
# derived counts, taken outside the timed interval of each call


def _is_poly(x):
    return hasattr(x, "coeffs") and hasattr(x, "n")


def _probe_mul(counters, args, kwargs, result):
    left, right = args[0], args[1]
    pairs = len(left.coeffs) * (len(right.coeffs) if _is_poly(right) else 1)
    counters["poly.mul.term_pairs"] = counters.get("poly.mul.term_pairs", 0) + pairs


def _probe_mul_truncated(counters, args, kwargs, result):
    left, right = args[0], args[1]
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    hist = {}
    for m in right.coeffs:
        d = sum(m)
        hist[d] = hist.get(d, 0) + 1
    kept = 0
    for m in left.coeffs:
        d = sum(m)
        kept += sum(c for e, c in hist.items() if d + e <= max_degree)
    counters["poly.mul_truncated.pairs"] = (
        counters.get("poly.mul_truncated.pairs", 0) + len(left.coeffs) * len(right.coeffs)
    )
    counters["poly.mul_truncated.kept"] = counters.get("poly.mul_truncated.kept", 0) + kept


def _probe_rref(counters, args, kwargs, result):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    out, pivots = result
    bits = 0
    for row in out:
        for x in row:
            if x:
                b = max(x.numerator.bit_length(), x.denominator.bit_length())
                if b > bits:
                    bits = b
    nnz = sum(1 for row in matrix for x in row if x)
    for name, value in (
        ("linalg.rref.cells", rows * cols),
        ("linalg.rref.nnz", nnz),
        ("linalg.rref.rows", rows),
        ("linalg.rref.rank", len(pivots)),
    ):
        counters[name] = counters.get(name, 0) + value
    counters["linalg.rref.max_rows"] = max(counters.get("linalg.rref.max_rows", 0), rows)
    counters["linalg.rref.max_bits"] = max(counters.get("linalg.rref.max_bits", 0), bits)


PROBES = {
    "poly.Poly.__mul__": _probe_mul,
    "poly.Poly.mul_truncated": _probe_mul_truncated,
    "linalg.rref": _probe_rref,
}

# Counters merged by maximum rather than by sum.
PEAK_COUNTERS = ("linalg.rref.max_rows", "linalg.rref.max_bits")


def merge_counters(total, part):
    for name, value in part.items():
        if name in PEAK_COUNTERS:
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value


# ---------------------------------------------------------------------------


def _resolve(module, qual):
    """(owner, attribute name, raw attribute) or None when absent."""
    parts = qual.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    name = parts[-1]
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class Tracer:
    def __init__(self):
        self.stats = {key: [0, 0.0] for key in TARGETS}
        self.counters = {}
        self.absent = []
        self._patches = []
        self._root = [{}, 0.0]
        self._stack = [self._root]

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, quals in LAYERS:
            try:
                module = importlib.import_module(f"jetcalc.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{q}" for q in quals)
                continue
            for qual in quals:
                key = f"{module_name}.{qual}"
                found = _resolve(module, qual)
                if found is None or not callable(getattr(found[2], "__func__", found[2])):
                    self.absent.append(key)
                    continue
                owner, _, raw = found
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, key))
                else:
                    wrapped = self._wrap(raw, key)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [
                        m for name, m in list(sys.modules.items())
                        if m is not None and (name == "jetcalc" or name.startswith("jetcalc."))
                    ]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is raw:
                            self._patches.append((holder, name, raw))
                            setattr(holder, name, wrapped)
        self._install_cache_probe()
        return self

    def _install_cache_probe(self):
        """Count hits of forms' basis-bracket cache, if it still exists."""
        forms = sys.modules.get("jetcalc.forms")
        fn = getattr(forms, "_basis_bracket", None)
        cache = getattr(forms, "_BASIS_BRACKET_CACHE", None)
        if fn is None or not isinstance(cache, dict):
            self.absent.append("forms.basis_bracket.hit_ratio")
            return
        counters = self.counters

        def counted(n, k, s, t):
            counters["forms.basis_bracket.calls"] = counters.get("forms.basis_bracket.calls", 0) + 1
            if (n, k, s, t) in cache:
                counters["forms.basis_bracket.hits"] = counters.get("forms.basis_bracket.hits", 0) + 1
            return fn(n, k, s, t)

        self._patches.append((forms, "_basis_bracket", fn))
        forms._basis_bracket = counted

    def uninstall(self):
        for holder, name, raw in reversed(self._patches):
            setattr(holder, name, raw)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, key):
        stats = self.stats[key]
        stack = self._stack
        counters = self.counters
        probe = PROBES.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1]
            node = parent[0].get(key)
            if node is None:
                node = parent[0][key] = [{}, 0, 0.0, 0.0]
            frame = [node[0], 0.0]
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[1]
                stats[0] += 1
                stats[1] += own
                node[1] += 1
                node[2] += elapsed
                node[3] += own
                if returned and probe is not None:
                    probe(counters, args, kwargs, result)
                parent[1] += clock() - entered
            return result

        return traced

    # -- per-op snapshots ----------------------------------------------------

    def begin_op(self):
        """Start a fresh span tree; return a snapshot for ``end_op``."""
        self._root[0] = {}
        self._root[1] = 0.0
        return {k: list(v) for k, v in self.stats.items()}, dict(self.counters)

    def end_op(self, snapshot):
        """Per-op stats, counters and span tree since ``begin_op``."""
        stats0, counters0 = snapshot
        stats = {
            k: [v[0] - stats0[k][0], v[1] - stats0[k][1]]
            for k, v in self.stats.items()
            if v[0] != stats0[k][0]
        }
        counters = {}
        for name, value in self.counters.items():
            if name in PEAK_COUNTERS:
                counters[name] = value
            elif value != counters0.get(name, 0):
                counters[name] = value - counters0.get(name, 0)
        return {"stats": stats, "counters": counters, "tree": _tree(self._root[0])}


def _tree(children):
    return {
        key: {"calls": node[1], "total_s": node[2], "self_s": node[3], "children": _tree(node[0])}
        for key, node in children.items()
    }
