"""Outside-in span tracing of staralg, installed at run time from the benchmark.

No file of the package is touched. Each traced layer is a public function (or
a ``StarAlgebra`` method, or a ``numpy.linalg`` entry point); the tracer
replaces it in every namespace its callers look it up in: the home module,
every ``staralg`` module that imported it by name, the package namespace,
the class, or ``numpy.linalg``. ``uninstall`` puts the originals back.

Layer spans (package functions) are kept in memory, one record per call, and
written out when the run ends. Kernel calls (element products, regular
representations and LAPACK entry points) are too many to keep one record
each, so they are counted per enclosing layer span instead. Every span
contributes its calls, total time, self time (its duration minus the time of
the traced calls inside it) and how many calls raised.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (span name, module, attribute, is_kernel). The span name is the layer
# (module without the package prefix) and the public name.
SPANS = [
    ("core.mul_coeffs", "staralg.core", "StarAlgebra.mul_coeffs", True),
    ("core.left_mat", "staralg.core", "StarAlgebra.left_mat", True),
    ("core.right_mat", "staralg.core", "StarAlgebra.right_mat", True),
    ("core.validate", "staralg.core", "validate", False),
    ("core.spectrum", "staralg.core", "spectrum", False),
    ("structure.analyze", "staralg.structure", "analyze", False),
    ("structure.check_proper", "staralg.structure", "check_proper", False),
    ("structure.radical", "staralg.structure", "radical", False),
    ("structure.check_hermitian", "staralg.structure", "check_hermitian", False),
    ("structure.central_atoms", "staralg.structure", "central_atoms", False),
    ("structure.abelian_split", "staralg.structure", "abelian_split", False),
    ("structure.block_star_isomorphism", "staralg.structure", "block_star_isomorphism", False),
    ("structure.matrix_unit_residual", "staralg.structure", "matrix_unit_residual", False),
    ("rickart.check_weakly_rickart", "staralg.rickart", "check_weakly_rickart", False),
    ("rickart.check_baer", "staralg.rickart", "check_baer", False),
    ("rickart.annihilator", "staralg.rickart", "annihilator", False),
    ("rickart.join", "staralg.rickart", "join", False),
    ("rickart.meet", "staralg.rickart", "meet", False),
    ("spectral.spectral_decompose", "staralg.spectral", "spectral_decompose", False),
    ("spectral.right_projection", "staralg.spectral", "right_projection", False),
    ("spectral.quasi_inverse", "staralg.spectral", "quasi_inverse", False),
    ("spectral.positive_sqrt", "staralg.spectral", "positive_sqrt", False),
    ("spectral.ep_witness", "staralg.spectral", "ep_witness", False),
    ("spectral.cstar_norm", "staralg.spectral", "cstar_norm", False),
    ("linalg.nullspace", "staralg.linalg", "nullspace", False),
    ("linalg.colspace", "staralg.linalg", "colspace", False),
    ("groups.certify_group_theorem", "staralg.groups", "certify_group_theorem", False),
    ("groups.build_group_algebra", "staralg.groups", "build_group_algebra", False),
    ("instances.semisimple_instance", "staralg.instances", "semisimple_instance", False),
    ("numpy.linalg.eig", "numpy.linalg", "eig", True),
    ("numpy.linalg.eigvals", "numpy.linalg", "eigvals", True),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh", True),
    ("numpy.linalg.svd", "numpy.linalg", "svd", True),
    ("numpy.linalg.lstsq", "numpy.linalg", "lstsq", True),
    ("numpy.linalg.inv", "numpy.linalg", "inv", True),
]

# Look-up sites that must be wrapped: these names are called through
# namespaces other than their home module.
REQUIRED_SITES = [
    "staralg.structure.validate",
    "staralg.structure.spectral_decompose",
    "staralg.rickart.right_projection",
    "staralg.analyze",
]


class Tracer:
    """Wraps the layers in SPANS and aggregates the spans they record."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name, *_ in SPANS}  # calls, total, self, failed
        self.spans = []          # [id, parent id, name, t0, t1, failed, item]
        self.kernel_counts = {}  # (parent span id, name) -> [calls, total_s]
        self.dims = {}           # span name -> {algebra dim: calls}
        self.baer = [0, 0]       # annihilator subsets tested, generator failures
        self.sites = {}          # span name -> look-up sites replaced
        self.item = None
        self._stack = [[None, 0.0, {}]]  # frames: [span id, child time, kernel counts]
        self._patches = []

    # -- installation ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.sites = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "staralg" or name.startswith("staralg."))]
        for name, modname, attr, kernel in SPANS:
            home = importlib.import_module(modname)
            if "." in attr:  # a method: replace it on the class
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth), kernel),
                            f"{modname}.{attr}")
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, kernel)
            owners = [home] if modname == "numpy.linalg" else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper, f"{mod.__name__}.{key}")
        wrapped = {site for sites in self.sites.values() for site in sites}
        missing = [s for s in REQUIRED_SITES if s not in wrapped]
        if missing:
            self.uninstall()
            raise RuntimeError(f"look-up sites not wrapped: {missing}")

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def _patch(self, owner, key, wrapper, site):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)
        self.sites.setdefault(wrapper.__trace_name__, []).append(site)

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, kernel):
        wrapper = (self._kernel_wrapper if kernel else self._span_wrapper)(name, fn)
        wrapper.__trace_name__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel_wrapper(self, name, fn):
        """Counted and timed; no record of its own, no traced children."""
        stats = self.stats[name]
        stack = self._stack
        dims = self.dims.setdefault(name, {}) if name == "core.mul_coeffs" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if dims is not None:
                n = args[0].mul.shape[0]
                dims[n] = dims.get(n, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dur = perf_counter() - t0
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur
                entry = parent[2].get(name)
                if entry is None:
                    parent[2][name] = [1, dur]
                else:
                    entry[0] += 1
                    entry[1] += dur

        return wrapper

    def _span_wrapper(self, name, fn):
        """One record per call, linked to the span that caused it."""
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        counts = self.kernel_counts
        dims = self.dims.setdefault(name, {}) if name == "core.validate" else None
        baer = self.baer if name == "rickart.check_baer" else None
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id before children record
            frame = [span_id, 0.0, {}]
            parent = stack[-1]
            if dims is not None:
                n = args[0].dim
                dims[n] = dims.get(n, 0) + 1
            failed = 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                stats[3] += failed
                spans[span_id] = [span_id, parent[0], name, t0, t1, failed, tracer.item]
                for kname, entry in frame[2].items():
                    counts[(span_id, kname)] = entry
            if baer is not None:
                baer[0] += result.details.get("witness_subsets", 0)
                baer[1] += result.details.get("generator_failures", 0)
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def fired(self):
        return {name for name, s in self.stats.items() if s[0] > 0}

    def self_total_s(self):
        return sum(s[2] for s in self.stats.values())

    def dump(self):
        """Every recorded span and kernel count, for writing out at the end of a run."""
        counts = [[p, n, c, t] for (p, n), (c, t) in self.kernel_counts.items()]
        counts += [[None, n, c, t] for n, (c, t) in self._stack[0][2].items()]  # outside any span
        return {
            "span_fields": ["id", "parent", "name", "t0", "t1", "failed", "item"],
            "spans": self.spans,
            "kernel_count_fields": ["parent", "name", "calls", "total_s"],
            "kernel_counts": counts,
            "stats_fields": ["calls", "total_s", "self_s", "failed"],
            "stats": self.stats,
            "wrapped_sites": self.sites,
        }
