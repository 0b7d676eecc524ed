"""Metric definitions: what each number is, and what it should move where.

BENCHMARK.json lists the same names, units and directions; the self-test
checks that the two agree.
"""

ALL = ("pool", "matrix", "groups", "elements")

# name, unit, better
END_TO_END = [
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
]

# name, unit, better, end-to-end metric it should move, workloads it should move on.
# Per pass of the workload's item list unless the name says otherwise.
PER_LAYER = [
    ("core.mul_coeffs.calls", "count", "lower", "items_per_s, latency_p50_ms", "pool, matrix, elements"),
    ("core.mul_coeffs.us_per_call", "us", "lower", "items_per_s, latency_p50_ms", "pool, matrix, elements"),
    ("core.mul_coeffs.self_ms", "ms", "lower", "items_per_s, latency_p50_ms", "pool, matrix, elements"),
    ("core.mul_coeffs.macs_computed", "MAC", "lower", "items_per_s", "matrix"),
    ("core.left_mat.calls", "count", "lower", "items_per_s", "pool, matrix"),
    ("core.left_mat.us_per_call", "us", "lower", "items_per_s", "pool, matrix"),
    ("core.right_mat.calls", "count", "lower", "items_per_s", "pool, matrix"),
    ("core.validate.self_ms", "ms", "lower", "items_per_s, peak_rss_mb", "matrix; none on elements"),
    ("core.validate.flops_computed", "flop", "lower", "items_per_s", "matrix"),
    ("core.validate.bytes_computed", "B", "lower", "peak_rss_mb", "matrix"),
    ("structure.check_proper.self_ms", "ms", "lower", "latency_p50_ms", "pool"),
    ("structure.radical.self_ms", "ms", "lower", "latency_p50_ms", "pool"),
    ("structure.check_hermitian.self_ms", "ms", "lower", "latency_p50_ms", "pool"),
    ("core.spectrum.calls", "count", "lower", "latency_p50_ms", "pool"),
    ("rickart.check_weakly_rickart.calls", "count", "lower", "items_per_s", "pool, groups; none on elements"),
    ("rickart.check_weakly_rickart.self_ms", "ms", "lower", "items_per_s", "pool, groups; none on elements"),
    ("rickart.check_baer.self_ms", "ms", "lower", "items_per_s, latency_tail_ms", "pool"),
    ("rickart.annihilator.calls", "count", "lower", "items_per_s, latency_tail_ms", "pool"),
    ("rickart.annihilator.self_ms", "ms", "lower", "items_per_s, latency_tail_ms", "pool"),
    ("rickart.baer.generator_success_ratio", "fraction", "higher", "items_per_s, latency_tail_ms", "pool"),
    ("rickart.join.calls", "count", "lower", "items_per_s", "elements"),
    ("rickart.join.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("rickart.meet.calls", "count", "lower", "items_per_s", "elements"),
    ("rickart.meet.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("spectral.spectral_decompose.calls", "count", "lower", "items_per_s", "elements, pool"),
    ("spectral.spectral_decompose.self_ms", "ms", "lower", "items_per_s", "elements, pool"),
    ("spectral.spectral_decompose.failed", "count", "lower", "error_rate", "elements, pool"),
    ("spectral.right_projection.calls", "count", "lower", "items_per_s", "elements"),
    ("spectral.right_projection.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("spectral.quasi_inverse.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("spectral.positive_sqrt.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("spectral.ep_witness.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("spectral.cstar_norm.self_ms", "ms", "lower", "items_per_s", "elements"),
    ("structure.central_atoms.self_ms", "ms", "lower", "items_per_s", "groups, matrix"),
    ("structure.abelian_split.self_ms", "ms", "lower", "items_per_s", "groups, matrix"),
    ("structure.block_star_isomorphism.calls", "count", "lower", "items_per_s", "matrix"),
    ("structure.block_star_isomorphism.self_ms", "ms", "lower", "items_per_s", "matrix"),
    ("structure.block_star_isomorphism.failed", "count", "lower", "items_per_s", "matrix"),
    ("structure.matrix_unit_residual.self_ms", "ms", "lower", "items_per_s", "matrix"),
    ("structure.analyze.self_ms", "ms", "lower", "items_per_s", "matrix, groups"),
    ("linalg.nullspace.calls", "count", "lower", "items_per_s", "pool, matrix"),
    ("linalg.nullspace.self_ms", "ms", "lower", "items_per_s", "pool, matrix"),
    ("linalg.colspace.calls", "count", "lower", "items_per_s", "pool, matrix"),
    ("linalg.colspace.self_ms", "ms", "lower", "items_per_s", "pool, matrix"),
    ("numpy.linalg.eig.calls", "count", "lower", "items_per_s", "elements, pool"),
    ("numpy.linalg.eig.self_ms", "ms", "lower", "items_per_s", "elements, pool"),
    ("numpy.linalg.eigvals.calls", "count", "lower", "items_per_s", "elements, pool"),
    ("numpy.linalg.eigvals.self_ms", "ms", "lower", "items_per_s", "elements, pool"),
    ("numpy.linalg.eigh.calls", "count", "lower", "items_per_s", "pool, elements"),
    ("numpy.linalg.eigh.self_ms", "ms", "lower", "items_per_s", "pool, elements"),
    ("numpy.linalg.svd.calls", "count", "lower", "items_per_s", "matrix"),
    ("numpy.linalg.svd.self_ms", "ms", "lower", "items_per_s", "matrix"),
    ("numpy.linalg.lstsq.calls", "count", "lower", "items_per_s", "pool, matrix"),
    ("numpy.linalg.lstsq.self_ms", "ms", "lower", "items_per_s", "pool, matrix"),
    ("numpy.linalg.inv.calls", "count", "lower", "items_per_s", "elements, pool"),
    ("numpy.linalg.inv.self_ms", "ms", "lower", "items_per_s", "elements, pool"),
    ("groups.certify_group_theorem.self_ms", "ms", "lower", "items_per_s", "groups"),
    ("groups.build_group_algebra.self_ms", "ms", "lower", "items_per_s", "groups"),
    ("instances.semisimple_instance.self_ms", "ms", "lower", "setup_s", "pool, elements (per set-up)"),
    ("trace.overhead_frac", "fraction", "lower", "none: the trace's own cost", "all"),
]

# Spans that must fire during the items of a traced run, by workload. A span
# that stays at zero calls fails the run, so a name the tracer silently
# missed cannot read as zero cost.
ANALYZE_SPANS = [
    "core.mul_coeffs", "core.left_mat", "core.right_mat", "core.validate", "core.spectrum",
    "structure.analyze", "structure.check_proper", "structure.radical",
    "structure.check_hermitian", "structure.central_atoms", "structure.abelian_split",
    "structure.block_star_isomorphism", "structure.matrix_unit_residual",
    "rickart.check_weakly_rickart", "rickart.check_baer", "rickart.annihilator", "rickart.join",
    "spectral.spectral_decompose", "spectral.right_projection",
    "linalg.nullspace", "linalg.colspace",
    "numpy.linalg.eig", "numpy.linalg.eigvals", "numpy.linalg.eigh", "numpy.linalg.svd",
    "numpy.linalg.lstsq", "numpy.linalg.inv",
]
EXPECTED_SPANS = {
    "pool": ANALYZE_SPANS,
    "matrix": ANALYZE_SPANS,
    "groups": ANALYZE_SPANS + ["groups.certify_group_theorem", "groups.build_group_algebra"],
    "elements": [
        "core.mul_coeffs", "core.left_mat", "rickart.annihilator", "rickart.join", "rickart.meet",
        "spectral.spectral_decompose", "spectral.right_projection", "spectral.quasi_inverse",
        "spectral.positive_sqrt", "spectral.ep_witness", "spectral.cstar_norm",
        "linalg.nullspace", "linalg.colspace", "numpy.linalg.eig", "numpy.linalg.eigvals",
        "numpy.linalg.eigh", "numpy.linalg.svd", "numpy.linalg.inv",
    ],
}
# Spans that must fire while the inputs are built.
EXPECTED_SETUP_SPANS = {
    "pool": ["instances.semisimple_instance"],
    "matrix": [],
    "groups": [],
    "elements": ["instances.semisimple_instance"],
}
