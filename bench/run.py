#!/usr/bin/env python3
"""staralg benchmark: certified-analysis throughput and latency, with a layer trace.

Usage, from the root of the repository:

    python3 bench/run.py --workload pool --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One closed-loop client in one process sends the workload's items through the
public API, one call outstanding at a time, and checks every answer against
ground truth after the timed loop. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the package's layers (see tracing.py) and
reports the per-layer metrics instead. The last line of standard output is
the JSON result; the lines before it are a table and an environment record.
A full record, with every traced span, is written under ``.bench_out/``.
"""

import os
import sys

# Pinned before numpy loads. One thread: the workloads are mostly
# overhead-bound, and one thread is steadier on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("pool", "matrix", "groups", "elements")
# Set-up is repeated and its median reported, so that one slow repetition
# does not move setup_s.
SETUP_REPS = 5
TAIL_BEYOND = 10


def import_package():
    """Import numpy and staralg from this checkout's src/; seconds taken."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    sys.path.insert(0, str(SRC))
    import staralg

    if not Path(staralg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"staralg imported from {staralg.__file__}, not from {SRC}")
    return time.perf_counter() - t0


# -- environment ---------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "staralg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# -- the closed loop -----------------------------------------------------------

class Gate:
    """Correctness gate: every answer against ground truth, every pass against the first."""

    def __init__(self, workload):
        self.workload = workload
        self.errors = []
        self.reference = None  # verdicts of the first pass

    def check(self, results):
        from workloads import Mismatch

        verdicts = []
        for i, result in enumerate(results):
            verdict = None
            if isinstance(result, Exception):
                self.errors.append(f"item {i}: raised {type(result).__name__}: {result}")
            else:
                try:
                    verdict = self.workload.check(result, self.workload.truth(i))
                except Mismatch as exc:
                    self.errors.append(f"item {i}: {exc}")
                except Exception as exc:  # a checker failure is an error, not a crash
                    self.errors.append(f"item {i}: check raised {type(exc).__name__}: {exc}")
            if self.reference is not None and verdict is not None and verdict != self.reference[i]:
                self.errors.append(f"item {i}: verdict {verdict} differs from the first pass")
            verdicts.append(verdict)
        if self.reference is None:
            self.reference = verdicts

    def digest(self):
        """Hash of the first pass's verdicts: flags, block sizes, dimensions, ranks."""
        return hashlib.sha256(json.dumps(self.reference).encode()).hexdigest()[:16]


class Series:
    """Passes over a workload's items; keeps each item's best latency."""

    def __init__(self, workload, gate, tracer=None, calibration=None):
        self.workload = workload
        self.gate = gate
        self.tracer = tracer
        self.calibration = calibration
        self.best = [math.inf] * len(workload.items)
        self.wall = 0.0
        self.attempted = 0

    def run_pass(self):
        """One pass, one call outstanding at a time; answers are checked after it."""
        workload, tracer = self.workload, self.tracer
        results = []
        if tracer is not None:
            tracer.install()
        try:
            t_pass = time.perf_counter()
            for i in range(len(workload.items)):
                arg = workload.prepare(i)
                if tracer is not None:
                    tracer.item = i
                t0 = time.perf_counter()
                try:
                    result = workload.run(i, arg)
                except Exception as exc:  # an item that raises is an error; the run goes on
                    result = exc
                latency = time.perf_counter() - t0
                self.best[i] = min(self.best[i], latency)
                results.append(result)
                if self.calibration is not None:
                    self.calibration.after_item(latency)
            self.wall += time.perf_counter() - t_pass
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.item = None
        self.attempted += len(results)
        self.gate.check(results)


def tail(latencies):
    """Highest percentile with TAIL_BEYOND items beyond it: (value, percentile, beyond).

    With too few items for that percentile to lie above the median, the
    maximum (percentile 100, none beyond).
    """
    xs = sorted(latencies)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


def passes_for(seconds, tiny, name):
    from workloads import NOMINAL_PASS_S, TINY_PASS_S

    nominal = TINY_PASS_S if tiny else NOMINAL_PASS_S[name]
    return max(1, round(seconds / nominal))


# -- computed kernel figures ---------------------------------------------------

def validate_flops(n):
    """Real flops of validate at dim n, computed: 8 per complex multiply-add.

    Two n^5 associativity contractions, and the involution terms: the
    three-operand (e_i e_j)* contraction (n^5 terms), its conjugate side
    (n^4) and star-star (n^3). The unit check runs through mul_coeffs and is
    counted there.
    """
    return 8 * (3 * n**5 + n**4 + n**3)


def validate_bytes(n):
    """Bytes of validate's live n^4 intermediates, computed.

    Both associativity sides and their difference (complex, 16 bytes each)
    plus its modulus (8 bytes).
    """
    return 56 * n**4


# -- modes ---------------------------------------------------------------------

def latency_metrics(best, slowdown):
    """items_per_s, latency_p50_ms, latency_tail_ms from per-item best latencies."""
    best = [b / slowdown for b in best]
    tail_s, tail_pct, beyond = tail(best)
    return {
        "items_per_s": (len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
    }, tail_pct, beyond


def run_untraced(name, seed, seconds, tiny, import_s):
    from calibration import Calibration
    from workloads import WORKLOADS

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, tiny)
        workload.warm_up()
        setups.append(time.perf_counter() - t0)

    gate = Gate(workload)
    calibration = Calibration()
    series = Series(workload, gate, calibration=calibration)
    passes = passes_for(seconds, tiny, name)
    for _ in range(passes):
        calibration.sample()
        series.run_pass()

    best = series.best
    slowdown = calibration.slowdown()
    metrics, tail_pct, beyond = latency_metrics(best, slowdown)
    raw, _, _ = latency_metrics(best, 1.0)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (import_s + statistics.median(setups), "s")
    dims = sorted(set(workload.dims))
    details = {
        "passes": passes,
        "items_per_pass": len(best),
        "item_dims": workload.dims,
        "item_best_latency_s": best,
        "slowdown": slowdown,
        "reference_samples": len(calibration.samples),
        "raw": {k: v for k, (v, _) in raw.items()},
        "wall_s": series.wall,
        "wall_items_per_s": series.attempted / series.wall,
        "error_rate": len(gate.errors) / series.attempted,
        "latency_tail_percentile": tail_pct,
        "latency_tail_items_beyond": beyond,
        "import_s": import_s,
        "setup_reps_s": setups,
        "computed": {} if name == "elements" else {
            "core.validate.flops_computed": {str(n): validate_flops(n) for n in dims},
            "core.validate.bytes_computed": {str(n): validate_bytes(n) for n in dims},
        },
    }
    return metrics, series.attempted, gate, details, None


def run_traced(name, seed, seconds, tiny):
    from metrics import EXPECTED_SETUP_SPANS, EXPECTED_SPANS
    from tracing import Tracer
    from workloads import WORKLOADS

    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        workload = WORKLOADS[name](seed, tiny)
        workload.warm_up()
    finally:
        setup_tracer.uninstall()

    tracer = Tracer()
    gate = Gate(workload)
    untraced = Series(workload, gate)
    traced = Series(workload, gate, tracer)
    # the run's time is split between the two; they alternate, so that
    # interference from the rest of the machine hits both alike
    passes = max(1, passes_for(seconds, tiny, name) // 2)
    for _ in range(passes):
        untraced.run_pass()
        traced.run_pass()

    missing = [s for s in EXPECTED_SPANS[name] if s not in tracer.fired()]
    missing += [s for s in EXPECTED_SETUP_SPANS[name] if s not in setup_tracer.fired()]
    if missing:  # a name the tracer missed must not read as zero cost
        sys.exit(f"expected spans never fired on {name}: {missing}")

    overhead = sum(traced.best) / sum(untraced.best) - 1.0
    metrics = layer_metrics(tracer, setup_tracer, passes, overhead)
    self_per_pass = tracer.self_total_s() / passes
    details = {
        "passes": passes,
        "items_per_pass": len(workload.items),
        "item_dims": workload.dims,
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "untraced_best_sum_s": sum(untraced.best),
        "traced_best_sum_s": sum(traced.best),
        # the spans' self times per pass against the untraced pass: what they
        # leave unaccounted for, within the tracing overhead
        "span_self_per_pass_s": self_per_pass,
        "self_vs_untraced_frac": self_per_pass / (untraced.wall / passes) - 1.0,
        "error_rate": len(gate.errors) / (untraced.attempted + traced.attempted),
    }
    trace_dump = {"setup": setup_tracer.dump(), "items": tracer.dump()}
    return metrics, untraced.attempted + traced.attempted, gate, details, trace_dump


def layer_metrics(tracer, setup_tracer, passes, overhead):
    """PER_LAYER values: per pass of the item list, from the traced passes."""
    from metrics import PER_LAYER

    out = {}
    for metric, unit, *_ in PER_LAYER:
        span, _, field = metric.rpartition(".")
        stats = tracer.stats.get(span)
        if metric == "core.mul_coeffs.macs_computed":
            value = sum(c * n**3 for n, c in tracer.dims.get("core.mul_coeffs", {}).items()) / passes
        elif metric == "core.validate.flops_computed":
            value = sum(c * validate_flops(n) for n, c in tracer.dims.get("core.validate", {}).items()) / passes
        elif metric == "core.validate.bytes_computed":
            value = max([validate_bytes(n) for n in tracer.dims.get("core.validate", {})], default=0)
        elif metric == "rickart.baer.generator_success_ratio":
            tested, failures = tracer.baer
            value = (tested - failures) / tested if tested else 0.0
        elif metric == "trace.overhead_frac":
            value = overhead
        elif metric == "instances.semisimple_instance.self_ms":
            value = setup_tracer.stats[span][2] * 1e3
        elif field == "calls":
            value = stats[0] / passes
        elif field == "self_ms":
            value = stats[2] / passes * 1e3
        elif field == "us_per_call":
            value = stats[1] / stats[0] * 1e6 if stats[0] else 0.0
        elif field == "failed":
            value = stats[3] / passes
        else:
            raise KeyError(metric)
        out[metric] = (value, unit)
    return out


# -- output --------------------------------------------------------------------

def print_table(name, seed, trace, metrics, attempted, errors, verdict_digest, details):
    print(f"workload {name}  seed {seed}  trace {trace}  "
          f"{details['passes']} pass(es) x {details['items_per_pass']} items")
    for metric, (value, unit) in metrics.items():
        note = ""
        if metric == "latency_tail_ms":
            note = (f"  (p{details['latency_tail_percentile']:.1f}, "
                    f"{details['latency_tail_items_beyond']} items beyond)")
        if metric == "peak_rss_mb" and details.get("computed"):
            peak = max(details["computed"]["core.validate.bytes_computed"].values())
            note = f"  (validate intermediates, computed: {peak / 2**20:.1f} MB)"
        print(f"  {metric:44s} {value:>16.6g} {unit}{note}")
    print(f"  {'error_rate':44s} {details['error_rate']:>16.6g} fraction  "
          f"({len(errors)} of {attempted})")
    print(f"  {'digest':44s} {verdict_digest:>16s}")
    for line in errors[:10]:
        print(f"  ERROR {line}")


def run_one(args):
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"cannot import staralg from {SRC}: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, gate, details, trace_dump = run_traced(
            args.workload, args.seed, args.seconds, args.tiny)
    else:
        metrics, attempted, gate, details, trace_dump = run_untraced(
            args.workload, args.seed, args.seconds, args.tiny, import_s)

    errors = gate.errors
    verdict_digest = gate.digest()
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": env,
        "items_attempted": attempted,
        "digest": verdict_digest,
        "errors": errors,
        **details,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(out_file, "w") as fh:
        json.dump({**record, "metrics": metrics, "trace_spans": trace_dump}, fh)

    print_table(args.workload, args.seed, args.trace, metrics, attempted, errors, verdict_digest, details)
    print(json.dumps({"record": {k: v for k, v in record.items()
                                 if k not in ("errors", "item_dims", "item_best_latency_s")}}))
    failed = len(errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, each in its own process (peak RSS is per process)."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the number of passes from each workload's nominal pass time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
