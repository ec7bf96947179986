"""quatcurves benchmark: workloads, checks and metrics.

    python3 bench/run.py --workload ext_sweep --seed 1 --seconds 25 --trace 0

One client, one thread, closed loop: each instance starts after the previous
one finished.  Every output is checked against the references recorded by
bench/record_reference.py.  With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it runs a fixed sample twice, untraced then traced,
and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See bench/NOTES.md
for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time

from calibration import Sampler, calibrated, kernel_seconds
from harness import (
    BENCH_DIR, CLI_WORKLOAD, FIELDS, ROOT, SAMPLED, SRC, WORK_DIR, CliFixture, check_cli,
    check_instance, field_of, load_reference, quatcurves, run_cli, sample_order,
)

WORKLOADS = SAMPLED + (CLI_WORKLOAD,)

# Instances per timed chunk, each calibrated on its own.
CHUNK = {"ext_sweep": 100, "high_genus": 50}
# Fixed samples of a traced run, so that its counts repeat exactly per seed.
TRACE_INSTANCES = {"ext_sweep": 1000, "high_genus": 1000}
TRACE_CLI_INVOCATIONS = 2
SETUP_REPEATS = 9

# Degree of the extension of the base field whose arithmetic dominates
# ExtensionField calls: F_25 itself, F_81 for the genus-4 point counts over
# F_3, and F_289 for the prime-field CLI workload, which makes no such calls.
GF_KERNEL_EXT_DEGREE = {"ext_sweep": 1, "high_genus": 4, "cli_warm_cache": 2}
GF_KERNEL_OPS = 2000
GF_KERNEL_REPEATS = 5

SETUP_CALIBRATION_RUNS = 10  # kernel runs before and after the import
SETUP_CODE = """
import sys, time
sys.path.insert(0, {bench!r})
from calibration import kernel_seconds
kernel = [kernel_seconds() for _ in range({runs})]
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import quatcurves
if not quatcurves.__file__.startswith({src!r}):
    sys.exit("quatcurves imported from outside the checkout")
quatcurves.make_field({p}, {e}).nonsquare()
elapsed = time.perf_counter() - t0
kernel += [kernel_seconds() for _ in range({runs})]
print(elapsed, *kernel)
"""


def measure_setup(workload: str) -> float:
    """Median calibrated seconds, in a fresh interpreter each time, to import
    quatcurves and build the workload's field including its non-square."""
    p, e = FIELDS[workload]
    code = SETUP_CODE.format(bench=str(BENCH_DIR), src=str(SRC), p=p, e=e,
                             runs=SETUP_CALIBRATION_RUNS)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        elapsed, *kernel = map(float, done.stdout.split())
        times.append(calibrated(elapsed, kernel))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- sampled workloads ---------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, ok: bool) -> None:
        self.attempted += attempted
        if not ok:
            self.failed += attempted


class Chunk:
    """Instances, instance seconds and calibration seconds of one timed chunk."""

    def __init__(self):
        self.instances = 0
        self.seconds = 0.0
        self.calibration = []

    def reference_seconds(self) -> float:
        return calibrated(self.seconds, self.calibration)


def timed_instances(field, instances, reference, tally, tracer=None) -> Chunk:
    """Classify and check each instance, then run the calibration kernel.
    Instance seconds exclude the check."""
    chunk = Chunk()
    clock = time.perf_counter
    for n, texts in enumerate(instances):
        if tracer is not None:
            tracer.instance = n
            with tracer.span("bench.instance"):
                t0 = clock()
                ok = check_instance(field, texts, reference[texts])
        else:
            t0 = clock()
            ok = check_instance(field, texts, reference[texts])
        chunk.seconds += clock() - t0
        chunk.instances += 1
        tally.add(1, ok)
        chunk.calibration.append(kernel_seconds())
    return chunk


def run_sampled(workload, seed, seconds, reference, tally) -> list:
    """Chunks of CHUNK instances, walking the seeded order (wrapping round if a
    run outlasts the population), until `seconds` of instance time is spent.
    The first chunk warms lazy field tables and is not timed."""
    field = field_of(workload)
    order = sample_order(reference, seed)
    size = CHUNK[workload]
    start = 0

    def next_chunk():
        nonlocal start
        picked = [order[(start + i) % len(order)] for i in range(size)]
        start += size
        return picked

    timed_instances(field, next_chunk(), reference, tally)
    chunks, spent = [], 0.0
    while spent < seconds:
        chunks.append(timed_instances(field, next_chunk(), reference, tally))
        spent += chunks[-1].seconds
    return chunks


def trace_sampled(workload, seed, reference, tally):
    """Warm up on the first chunk of the seeded order, run the next
    TRACE_INSTANCES untraced, then the TRACE_INSTANCES after those traced.
    The passes take distinct instances so that a memo filled by one pass
    cannot make the other cheaper than a fresh sample would be."""
    from tracer import Tracer

    field = field_of(workload)
    order = sample_order(reference, seed)
    warm, n = CHUNK[workload], TRACE_INSTANCES[workload]
    timed_instances(field, order[:warm], reference, tally)
    untraced = timed_instances(field, order[warm:warm + n], reference, tally)
    tracer = Tracer()
    with tracer:
        traced = timed_instances(field, order[warm + n:warm + 2 * n], reference, tally, tracer)
    return tracer, untraced, traced, 0


# -- the CLI workload --------------------------------------------------------------

CLI_CALIBRATION_RUNS = 5  # kernel runs before and after each invocation


def cli_invocation(fixture, reference, tally, tracer=None, sample_every=0.01):
    """One checked invocation as a chunk, and the bytes it wrote to stdout.
    The kernel also runs every `sample_every` seconds during the call (never
    if 0), because the machine's speed can change within it; that time is
    taken out of the call's time.  Traced runs pass 0, so that no span
    contains it and both of their passes are calibrated alike."""
    fixture.reset()
    chunk = Chunk()
    chunk.calibration += [kernel_seconds() for _ in range(CLI_CALIBRATION_RUNS)]
    with Sampler(sample_every) as sampler:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.instance += 1
            with tracer.span("bench.invocation"):
                code, stdout = run_cli(fixture.cache)
        else:
            code, stdout = run_cli(fixture.cache)
        elapsed = time.perf_counter() - t0
    chunk.seconds = elapsed - sampler.handler_s
    chunk.calibration += sampler.kernel
    chunk.calibration += [kernel_seconds() for _ in range(CLI_CALIBRATION_RUNS)]
    chunk.instances = reference["instances"]
    tally.add(chunk.instances, check_cli(code, stdout, fixture.cache, reference))
    return chunk, len(stdout.encode("utf-8"))


def run_cli_workload(seed, seconds, reference, tally) -> list:
    """Warm-cache invocations until `seconds` are spent; the fixture's cold run
    is the warm-up."""
    fixture = CliFixture(seed)
    try:
        chunks, spent = [], 0.0
        while spent < seconds:
            chunks.append(cli_invocation(fixture, reference, tally)[0])
            spent += chunks[-1].seconds
    finally:
        fixture.close()
    return chunks


def merge(chunks) -> Chunk:
    total = Chunk()
    for chunk in chunks:
        total.instances += chunk.instances
        total.seconds += chunk.seconds
        total.calibration += chunk.calibration
    return total


def trace_cli(seed, reference, tally):
    from tracer import Tracer

    fixture = CliFixture(seed)
    try:
        untraced = merge(cli_invocation(fixture, reference, tally, sample_every=0)[0]
                         for _ in range(TRACE_CLI_INVOCATIONS))
        tracer = Tracer()
        with tracer:
            runs = [cli_invocation(fixture, reference, tally, tracer, sample_every=0)
                    for _ in range(TRACE_CLI_INVOCATIONS)]
    finally:
        fixture.close()
    return tracer, untraced, merge(chunk for chunk, _ in runs), sum(n for _, n in runs)


# -- per-layer metrics ------------------------------------------------------------

def gf_kernel_ns(workload: str, seed: int) -> dict:
    """Nanoseconds per ExtensionField mul/inv and per is_square, each the
    median of GF_KERNEL_REPEATS loops over GF_KERNEL_OPS seeded operands."""
    base = field_of(workload)
    ext = quatcurves.extend_field(base, GF_KERNEL_EXT_DEGREE[workload])
    rng = random.Random(seed)
    ext_units = [a for a in ext.elements() if a != ext.zero]
    base_units = [a for a in base.elements() if a != base.zero]
    pairs = [(rng.choice(ext_units), rng.choice(ext_units)) for _ in range(GF_KERNEL_OPS)]
    singles = [rng.choice(ext_units) for _ in range(GF_KERNEL_OPS)]
    squares = [rng.choice(base_units) for _ in range(GF_KERNEL_OPS)]

    def per_op(loop) -> float:
        samples = []
        for _ in range(GF_KERNEL_REPEATS):
            t0 = time.perf_counter_ns()
            loop()
            samples.append((time.perf_counter_ns() - t0) / GF_KERNEL_OPS)
        return statistics.median(samples)

    mul, inv, is_square = ext.mul, ext.inv, base.is_square
    return {
        "mul": per_op(lambda: [mul(a, b) for a, b in pairs]),
        "inv": per_op(lambda: [inv(a) for a in singles]),
        "is_square": per_op(lambda: [is_square(a) for a in squares]),
    }


END_TO_END = {"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "success_frac": "ratio"}

# Per-layer metrics: name -> (unit, wrapped targets it needs).
LAYER_METRICS = {
    "gf.ext_mul.calls": ("count", ["gf.ext_mul"]),
    "gf.ext_inv.calls": ("count", ["gf.ext_inv"]),
    "gf.is_square.calls": ("count", ["gf.is_square"]),
    "gf.ext_mul.ns": ("ns", []),
    "gf.ext_inv.ns": ("ns", []),
    "gf.is_square.ns": ("ns", []),
    "gf.est_s": ("s", ["gf.ext_mul", "gf.ext_inv", "gf.is_square"]),
    "polyring.is_squarefree.calls": ("count", ["polyring.is_squarefree"]),
    "polyring.is_squarefree.self_s": ("s", ["polyring.is_squarefree"]),
    "polyring.squarefree_repeat": ("ratio", ["polyring.is_squarefree"]),
    "polyring.residue_symbol.calls": ("count", ["polyring.residue_symbol"]),
    "polyring.residue_symbol.self_s": ("s", ["polyring.residue_symbol"]),
    "polyring.is_irreducible.calls": ("count", ["polyring.is_irreducible"]),
    "polyring.is_irreducible.self_s": ("s", ["polyring.is_irreducible"]),
    "polyring.places_built": ("count", ["polyring.place"]),
    "polyring.rabin_per_place": ("ratio", ["polyring.is_irreducible", "polyring.place"]),
    "curves.point_count.calls": ("count", ["curves.point_count"]),
    "curves.point_count.self_s": ("s", ["curves.point_count"]),
    "curves.points_enumerated": ("count", ["curves.point_count"]),
    "curves.quadratic_order_info.calls": ("count", ["curves.quadratic_order_info"]),
    "curves.quadratic_order_info.self_s": ("s", ["curves.quadratic_order_info"]),
    "curves.class_number.calls": ("count", ["curves.class_number"]),
    "curves.class_number.distinct": ("count", ["curves.class_number"]),
    "curves.class_number.computed_frac": ("ratio", ["curves.class_number", "curves.jacobian_order"]),
    "curves.cache.load_s": ("s", ["curves.cache.load"]),
    "curves.cache.save_s": ("s", ["curves.cache.save"]),
    "curves.cache.records": ("count", ["curves.cache.load"]),
    "shimura.classify.calls": ("count", ["shimura.classify"]),
    "shimura.classify.p50_ms": ("ms", ["shimura.classify"]),
    "shimura.classify.p99_ms": ("ms", ["shimura.classify"]),
    "shimura.self_s": ("s", ["shimura.classify"]),
    "shimura.embedding_count.calls": ("count", ["shimura.embedding_count"]),
    "shimura.embedding_zero_frac": ("ratio", ["shimura.embedding_count", "curves.class_number"]),
    "cli.self_s": ("s", ["cli.main"]),
    "cli.stdout_bytes": ("bytes", []),
    "trace_overhead_frac": ("ratio", []),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer, kernel, overhead, stdout_bytes) -> dict:
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name].calls if name in stats else counts.get(name, [0])[0]

    def self_s(*names):
        return sum(stats[n].self_ns for n in names if n in stats) / 1e9

    classify_ms = [(t1 - t0) / 1e6 for _, _, name, t0, t1, _ in tracer.spans
                   if name == "shimura.classify"]
    cuts = statistics.quantiles(classify_ms, n=100) if len(classify_ms) > 1 else [0.0] * 99
    outer_mul = calls("gf.ext_mul") - tracer.nested_mul
    return {
        "gf.ext_mul.calls": calls("gf.ext_mul"),
        "gf.ext_inv.calls": calls("gf.ext_inv"),
        "gf.is_square.calls": calls("gf.is_square"),
        "gf.ext_mul.ns": kernel["mul"],
        "gf.ext_inv.ns": kernel["inv"],
        "gf.is_square.ns": kernel["is_square"],
        "gf.est_s": (outer_mul * kernel["mul"] + calls("gf.ext_inv") * kernel["inv"]
                     + calls("gf.is_square") * kernel["is_square"]) / 1e9,
        "polyring.is_squarefree.calls": calls("polyring.is_squarefree"),
        "polyring.is_squarefree.self_s": self_s("polyring.is_squarefree"),
        "polyring.squarefree_repeat": _ratio(calls("polyring.is_squarefree"),
                                             len(tracer.squarefree_inputs)),
        "polyring.residue_symbol.calls": calls("polyring.residue_symbol"),
        "polyring.residue_symbol.self_s": self_s("polyring.residue_symbol"),
        "polyring.is_irreducible.calls": calls("polyring.is_irreducible"),
        "polyring.is_irreducible.self_s": self_s("polyring.is_irreducible"),
        "polyring.places_built": calls("polyring.place"),
        "polyring.rabin_per_place": _ratio(calls("polyring.is_irreducible"),
                                           calls("polyring.place")),
        "curves.point_count.calls": calls("curves.point_count"),
        "curves.point_count.self_s": self_s("curves.point_count"),
        "curves.points_enumerated": tracer.points_enumerated,
        "curves.quadratic_order_info.calls": calls("curves.quadratic_order_info"),
        "curves.quadratic_order_info.self_s": self_s("curves.quadratic_order_info"),
        "curves.class_number.calls": calls("curves.class_number"),
        "curves.class_number.distinct": len(tracer.class_number_inputs),
        "curves.class_number.computed_frac": _ratio(calls("curves.jacobian_order"),
                                                    calls("curves.class_number")),
        "curves.cache.load_s": self_s("curves.cache.load"),
        "curves.cache.save_s": self_s("curves.cache.save"),
        "curves.cache.records": tracer.cache_records,
        "shimura.classify.calls": calls("shimura.classify"),
        "shimura.classify.p50_ms": cuts[49],
        "shimura.classify.p99_ms": cuts[98],
        "shimura.self_s": self_s(*(n for n in stats if n.startswith("shimura."))),
        "shimura.embedding_count.calls": calls("shimura.embedding_count"),
        "shimura.embedding_zero_frac": _ratio(tracer.embedding_zero,
                                              calls("shimura.embedding_count")),
        "cli.self_s": self_s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "trace_overhead_frac": overhead,
    }


# -- entry point --------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = args.workload
    reference = load_reference(workload)
    tally = Tally()
    if args.trace == 0:
        setup_s = measure_setup(workload)
        if workload == CLI_WORKLOAD:
            chunks = run_cli_workload(args.seed, args.seconds, reference, tally)
        else:
            chunks = run_sampled(workload, args.seed, args.seconds, reference, tally)
        instances = sum(c.instances for c in chunks)
        values = {
            "instances_per_s": instances / sum(c.reference_seconds() for c in chunks),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "success_frac": 1 - tally.failed / tally.attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        wall = instances / sum(c.seconds for c in chunks)
        print(f"{workload}: {len(chunks)} timed chunks, {tally.attempted} instances "
              f"checked, {tally.failed} failed; uncalibrated rate {wall:.2f}/s")
    else:
        if workload == CLI_WORKLOAD:
            tracer, untraced, traced, stdout_bytes = trace_cli(args.seed, reference, tally)
        else:
            tracer, untraced, traced, stdout_bytes = trace_sampled(
                workload, args.seed, reference, tally)
        WORK_DIR.mkdir(exist_ok=True)
        trace_file = WORK_DIR / f"trace_{workload}_seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        kernel = gf_kernel_ns(workload, args.seed)
        overhead = traced.reference_seconds() / untraced.reference_seconds() - 1
        values = layer_values(tracer, kernel, overhead, stdout_bytes)
        dropped = {name for name, (_, needs) in LAYER_METRICS.items()
                   if any(t in tracer.missing for t in needs)}
        if dropped:
            print(f"missing wrapped names {sorted(tracer.missing)}; "
                  f"metrics not reported: {sorted(dropped)}")
        metrics = {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()
                   if name not in dropped}
        print(f"{workload}: traced {traced.instances} instances, {len(tracer.spans)} spans "
              f"in {trace_file}; {tally.attempted} instances checked, {tally.failed} failed")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
