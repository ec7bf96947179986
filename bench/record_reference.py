"""Record the reference outputs the benchmark checks every run against.

    python3 bench/record_reference.py

Writes bench/reference/: for ext_sweep and high_genus, the report digest of
every instance in the workload's whole population (so any seed is checked);
for cli_warm_cache, the digests of the warm run's stdout and of the cache file
it leaves.  Values are what the library computes; none is edited by hand.
Takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path

from harness import (
    FIELDS, REFERENCE_DIR, cli_argv, field_of, quatcurves, report_digest,
    WORK_DIR, reference_path, run_cli, sha256, write_sampled_reference,
)

# Degree pairs of high_genus: their full keys have degree 9 (genus-4 models).
HIGH_GENUS_DEGREES = ((2, 7), (3, 6), (4, 5))


def record_ext_sweep() -> dict:
    """Every two-place set classify_all visits on F_25, with its report."""
    field = field_of("ext_sweep")
    return {
        tuple(report.places): report_digest(report)
        for report in quatcurves.classify_all(field)
    }


def record_high_genus() -> dict:
    field = field_of("high_genus")
    records = {}
    for d1, d2 in HIGH_GENUS_DEGREES:
        pairs = itertools.product(
            quatcurves.monic_irreducibles(d1, field), quatcurves.monic_irreducibles(d2, field)
        )
        for pair in pairs:
            report = quatcurves.classify(quatcurves.RamSet(pair))
            records[tuple(report.places)] = report_digest(report)
    return records


def record_cli() -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        cache = Path(tmp) / "classnumbers.cache"
        cold_code, cold_out = run_cli(cache)
        warm_code, warm_out = run_cli(cache)
        if cold_code or warm_code or cold_out != warm_out:
            raise RuntimeError("cold and warm CLI runs disagree")
        cache_bytes = cache.read_bytes()
    return {
        "argv": cli_argv("FILE"),
        "instances": len(warm_out.splitlines()) - 1,  # minus the CSV header
        "stdout_sha256": sha256(warm_out.encode("utf-8")),
        "stdout_bytes": len(warm_out.encode("utf-8")),
        "cache_sha256": sha256(cache_bytes),
        "cache_records": len(cache_bytes.splitlines()),
    }


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, record in (("ext_sweep", record_ext_sweep), ("high_genus", record_high_genus)):
        records = record()
        write_sampled_reference(workload, records)
        print(f"{workload}: {len(records)} instances over {FIELDS[workload]}")
    cli = record_cli()
    reference_path("cli_warm_cache").write_text(json.dumps(cli, indent=2) + "\n", encoding="ascii")
    print(f"cli_warm_cache: {cli['instances']} instances, {cli['cache_records']} cache records")


if __name__ == "__main__":
    main()
