"""Shared pieces of the quatcurves benchmark: library import, workloads,
reference outputs and the checker.

The library is imported from the `src/` tree of the checkout this file sits
in, never from an installed copy, so a directory without the sources makes
the benchmark fail instead of measuring something else.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".bench_work"

if not (SRC / "quatcurves" / "__init__.py").is_file():
    sys.exit(f"error: no quatcurves sources under {SRC}")
sys.path.insert(0, str(SRC))

import quatcurves  # noqa: E402
import quatcurves.cli  # noqa: E402

if Path(quatcurves.__file__).resolve().parent != (SRC / "quatcurves").resolve():
    sys.exit(f"error: imported quatcurves from {quatcurves.__file__}, not from {SRC}")

# Field (p, e) of each workload.  The two sampled workloads classify place
# sets drawn from a recorded population; cli_warm_cache runs one fixed CLI
# command per invocation.
FIELDS = {
    "ext_sweep": (5, 2),
    "high_genus": (3, 1),
    "cli_warm_cache": (17, 1),
}
SAMPLED = ("ext_sweep", "high_genus")
CLI_WORKLOAD = "cli_warm_cache"
CLI_P, CLI_MAX_DEGREE = 17, 2


def cli_argv(cache_path) -> list[str]:
    return [
        "search", "--p", str(CLI_P), "--max-degree", str(CLI_MAX_DEGREE),
        "--format", "csv", "--cache", str(cache_path),
    ]


def report_digest(report) -> str:
    """Digest of a report's canonical dict form; key order is fixed by sort_keys."""
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- references -----------------------------------------------------------

def reference_path(workload: str) -> Path:
    if workload in SAMPLED:
        return REFERENCE_DIR / f"{workload}.tsv.gz"
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str):
    """Sampled workloads: {(place text, place text): digest}.  CLI workload:
    the recorded dict of stdout and cache-file digests."""
    path = reference_path(workload)
    if workload not in SAMPLED:
        return json.loads(path.read_text(encoding="ascii"))
    records = {}
    with gzip.open(path, "rt", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            digest, *places = line.rstrip("\n").split("\t")
            records[tuple(places)] = digest
    return records


def write_sampled_reference(workload: str, records: dict) -> None:
    p, e = FIELDS[workload]
    lines = [f"# {workload}: p={p} e={e}; report digest, then the place texts\n"]
    lines += [f"{digest}\t" + "\t".join(places) + "\n" for places, digest in records.items()]
    # mtime=0 keeps the compressed bytes reproducible
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write("".join(lines).encode("ascii"))


def sample_order(population, seed: int) -> list:
    """The population in a seeded order; a run walks it from the start."""
    order = sorted(population)
    random.Random(seed).shuffle(order)
    return order


# -- one instance ------------------------------------------------------------

def field_of(workload: str):
    return quatcurves.make_field(*FIELDS[workload])


def classify_places(field, texts):
    """The `quatcurves classify` path without argparse.  Names are looked up
    on the package at call time so a traced run sees its wrappers."""
    places = tuple(quatcurves.Place(quatcurves.parse_poly(t, field)) for t in texts)
    return quatcurves.classify(quatcurves.RamSet(places))


def check_instance(field, texts, expected: str) -> bool:
    """Classify one instance and compare with its reference digest; an
    exception counts as a failure, as a wrong report does."""
    try:
        return report_digest(classify_places(field, texts)) == expected
    except Exception:  # noqa: BLE001 - any raise is a failed instance
        return False


# -- the CLI workload -----------------------------------------------------

class CliFixture:
    """A class-number cache file prefilled by one cold `search` run, with its
    records in a seeded order; load does not depend on record order, and save
    sorts, so the warm run must still write the reference bytes."""

    def __init__(self, seed: int, work_dir: Path = WORK_DIR):
        work_dir.mkdir(parents=True, exist_ok=True)
        self.prefill = work_dir / f"cli_prefill_{seed}.cache"
        self.cache = work_dir / f"cli_cache_{seed}.cache"
        self.prefill.unlink(missing_ok=True)
        code, _ = run_cli(self.prefill)
        if code != 0:
            raise RuntimeError(f"cold fixture run exited with {code}")
        lines = self.prefill.read_text(encoding="ascii").splitlines(keepends=True)
        random.Random(seed).shuffle(lines)
        self.prefill.write_text("".join(lines), encoding="ascii")

    def reset(self) -> None:
        shutil.copyfile(self.prefill, self.cache)

    def close(self) -> None:
        self.prefill.unlink(missing_ok=True)
        self.cache.unlink(missing_ok=True)


def run_cli(cache_path: Path) -> tuple[int, str]:
    """One in-process `quatcurves search` invocation; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = quatcurves.cli.main(cli_argv(cache_path))
        except Exception:  # noqa: BLE001 - a traceback is a failed invocation
            code = -1
    return code, out.getvalue()


def check_cli(code: int, stdout: str, cache_path: Path, reference: dict) -> bool:
    return (
        code == 0
        and cache_path.is_file()
        and sha256(stdout.encode("utf-8")) == reference["stdout_sha256"]
        and sha256(cache_path.read_bytes()) == reference["cache_sha256"]
    )
