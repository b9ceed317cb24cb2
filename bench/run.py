"""surfpoly benchmark: one seeded workload, closed loop, one process, one thread.

    python3 bench/run.py --workload spec --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One caller sends the next item only after the previous verdict
returns.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the same items untraced and then traced, and reports per-layer metrics from
the spans.  End-to-end item times are scaled to a reference host speed read
from calibration samples between items (see ``README.md``).  Every metric is
printed as ``name value unit``; the last line of
stdout is one JSON object.  Exit code 0: every item correct; 1: some item
failed; 2: the run could not start.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("spec", "mdual", "recursive", "homology")
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # never tune on it; see README.md
SETUP_REPEATS = 3
CAL_LOOPS = 20_000  # one calibration sample: about 1.3 ms of pure-Python integer work
CAL_REF_S = 1.30e-3  # reference speed: the sample's median time on a quiet 2-vCPU VM
RSS_ITEMS = 50  # peak_rss_mb is read after this many items, whatever the host's speed
TAIL_BEYOND = 10
DART_SHIFT = 1_000_000  # far above any dart id of the generated inputs
LAYERS = ("laurent", "invariants", "maps", "polynomials", "multivariate", "homology", "links")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    ap.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE,
                    help="JSON file of stored item digests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import surfpoly and build the inputs (timed by the parent run)")
    return ap.parse_args(argv)


@dataclass
class Run:
    """Per-item results of one measured loop."""

    times: list = field(default_factory=list)
    cal: list = field(default_factory=list)  # calibration samples: one first, then one after each item
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    verdicts: int = 0
    failed_verdicts: int = 0
    failures: list = field(default_factory=list)

    @property
    def items(self) -> int:
        return len(self.times)

    @property
    def scaled(self) -> list:
        """Item times at the reference speed: each item's time scaled by the
        host's speed around it, read from the calibration samples just
        before and just after it."""
        return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(self.times, self.cal, self.cal[1:])]


def calibrate() -> float:
    """Time of one calibration sample: a fixed pure-Python loop that uses
    nothing of surfpoly, so only the host's speed moves it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def measure(workloads, workload, pool, digests, *, seconds=None, count=None, tracer=None,
            first_pass=0) -> Run:
    """Closed loop over the pool: until ``seconds`` of wall time have passed,
    or for exactly ``count`` items.  Pass p over the pool runs copies whose
    dart ids are shifted by p * DART_SHIFT, so no pass finds state that an
    earlier one left in the process.  Untraced, calibration samples come
    before the first item and after each item, so that each item's time can
    be scaled by the host's speed around it (see Run.scaled)."""
    run = Run()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if tracer is None:
        run.cal.append(calibrate())
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() - wall0 < seconds):
        k = i % len(pool)
        shift = (first_pass + i // len(pool)) * DART_SHIFT
        value = pool[k].fresh(shift)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run_item(workload, value, shift)
            else:
                with tracer.item_span(i):
                    out = workloads.run_item(workload, value, shift)
        except Exception as exc:  # a crashing item is a failed item; the loop goes on
            out = None
            problem = f"{type(exc).__name__}: {exc}"
        run.times.append(time.perf_counter() - t0)
        if out is not None:
            run.verdicts += out.verdicts
            run.failed_verdicts += out.failed_verdicts
            problem = out.problem
            if problem is None and digests is not None and out.digest != digests[k]:
                problem = f"digest {out.digest} differs from reference {digests[k]}"
        if problem is not None:
            run.failures.append(f"item {i} (pool {k}, {pool[k].stratum}): {problem}")
        if tracer is None:
            run.cal.append(calibrate())
        i += 1
        if i == RSS_ITEMS:
            run.peak_rss_mb = peak_rss_mb()
    run.wall = time.perf_counter() - wall0
    run.cpu = time.process_time() - cpu0
    if i < RSS_ITEMS:
        run.peak_rss_mb = peak_rss_mb()
    return run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(times: list) -> tuple[float, int]:
    """(value, percentile) of the highest whole percentile that leaves at
    least TAIL_BEYOND samples above its nearest-rank position."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    p = (100 * (n - TAIL_BEYOND)) // n
    return ordered[max(math.ceil(p * n / 100), 1) - 1], p


def probe_setup(args) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports surfpoly and builds
    the inputs: as timed, and scaled to the reference speed by calibration
    samples taken just before and just after it."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    before = statistics.median(calibrate() for _ in range(5))
    t0 = time.perf_counter()
    # piped, so that the wait ends when the child's output closes; a wait
    # with a timeout on a child without pipes polls in steps of up to 50 ms
    subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True, timeout=120)
    elapsed = time.perf_counter() - t0
    after = statistics.median(calibrate() for _ in range(5))
    return elapsed, elapsed * 2 * CAL_REF_S / (before + after)


def load_digests(path: Path, workload: str, size: str, seed: int, pool_len: int):
    """Stored digests of the pool's items, or None when the seed has none."""
    if not path.is_file():
        return None
    table = json.loads(path.read_text())["digests"]
    digests = table.get(workload, {}).get(size, {}).get(str(seed))
    if digests is not None and len(digests) != pool_len:
        raise ValueError(f"{path} holds {len(digests)} digests for {workload}/{size}/"
                         f"seed {seed}, but the pool has {pool_len} items")
    return digests


def git_sha() -> str | None:
    """HEAD commit read from .git without running git (the benchmark may run
    in an export that is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "surfpoly").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def layer_metrics(tracer, summary: dict, run: Run, untraced: Run, setup: dict) -> dict:
    """Per-layer metrics of the traced run, per item where they are sums."""
    n = run.items
    calls = summary["calls"]
    self_ns = summary["self_ns"]
    incl_ns = summary["incl_ns"]
    per_item = {}

    def count(name, value):
        per_item[name] = (value / n, "count/item")

    def self_s(name, span):
        per_item[name] = (self_ns.get(span, 0) / 1e9 / n, "s/item")

    for span in ("laurent.substitute", "laurent.mul", "laurent.add", "invariants.scanner_init",
                 "maps.canonical_code", "maps.minor", "polynomials.p_bruteforce",
                 "multivariate.p_bar", "homology.surface_init", "homology.project_chain",
                 "homology.subspace"):
        count(f"{span}.calls", calls.get(span, 0))
    for span in ("laurent.substitute", "laurent.mul", "laurent.add", "laurent.canonical_string",
                 "invariants.scanner_init", "invariants.mask", "maps.canonical_code",
                 "maps.minor", "maps.dual", "polynomials.p_bruteforce", "polynomials.p_recursive",
                 "polynomials.verify", "polynomials.classical", "multivariate.p_bar",
                 "multivariate.verify", "homology.surface_init", "homology.project_chain",
                 "homology.subspace", "homology.verify_subgroup_duality", "links.states",
                 "links.tait_graph", "links.verify_thistlethwaite"):
        self_s(f"{span}.self_s", span)

    # substitute's cost sits mostly in its child add and mul spans
    per_item["laurent.substitute.total_s"] = (incl_ns.get("laurent.substitute", 0) / 1e9 / n, "s/item")
    masks = calls.get("invariants.mask", 0)
    count("laurent.substitute.terms_in", tracer.terms_in)
    count("invariants.masks", masks)
    count("polynomials.p_bruteforce.masks", sum(1 << e for e in tracer.edges.values()))
    count("multivariate.p_bar.terms_out", tracer.terms_out)
    count("links.states.yielded", tracer.yielded)
    count("verify.verdicts", run.verdicts)
    count("verify.verdicts_failed", run.failed_verdicts)
    metrics = dict(per_item)
    metrics["invariants.us_per_mask"] = (
        self_ns.get("invariants.mask", 0) / 1e3 / masks if masks else 0.0, "us")
    code_calls = calls.get("maps.canonical_code", 0)
    metrics["maps.canonical_code.distinct_ratio"] = (
        len(tracer.codes) / code_calls if code_calls else 0.0, "ratio")
    metrics["polynomials.residue_max_edges"] = (summary["residue_max_edges"], "count")

    item_ns = incl_ns.get("bench.item", 0) or 1
    for layer in LAYERS:
        layer_ns = sum(v for k, v in self_ns.items() if k.split(".")[0] == layer)
        metrics[f"share.{layer}"] = (layer_ns / item_ns, "frac")
    metrics["share.bench"] = (self_ns.get("bench.item", 0) / item_ns, "frac")
    metrics["share.code_plus_residue"] = (
        (incl_ns.get("maps.canonical_code", 0) + summary["residue_ns"]) / item_ns, "frac")

    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["setup.inputs_s"] = (setup["inputs_s"], "s")
    metrics["trace.items"] = (n, "count")
    # item times only: the untraced loop also spends time on calibration samples
    metrics["trace.overhead_ratio"] = (
        (math.fsum(run.times) / n) / (math.fsum(untraced.times) / untraced.items), "ratio")
    metrics["bench.cpu_over_wall"] = (run.cpu / run.wall, "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "surfpoly" / "__init__.py").is_file():
        print(f"error: no surfpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        import workloads

        workloads.build_pool(args.workload, args.seed, args.size)
        return 0

    try:
        setup_runs = [] if args.trace else [probe_setup(args) for _ in range(SETUP_REPEATS)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up probe failed: {exc}\n{exc.stderr}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import surfpoly
    import workloads

    import_s = time.perf_counter() - t0
    if not Path(surfpoly.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: surfpoly imported from {surfpoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    pool = workloads.build_pool(args.workload, args.seed, args.size)
    inputs_s = time.perf_counter() - t0
    try:
        digests = load_digests(args.reference, args.workload, args.size, args.seed, len(pool))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        from tracer import Tracer

        untraced = measure(workloads, args.workload, pool, digests, seconds=args.seconds / 2)
        tr = Tracer()
        tr.install()
        try:
            run = measure(workloads, args.workload, pool, digests, count=untraced.items, tracer=tr,
                          first_pass=-(-untraced.items // len(pool)))
        finally:
            tr.uninstall()
        summary = tr.summary()
        metrics = layer_metrics(tr, summary, run, untraced, {"import_s": import_s, "inputs_s": inputs_s})
        failures = untraced.failures + run.failures
        attempted = untraced.items + run.items
    else:
        run = measure(workloads, args.workload, pool, digests, seconds=args.seconds)
        # item times at the reference speed; see README.md
        scaled = run.scaled
        tail_s, tail_p = tail(scaled)
        metrics = {
            "items_per_s": (run.items / math.fsum(scaled), "1/s"),
            "item_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "item_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(scaled for _, scaled in setup_runs), "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
        failures = run.failures
        attempted = run.items

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "pool_items": len(pool),
        "items": run.items,
        "digest_check": "checked" if digests is not None else
        f"skipped: no stored reference for seed {args.seed}",
        "failed_frac": len(failures) / attempted,
        "bench.cpu_over_wall": run.cpu / run.wall,
    }
    if not args.trace:
        meta.update(tail_percentile=tail_p, tail_samples=run.items,
                    tail_samples_beyond=run.items - math.ceil(tail_p * run.items / 100),
                    setup_runs_s=[raw for raw, _ in setup_runs], cal_median_ms=statistics.median(run.cal) * 1e3,
                    raw_items_per_s=run.items / math.fsum(run.times),
                    raw_item_p50_ms=statistics.median(run.times) * 1e3,
                    raw_item_tail_ms=tail(run.times)[0] * 1e3)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    if args.trace:
        # one spans file per workload: it is tens of MB, so seeds overwrite it
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}.tsv"
        tr.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
        meta["spans"] = summary["spans"]

    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {run.items}  digest check {meta['digest_check']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'failed_frac':40s} {meta['failed_frac']:.6g} frac")
    if not args.trace:
        print(f"  item_tail_ms is p{tail_p} of {run.items} items")
        print(f"  calibration sample median {meta['cal_median_ms']:.4g} ms (reference "
              f"{CAL_REF_S * 1e3:.3g} ms); unscaled: "
              f"items_per_s {meta['raw_items_per_s']:.6g}, item_p50_ms {meta['raw_item_p50_ms']:.6g}, "
              f"item_tail_ms {meta['raw_item_tail_ms']:.6g}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
