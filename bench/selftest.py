"""Self-test of the benchmark at tiny input sizes (about ten seconds).

    python3 bench/selftest.py

Checks, for every workload and both trace modes, that the run exits 0,
matches a reference of digests computed here (the traced phase replays
shifted copies, so this also checks that a shift leaves the outputs alone),
and prints every metric named in BENCHMARK.json, with its unit, both as a
``name value unit`` line and in the final JSON object.  Then checks that a
corrupted reference digest is reported as one failed item rather than a
crash, and that without the program's sources the run exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, SRC, WORKLOADS

SEED = 3
REFERENCE = OUT_DIR / "selftest-reference.json"


def bench(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--seconds", "0.5", "--size", "tiny", "--seed", str(SEED), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def check(cond: bool, what: str, proc=None) -> None:
    if not cond:
        detail = "" if proc is None else f"\n--- stdout\n{proc.stdout}\n--- stderr\n{proc.stderr}"
        raise SystemExit(f"selftest FAILED: {what}{detail}")


def write_reference() -> dict:
    """Digests of every tiny pool, computed here as the reference."""
    sys.path.insert(0, str(SRC))
    import workloads

    table = {
        w: {"tiny": {str(SEED): [workloads.run_item(w, item.fresh()).digest
                                 for item in workloads.build_pool(w, SEED, "tiny")]}}
        for w in WORKLOADS
    }
    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"digests": table}))
    return table


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    """Every metric printed with its unit, and every item, shifted replays
    included, matching the reference."""
    proc = bench("--workload", workload, "--trace", str(trace), "--reference", str(REFERENCE))
    check(proc.returncode == 0, f"{workload} trace {trace} exits 0", proc)
    check("digest check checked" in proc.stdout, f"{workload} trace {trace} checks digests", proc)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys", proc)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace} correct", proc)
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    check(set(result["metrics"]) == set(names), f"{workload} trace {trace} metric names", proc)
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for name, unit in names.items():
        check(result["metrics"][name]["unit"] == unit, f"unit of {name}", proc)
        check((name, unit) in printed, f"{name} printed with its unit", proc)


def check_corrupt_reference(table: dict) -> None:
    digests = table["spec"]["tiny"][str(SEED)]
    table["spec"]["tiny"][str(SEED)] = ["0" * 16] + digests[1:]
    REFERENCE.write_text(json.dumps({"digests": table}))
    proc = bench("--workload", "spec", "--trace", "0", "--reference", str(REFERENCE))
    result = json.loads(proc.stdout.splitlines()[-1])
    passes = -(-result["attempted"] // len(digests))
    check(proc.returncode == 1 and not result["correct"], "a corrupted digest fails the run", proc)
    check(1 <= result["failed"] <= passes, "only the corrupted item fails", proc)
    check("Traceback" not in proc.stderr and "differs from reference" in proc.stderr,
          "the failure is reported, not raised", proc)


def check_without_sources() -> None:
    bare = OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "spec", "--trace", "0", cwd=bare, script=bare / BENCH_DIR.name / "run.py")
    shutil.rmtree(bare)
    check(proc.returncode != 0, "a checkout without src/ exits non-zero", proc)
    check("correct" not in proc.stdout, "a checkout without src/ prints no result", proc)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = write_reference()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace, spec)
    check_corrupt_reference(table)
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
