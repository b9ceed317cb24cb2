"""Rebuild ``reference.json``: the digest of every item of the shipped seeds.

    python3 bench/make_reference.py [--workload recursive ...]

Offline and slow (minutes).  Every item must pass its own verdicts, and on
``recursive`` every p_recursive result is checked against p_bruteforce
before its digest is stored, so the reference rests on an independent
route rather than on the evaluator it guards.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DEFAULT_REFERENCE, DEFAULT_SEED, HOLDOUT_SEED, SRC, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads
    from surfpoly import polynomials

    table = {"seeds": {"default": DEFAULT_SEED, "holdout": HOLDOUT_SEED}, "digests": {}}
    if DEFAULT_REFERENCE.is_file():
        table = json.loads(DEFAULT_REFERENCE.read_text())
    for workload in args.workload or WORKLOADS:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            digests = []
            for k, item in enumerate(workloads.build_pool(workload, seed)):
                out = workloads.run_item(workload, item.fresh())
                if out.problem is not None:
                    raise SystemExit(f"{workload} seed {seed} item {k}: {out.problem}")
                if workload == "recursive":
                    value = item.fresh()
                    fast = polynomials.p_recursive(value).to_canonical_string()
                    slow = polynomials.p_bruteforce(value).to_canonical_string()
                    if fast != slow:
                        raise SystemExit(f"recursive seed {seed} item {k}: "
                                         "p_recursive differs from p_bruteforce")
                digests.append(out.digest)
            table["digests"].setdefault(workload, {}).setdefault("full", {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} items", flush=True)
    DEFAULT_REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
