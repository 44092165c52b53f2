"""List the suite verdicts that differ from the catalog's, over many seeds.

Usage (from the repository root):

    PYTHONPATH=src python tools/seed_census.py [SEED ...]

Runs every registered suite at its default sizes in-process, at each
given seed (by default 0-199 and 2026), and prints one JSON line for each
verdict that differs from the suite's verdict at seed 42, the catalog's
seed: the suite, the seed, both verdicts, the worst violation and the
trial, dim and t of its witness (null where the witness has none).  A
seed that prints nothing is one where every suite reports as it does in
the catalog.  The default range takes a few minutes (about 3 on one core
of a 2-CPU x86-64 machine).
"""

from __future__ import annotations

import argparse
import json

from specfid import list_properties, run_suite

DEFAULT_SEEDS = [*range(200), 2026]


def census(seeds):
    """Yield one record per (suite, seed) whose verdict is not the catalog's."""
    names = list(list_properties())
    catalog = {name: run_suite(name, rng_seed=42).verdict for name in names}
    for seed in seeds:
        for name in names:
            report = run_suite(name, rng_seed=seed)
            if report.verdict != catalog[name]:
                witness = report.worst_witness
                yield {
                    "property": name,
                    "seed": seed,
                    "verdict": report.verdict,
                    "catalog": catalog[name],
                    "max_violation": report.max_violation,
                    "trial": witness.get("trial"),
                    "dim": witness.get("dim"),
                    "t": witness.get("t"),
                }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=DEFAULT_SEEDS)
    for record in census(parser.parse_args().seeds):
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
