"""The generate-mem workload: in-memory sampling and estimation, no files.

Run as a child process by run.py:

    PYTHONPATH=src python3 perfbench/genmem.py --seed N --workers W --seconds S

One round generates 1M events of each model (single, pair, cascade),
first with workers=1 (serial) and then with workers=W (parallel), pairs
the directions of the last pair table and runs both estimators on them.
Rounds repeat for S seconds (at least one), and the child prints one JSON
line with, for each round, the stage wall times, peak RSS after each
stage, the computed column bytes of the pair table and the failed output
checks.  Checks run outside the timed regions, and each table is reduced
to a digest before the next is built, so the peak RSS is the program's
and not the checker's.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import sys
import time

import numpy as np

import checks
from hyperon import dataio, mc, pairs

EVENTS = 1_000_000
MODELS = ("single", "pair", "cascade")


def build_models() -> dict:
    table = dataio.load_bundled_parameters()
    lam = table.find("Lambda")
    xi = table.find("Xi-")
    pol = np.array([0.0, 0.0, checks.POLARIZATION_Z])
    lam_name = f"{lam.parent}:{lam.channel.replace(' ', '')}"
    xi_name = f"{xi.parent}:{xi.channel.replace(' ', '')}"
    return {
        "single": mc.SingleDecayModel(params=lam.params(), polarization=pol, channel=lam_name),
        "pair": mc.PairCorrelationModel(k=checks.K, channel=f"pair(k={checks.K:g})"),
        "cascade": mc.CascadeDecayModel(
            mu=xi.params(), nu=lam.params(), polarization=pol, channel=f"{xi_name}>{lam_name}"
        ),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _check(failures: list, check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        failures.append(str(exc))


def run(seed: int, workers: int, step=lambda name: contextlib.nullcontext()) -> dict:
    """One round of the workload; `step(name)` brackets each timed call."""
    models = build_models()
    failures: list[str] = []
    digests: dict[str, str] = {}
    stage_s = []
    rss_mb = []
    generate_s = {}
    pair_table = None
    for mode, w in (("serial", 1), ("parallel", workers)):
        total = 0.0
        for name in MODELS:
            config = mc.SampleConfig(seed=seed, events=EVENTS, model=models[name], workers=w)
            with step(f"generate-mem/{mode}/{name}"):
                t0 = time.perf_counter()
                table = mc.generate(config)
                elapsed = time.perf_counter() - t0
            total += elapsed
            generate_s[f"{mode}/{name}"] = elapsed
            digest = checks.table_digest(table)
            if mode == "serial":
                digests[name] = digest
                _check(failures, checks.unit_norms, table.n, name)
                if name == "single":
                    _check(failures, checks.mean_nz, table.n, models[name].params.alpha, name)
                elif name == "cascade":
                    first = table.directions_by_role(mc.ROLE_CASCADE[0])
                    _check(failures, checks.mean_nz, first, models[name].mu.alpha, "cascade first decay")
            else:
                _check(failures, checks.identical, digests[name], digest, name)
                if name == "pair":
                    pair_table = table
            del table
        stage_s.append(total)
        rss_mb.append(_peak_rss_mb())

    table_bytes = sum(
        np.asarray(getattr(pair_table, f.name)).nbytes for f in dataclasses.fields(pair_table)
    )
    with step("generate-mem/estimate"):
        t0 = time.perf_counter()
        n1, n2 = dataio.paired_directions(pair_table)
        w_value, w_stderr = pairs.witness_estimate(n1, n2)
        m = pairs.correlation_estimate(n1, n2)
        stage_s.append(time.perf_counter() - t0)
    rss_mb.append(_peak_rss_mb())
    _check(failures, checks.witness, w_value, w_stderr)
    _check(failures, checks.correlations, m, n1.shape[0])
    return {
        "stage_s": stage_s,
        "rss_mb": rss_mb,
        "generate_s": generate_s,
        "table_bytes": int(table_bytes),
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="repeat rounds this long")
    args = parser.parse_args()
    start = time.monotonic()
    rounds = [run(args.seed, args.workers)]
    while time.monotonic() - start < args.seconds:
        rounds.append(run(args.seed, args.workers))
    print(json.dumps({"rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
