#!/usr/bin/env python3
"""Probe tensor-power fidelity excess over the product baseline.

In the factorizing regime (max(lambda) >= |min(lambda)|) the maximal
fidelity of a tensor power equals the single-copy power, and the probe
should find zero excess.  Outside it the question is open; this script
gathers evidence by sampling channels there and recording whatever excess
the entangled-input search finds (the constant negative qubit spectrum,
for example, yields excess 2/9 from maximally entangled inputs).

Usage:
    python scripts/tensor_excess_probe.py --d 2 --n 2 --samples 20
"""

import argparse
import json
import sys

import numpy as np

from gpchannels import (
    OracleConfig,
    build_mub_family,
    channel_from_eigenvalues,
    fujiwara_algoet_check,
    multiplicativity_flags,
    spectrum_of,
    tensor_fidelity_probe,
)
from gpchannels.channel import Spectrum


def sample_open_regime_channel(d, fam, rng):
    """Rejection-sample CPTP channels outside the factorizing regime."""
    while True:
        lam = rng.uniform(-1.0 / (d - 1), 1.0, size=d + 1)
        if not fujiwara_algoet_check(Spectrum(d, lam)).passed:
            continue
        ch = channel_from_eigenvalues(d, lam, fam)
        if not multiplicativity_flags(ch).fmax_multiplicative:
            return ch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d", type=int, default=2, choices=[2, 3])
    ap.add_argument("--n", type=int, default=2, choices=[2, 3])
    ap.add_argument("--samples", type=int, default=20)
    ap.add_argument("--restarts", type=int, default=512)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--out", default=None, help="JSON path (default stdout)")
    args = ap.parse_args(argv)
    if args.d == 3 and args.n == 3:
        ap.error("d=3 supports n=2 only (superoperator guard)")

    rng = np.random.default_rng(args.seed)
    cfg = OracleConfig(restarts=args.restarts, seed=args.seed)
    fam = build_mub_family(args.d)
    records = []
    for _ in range(args.samples):
        ch = sample_open_regime_channel(args.d, fam, rng)
        probe = tensor_fidelity_probe(ch, args.n, cfg)
        records.append(
            {
                "lambdas": [float(x) for x in spectrum_of(ch).lambdas],
                "fmax_multiplicative_flag": multiplicativity_flags(ch).fmax_multiplicative,
                "estimate": probe.estimate,
                "baseline": probe.baseline,
                "excess": probe.excess,
            }
        )

    positive = [r for r in records if r["excess"] > 1e-6]
    summary = {
        "d": args.d,
        "n": args.n,
        "samples": args.samples,
        "restarts": args.restarts,
        "seed": args.seed,
        "channels_with_excess": len(positive),
        "max_excess": max((r["excess"] for r in records), default=0.0),
        "records": records,
    }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"{len(positive)}/{args.samples} open-regime channels show excess >1e-6; "
        f"max excess {summary['max_excess']:.4f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
