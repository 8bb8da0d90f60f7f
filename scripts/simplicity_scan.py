#!/usr/bin/env python3
"""Far-half diagnostic across truncation depths.

Runs the simplicity diagnostic of a fixed stage n at increasing truncation
depths and prints the half-norm gap at each depth, the gap predicted by
``severed_copy_imbalance`` from the block junctions, and the gap times
q = q_n (the base stage's copy count).  One stage above the base the gap is
float-exact zero (every base-stage copy is intact); two stages above, each
rotation that is not a multiple of h_n severs one copy, and the measured gap
equals the prediction, of order 1/q.  Deeper stages sever further copies, and
the prediction, telescoped over their block junctions, still equals the
measured gap at every depth.
"""

from __future__ import annotations

import argparse

import numpy as np

import icelab as il


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--qs", default="9,729,16", help="comma list of per-stage copy counts")
    ap.add_argument("--base", type=int, default=1, help="diagnostic base stage n")
    ap.add_argument("--seed-word", default="012")
    args = ap.parse_args()

    qs = [int(t) for t in args.qs.split(",")]
    alphabet = il.Alphabet(tuple(sorted(set(args.seed_word))))
    w0 = il.word_from_text(alphabet, args.seed_word)
    sch = il.random_schedule(qs, args.seed, w0)
    k = len(alphabet.symbols)
    labels = {s: np.exp(2j * np.pi * i / k) for i, s in enumerate(alphabet.symbols)}

    print(f"heights: {sch.heights()}  base stage n = {args.base}")
    q = sch.stages[args.base].q
    header = f"{'depth':>5} {'h_N':>9} {'|f-g|^2/|f|^2':>14} {'|g|^2/|f|^2':>12} " \
             f"{'|<u,v>|':>10} {'|<f,v>|':>10} {'norm gap':>10} {'predicted':>10} " \
             f"{'gap*q':>7}"
    print(header)
    for depth in range(args.base + 1, len(qs) + 1):
        rep = il.simplicity_diagnostic(sch, labels, args.base, depth)
        imbalance = il.severed_copy_imbalance(sch, labels, args.base, depth)
        predicted = f"{abs(imbalance) / rep.h_N / max(rep.u2, rep.v2):>10.3e}"
        print(
            f"{depth:>5} {rep.h_N:>9} {rep.fg_ratio:>14.4f} {rep.g_ratio:>12.4f} "
            f"{rep.uv_ratio:>10.4f} {rep.fv_ratio:>10.4f} {rep.uv_norm_gap:>10.3e} "
            f"{predicted} {rep.uv_norm_gap * q:>7.3f}"
        )


if __name__ == "__main__":
    main()
