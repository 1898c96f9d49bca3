"""Scan folded cubes for eigenvalue -1 and test the divisibility pattern.

F_d is d-regular on 2^(d-1) vertices.  The scan computes the exact
multiplicity of -1 for each d, converts one eigenvector to a verified
efficient dominating function when the multiplicity is positive, and
checks the prediction that -1 occurs exactly when 4 divides d + 1.

Usage:
    python3 scripts/folded_cube_scan.py
    python3 scripts/folded_cube_scan.py --max-d 13
"""

from __future__ import annotations

import argparse
import time

from effdom.domination import verify_efficient
from effdom.graphs import folded_cube
from effdom.spectral import function_from_eigenvector, minus_one_multiplicity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-d", type=int, default=3,
                    help="smallest d; at d = 2 the fold collapses to K_2 and "
                         "the pattern does not apply")
    ap.add_argument("--max-d", type=int, default=11,
                    help="largest d; on a 2-vCPU machine d = 12 takes about 2 s "
                         "and d = 13 about 8 s and 460 MB")
    args = ap.parse_args()

    header = f"{'d':>3} {'n':>6} {'mult(-1)':>9} {'4|(d+1)':>8} {'agree':>6} {'witness':<26} {'sec':>6}"
    print(header)
    print("-" * len(header))
    all_agree = True
    for d in range(args.min_d, args.max_d + 1):
        t0 = time.time()
        x = folded_cube(d)
        rep = minus_one_multiplicity(x)
        predicted = (d + 1) % 4 == 0
        agree = (rep.multiplicity > 0) == predicted
        if d >= 3:
            all_agree = all_agree and agree
        witness = "-"
        if rep.witness is not None:
            f = function_from_eigenvector(x, rep.witness)
            ok = verify_efficient(x, f).ok
            witness = f"(j={f.j}, k={f.k}) {'verified' if ok else 'BROKEN'}"
            all_agree = all_agree and ok
        elapsed = time.time() - t0
        print(
            f"{d:>3} {x.n:>6} {rep.multiplicity:>9} {str(predicted):>8}"
            f" {str(agree):>6} {witness:<26} {elapsed:>6.2f}"
        )
    print()
    if args.min_d < 3:
        print("note: d = 2 collapses to K_2 and is excluded from the verdict")
    if all_agree:
        print("pattern confirmed: -1 is an eigenvalue of F_d exactly when 4 | d+1")
        return 0
    print("MISMATCH: some d >= 3 disagrees with the 4 | d+1 prediction")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
