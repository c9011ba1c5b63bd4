"""Time the set-up a fresh interpreter pays before its first solve.

Usage: python3 perfbench/setup_probe.py SEED N M FACTOR

Imports the package from this checkout's ``src``, builds one dictionary and
its Lipschitz estimate, and, when FACTOR is 1, the ridge factorization the
ADMM baseline needs. Prints the elapsed seconds, counted from before the
import.
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    t0 = perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import sparse_consist

    seed, n, m, factor = (int(a) for a in sys.argv[1:5])
    d = sparse_consist.gen_dictionary(seed, n, m)
    d.estimate_lipschitz()
    if factor:
        d.ridge_cho_factor(1.0)
    print(perf_counter() - t0)


if __name__ == "__main__":
    main()
