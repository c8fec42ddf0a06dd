"""Every 3-coloring of s9 through the decomposition: an exhaustive proof
that mc_3(s9) = 7.

All 3^12 = 531,441 colorings of the 12 triples of s9 go through
``decompose_3coloring`` and ``verify_decomposition``, and the count of each
case is printed.  The largest monochromatic component t of each coloring
comes from ``tests/oracles.py``, which shares no code with the package, and
must match the case: t = n for L1, t = the sum of the two largest parts for
L2, and t >= n minus the smallest of X, Y and Z for L3.  The least t over
all colorings must be 7, the value ``mc3_by_decomposition`` (and so
``analyze``) reports.

Not collected by pytest.  Run it from the repository root with

    PYTHONPATH=src python tests/sweep_s9.py

It exits 1 on the first failure.
"""

import sys
from collections import Counter
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import max_component_size
from stsramsey import EdgeColoring, decompose_3coloring, s9, verify_decomposition
from stsramsey.search import mc3_by_decomposition

MC3_S9 = 7


def main() -> int:
    system = s9()
    n = system.n
    cases: Counter[str] = Counter()
    least = n
    for colors in product(range(3), repeat=system.m):
        c = EdgeColoring(system=system, r=3, colors=colors)
        d = decompose_3coloring(system, c)
        check = verify_decomposition(system, c, d)
        if not check:
            print(f"FAIL {colors}: {d.case} clause {check.failed_clause}")
            return 1
        t = max_component_size(n, system.triples, colors)
        if d.case == "L1":
            ok = t == n
        elif d.case == "L2":
            ok = t == sum(sorted(map(len, d.parts))[2:])
        else:
            ok = t >= n - min(map(len, d.parts[1:]))
        if not ok:
            print(f"FAIL {colors}: largest component {t} against case {d.case} {d.parts}")
            return 1
        cases[d.case] += 1
        least = min(least, t)
    print(f"{sum(cases.values())} colorings: "
          + ", ".join(f"{case} {cases[case]}" for case in ("L1", "L2", "L3")))
    reported = mc3_by_decomposition(system)[0].value
    print(f"least largest component {least}; mc3_by_decomposition {reported}")
    return 0 if least == reported == MC3_S9 else 1


if __name__ == "__main__":
    sys.exit(main())
