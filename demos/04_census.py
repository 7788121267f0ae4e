"""Exhaustive census: every valid portrait at degrees 2 and 3, certified.

Enumerates all rotation sets with element period up to 3, assembles every
family passing the portrait conditions, then pushes each one through the
whole pipeline and certifies the round trip.
"""

import time
from collections import Counter

from portraits import analyze, enumerate_portraits, format_portrait

started = time.monotonic()
for degree in (2, 3):
    portraits = enumerate_portraits(degree, 3)
    sizes = Counter(p.k for p in portraits)
    print(f"degree {degree}: {len(portraits)} valid portraits "
          f"(by family size: {dict(sorted(sizes.items()))})")

    failures = 0
    for p in portraits:
        an = analyze(p)
        if not (an.all_ok and an.fixed_points == degree):
            failures += 1
            print("  FAILED:")
            print("    " + format_portrait(p).replace("\n", "\n    "))
    print(f"  round trips certified: {len(portraits) - failures}/{len(portraits)}")

print(f"\ntotal time: {time.monotonic() - started:.2f}s")
