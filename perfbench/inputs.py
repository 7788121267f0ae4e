"""Workload inputs, built from a seed by the benchmark's own code.

Nothing here calls the generator under test (``generate_rotation_set``):
long-period rotation sets come from Goldberg's closed form and are checked
with plain integer arithmetic before the library is asked to confirm them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import portraits

DATA = Path(__file__).resolve().parent / "data"

CENSUSES = ((2, 6), (3, 4), (4, 3), (5, 2))
CENSUS_COUNTS = {(2, 6): 12, (3, 4): 74, (4, 3): 398, (5, 2): 460}
ENUMERATIONS = ((3, 6), (4, 4), (5, 2))
ENUMERATION_COUNTS = {(3, 6): 252, (4, 4): 1116, (5, 2): 460}
# Degree-2 periods stop at 16 and degree-3 periods at 10: the seed's orbit
# scan walks d**p grid points, so each further period doubles (d=2) or
# triples (d=3) the cost of the slowest operation.
LONG_PERIODS = {2: range(8, 17), 3: range(6, 11)}
# A valid portrait the seed rejects: 45 fixed singletons plus a period-4
# rotating set, whose orbit scan needs 46**4 grid points.
PROBE_DEGREE, PROBE_PERIOD = 46, 4
CLI_INVOCATIONS = 80
CLI_MUTATED_SHARE = 0.15


def fmt(theta: Fraction) -> str:
    return f"{theta.numerator}/{theta.denominator}"


def portrait_text(degree: int, sets) -> str:
    """Canonical portrait text, as ``format_portrait`` prints it."""
    family = sorted(tuple(sorted(s)) for s in sets)
    lines = [f"degree {degree}"]
    lines += ["set " + " ".join(fmt(a) for a in s) for s in family]
    return "\n".join(lines) + "\n"


def parse_sets(text: str) -> tuple[int, list[list[Fraction]]]:
    """Degree and sets of a canonical portrait text (no library code)."""
    degree, sets = 0, []
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "degree":
            degree = int(rest[0])
        else:
            sets.append([Fraction(t) for t in rest])
    return degree, sets


# ---------------------------------------------------------------- closed form

def closed_form_set(d: int, n: int, m: int, deployment) -> list[Fraction]:
    """Goldberg's closed form for the rotation set with these data.

    With c_i the deployment block of the i-th smallest angle, its d-adic digit
    is k_i = c_i + [i + m >= n], and with p = n / gcd(m, n)
    theta_i = sum_{j<p} k_{(i+jm) mod n} d^(p-1-j) / (d^p - 1).
    The result is only a candidate; ``is_rotation_set`` decides.
    """
    blocks = [b for b, c in enumerate(deployment) for _ in range(c)]
    digits = [blocks[i] + (i + m >= n) for i in range(n)]
    p = n // gcd(m, n)
    q = d ** p - 1
    return [Fraction(sum(digits[(i + j * m) % n] * d ** (p - 1 - j)
                         for j in range(p)), q) for i in range(n)]


def is_rotation_set(angles, d: int, m: int) -> bool:
    """Plain-arithmetic orbit check: strictly increasing in [0, 1) and
    d * theta_i = theta_{(i+m) mod n} (mod 1) for every i."""
    n = len(angles)
    if not all(0 <= a < 1 for a in angles):
        return False
    if not all(x < y for x, y in zip(angles, angles[1:])):
        return False
    return all((d * a) % 1 == angles[(i + m) % n] for i, a in enumerate(angles))


def deployment_of(angles, d: int) -> tuple[int, ...]:
    counts = [0] * (d - 1)
    for a in angles:
        counts[int(a * (d - 1))] += 1
    return tuple(counts)


def confirmed_set(d: int, n: int, m: int, deployment) -> list[Fraction] | None:
    """The closed-form set, if both the orbit check and the library agree."""
    angles = closed_form_set(d, n, m, deployment)
    if not is_rotation_set(angles, d, m) or deployment_of(angles, d) != tuple(deployment):
        return None
    if portraits.classify_rotation_set(angles, d) != (m, n):
        raise AssertionError(f"library disagrees on d={d} n={n} m={m} {deployment}")
    rs = portraits.RotationSet(d, tuple(angles), m)
    if portraits.deployment_vector(rs) != tuple(deployment):
        raise AssertionError(f"library deployment differs for d={d} n={n} m={m}")
    return angles


def deployments(d: int, n: int):
    """Every (d-1)-tuple of non-negative integers summing to n."""
    if d == 2:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in deployments(d - 1, n - first):
            yield (first,) + rest


def rotating_portrait(d: int, n: int, m: int, deployment):
    """Text and expectations of the portrait: fixed singletons plus one set."""
    angles = confirmed_set(d, n, m, deployment)
    if angles is None:
        return None
    sets = [[Fraction(i, d - 1)] for i in range(d - 1)] + [angles]
    return {"text": portrait_text(d, sets), "degree": d, "period": n,
            "shift": m, "deployment": list(deployment)}


def long_period_inputs(seed: int) -> list[dict]:
    """One single-orbit rotating set per (degree, period) of LONG_PERIODS.

    The seed picks the rotation number m/n (m coprime to n) and, at degree 3,
    the deployment; the periods, and so the cost, never depend on it.
    """
    rng = random.Random(f"long-period:{seed}")
    out = []
    for d, periods in LONG_PERIODS.items():
        for n in periods:
            shifts = [m for m in range(1, n) if gcd(m, n) == 1]
            m = rng.choice(shifts)
            candidates = list(deployments(d, n))
            rng.shuffle(candidates)
            for dep in candidates:
                found = rotating_portrait(d, n, m, dep)
                if found is not None:
                    out.append(found)
                    break
            else:
                raise AssertionError(f"no rotation set for d={d} n={n} m={m}")
    rng.shuffle(out)
    return out


def probe_input() -> dict:
    """The degree-46 portrait: 45 fixed singletons and a period-4 set of
    rotation number 1/4 with one angle in each of the first four blocks."""
    d, n = PROBE_DEGREE, PROBE_PERIOD
    deployment = (1, 1, 1, 1) + (0,) * (d - 1 - n)
    found = rotating_portrait(d, n, 1, deployment)
    if found is None:
        raise AssertionError("the degree-46 probe set is not a rotation set")
    return found


# ---------------------------------------------------------------- census

def census_inputs() -> list[dict]:
    """The frozen census portraits in file order; ``index`` keys the goldens."""
    out = []
    text = (DATA / "census.txt").read_text(encoding="utf-8")
    for block in text.strip("\n").split("\n\n"):
        header, body = block.split("\n", 1)
        _, _, d, p = header.split()
        out.append({"index": len(out), "census": (int(d), int(p)),
                    "text": body + "\n"})
    counts: dict = {}
    for item in out:
        counts[item["census"]] = counts.get(item["census"], 0) + 1
    if counts != CENSUS_COUNTS:
        raise AssertionError(f"frozen census counts {counts} != {CENSUS_COUNTS}")
    return out


def census_file_text(portraits_by_census) -> str:
    """The census file: one ``# census d p`` header and portrait per block."""
    blocks = [f"# census {d} {p}\n{text}"
              for (d, p), texts in portraits_by_census for text in texts]
    return "\n".join(blocks)


def seeded_order(items: list, seed: int, name: str) -> list:
    rng = random.Random(f"{name}:{seed}")
    order = list(items)
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------- cli

def mutate(text: str, rng: random.Random) -> dict:
    """Move one angle of one set off its orbit.

    The angle moves into the support gap it opens - to its midpoint, or
    failing that to a third of it - so the file stays well formed.  A move is
    kept only when d times the new angle leaves the mutated set, which makes
    that set fail P1.  (In degree 4, every midpoint move of {0, 1/3, 2/3}
    maps back into the set.)
    """
    d, sets = parse_sets(text)
    support = sorted(a for s in sets for a in s)
    choices = [(si, ai) for si, s in enumerate(sets) for ai in range(len(s))]
    rng.shuffle(choices)
    for share in (Fraction(1, 2), Fraction(1, 3)):
        for si, ai in choices:
            theta = sets[si][ai]
            nxt = support[(support.index(theta) + 1) % len(support)]
            width = (nxt - theta) % 1 or Fraction(1)
            moved = (theta + width * share) % 1
            new_set = sorted(sets[si][:ai] + [moved] + sets[si][ai + 1:])
            if (d * moved) % 1 in new_set:
                continue
            new_sets = [s for k, s in enumerate(sets) if k != si] + [new_set]
            return {"text": portrait_text(d, new_sets), "moved": fmt(moved)}
    raise AssertionError("no angle could be moved off its orbit")


def cli_inputs(seed: int, census: list[dict]) -> list[dict]:
    """A seeded sample of census portraits, about 15% of them mutated."""
    rng = random.Random(f"cli:{seed}")
    picks = rng.sample(census, CLI_INVOCATIONS)
    n_bad = round(CLI_INVOCATIONS * CLI_MUTATED_SHARE)
    out = []
    for k, item in enumerate(picks):
        if k < n_bad:
            bad = mutate(item["text"], rng)
            out.append({"text": bad["text"], "valid": False, "moved": bad["moved"]})
        else:
            out.append({"text": item["text"], "valid": True, "index": item["index"],
                        "census": item["census"]})
    rng.shuffle(out)
    return out
