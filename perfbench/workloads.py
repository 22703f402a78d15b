"""Seeded request lists for the three benchmark workloads.

Each workload is a fixed sequence of *slots*.  A slot fixes what a request
asks for (command, degree or precision class, output target) and owns a
small pool of candidate parameter points; the run seed picks one candidate
per slot.  So every seed sends the same classes of work, at different
points, and the exact outputs of every candidate can be recorded once
(``digests.json``) and compared afterwards.

Point rule, fixed before any point is drawn:

* big q-Jacobi domain with q = 1/2: 0 < aq, bq, cq < 1 and d < 0, each a
  fraction k/den with den in DENOMINATORS (so bit heights stay comparable);
* c is never an integer power of q.  On the weight's lattice the infinite
  q-Pochhammer arguments x/(cy) = q^{r-t}/c and d/(cy) = q^{-t}/(cq) land
  on q^{-k} exactly for those c (c = 1 is the one most users would type),
  and ``verify --suite orthogonality`` then dies with an uncaught
  ZeroDivisionError.  That is a known defect of the program, not an input
  the benchmark redraws around: such points are excluded from the domain,
  they are not retried after a failure;
* all candidates of one workload are distinct points, so no two requests of
  a run share a parameter point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction(1, 2)
DENOMINATORS = (3, 5, 7, 9, 11, 13)
CANDIDATES_PER_SLOT = 6
PRESET = ("--preset", "big-q-jacobi")

WORKLOADS = ("orthogonality", "rodrigues", "families")


@dataclass(frozen=True)
class Slot:
    kind: str          # orthogonality | rodrigues | check | monic | ...
    params: tuple      # degree / (precision, truncation) class of the slot
    est_s: float       # cost of one request of this class at the recording commit
    sink: str = "stdout"   # stdout | file
    fmt: str = "json"


@dataclass(frozen=True)
class Request:
    slot: int
    kind: str
    params: tuple
    point: tuple | None    # (a, b, c, d) as Fractions; None for parameter-free suites
    argv: tuple            # what the program receives, without --out
    sink: str
    fmt: str

    @property
    def key(self) -> str:
        """Digest key: the argv without the output path."""
        return " ".join(self.argv)


def is_power_of_q(v: Fraction) -> bool:
    if v <= 0:
        return False
    if v < 1:
        while v < 1:
            v /= Q
    else:
        while v > 1:
            v *= Q
    return v == 1


def in_domain(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> bool:
    return (all(0 < v * Q < 1 for v in (a, b, c)) and d < 0
            and not is_power_of_q(c))


def draw_point(rng: random.Random) -> tuple:
    """One point of the stated domain; rejection only applies the domain rule."""
    while True:
        a, b, c = (_draw_fraction(rng) for _ in range(3))
        d = -_draw_fraction(rng)
        if in_domain(a, b, c, d):
            return a, b, c, d


def _draw_fraction(rng: random.Random) -> Fraction:
    den = rng.choice(DENOMINATORS)
    return Fraction(rng.randrange(1, 2 * den), den)


# ---------------------------------------------------------------------------
# slot lists (est_s: latency of one request in reference seconds, each in
# a child forked after import, as run.py measures it, on a 2-vCPU x86-64
# host, Python 3.11.7, mpmath 1.3.0 pure-python backend)
# ---------------------------------------------------------------------------

def _orthogonality_slots() -> list:
    # (precision bits, truncation) below the CLI default 192/200, so that a
    # pass holds three requests; q = 1/2 keeps the truncation tail (2^-96)
    # far below the suite's 1e-25 gate.  Precision stays at 120 bits or
    # more: at 96 bits the gated pairs miss the gate.
    # The three classes cost about the same, so the median and the slowest
    # request are each one of three like requests, not a lone outlier.
    classes = [((120, 96), 2.25), ((128, 96), 2.25), ((136, 96), 2.25)]
    return [Slot("orthogonality", p, est) for p, est in classes * 3]


def _rodrigues_slots() -> list:
    # total degree 5..8 with varied splits; the Omega-bracket evaluation
    # grows with n+m and is cheaper for lopsided splits.  A pass holds one
    # request of each split; four of the eight have n+m = 7 and cost about
    # the same, so the median falls among them, not between two classes.
    classes = [((4, 4), 1.85), ((3, 2), 0.17), ((4, 3), 0.9), ((8, 0), 0.55),
               ((3, 4), 0.85), ((6, 1), 0.6), ((5, 2), 0.84), ((2, 5), 0.83)]
    return [Slot("rodrigues", p, est) for p, est in classes * 3]


def _families_slots() -> list:
    monic = [(6,), (8,), (10,), (12,)]
    hyper = [(2, 1), (3, 2), (4, 2), (3, 3)]
    nonmonic = [(3, 1), (4, 2), (5, 3), (6, 2)]
    weight = [(4, 4), (6, 3), (5, 5), (3, 6)]
    monic_est = {6: 0.117, 8: 0.257, 10: 0.55, 12: 1.07}
    slots = []
    for i in range(24):
        k = i % 4
        slots += [
            Slot("check", (), 0.076),
            Slot("monic", monic[k], monic_est[monic[k][0]], sink="file"),
            Slot("hypergeometric", hyper[k], 0.015),
            Slot("nonmonic", nonmonic[k], 0.02, sink="file"),
            Slot("weight", weight[k], 0.007, sink="file" if k % 2 else "stdout", fmt="csv"),
            Slot("consistency", (), 0.5),
            Slot("recurrence", (), 0.14, sink="file"),
        ]
    return slots


SLOTS = {
    "orthogonality": _orthogonality_slots(),
    "rodrigues": _rodrigues_slots(),
    "families": _families_slots(),
}

#: sent once per families run: the limits suite takes no parameter point
LIMITS_SLOT = Slot("limits", (), 0.2)


def candidates(workload: str) -> list:
    """Candidate points per slot: fixed for the workload, independent of the
    run seed, and pairwise distinct."""
    rng = random.Random(f"qbipoly-perfbench-{workload}")
    seen = set()
    pools = []
    for _ in SLOTS[workload]:
        pool = []
        while len(pool) < CANDIDATES_PER_SLOT:
            pt = draw_point(rng)
            if pt not in seen:
                seen.add(pt)
                pool.append(pt)
        pools.append(pool)
    return pools


def slot_count(workload: str, seconds: float) -> int:
    """Leading slots whose recorded cost fits in `seconds` (at least one)."""
    total, count = 0.0, 0
    for slot in SLOTS[workload]:
        if count and total + slot.est_s > seconds:
            break
        total += slot.est_s
        count += 1
    return count


def point_argv(point) -> tuple:
    out = list(PRESET)
    for name, v in zip("abcd", point):
        out += ["--param", f"{name}={v}"]
    return tuple(out)


def slot_argv(slot: Slot, point) -> tuple:
    kind, params = slot.kind, slot.params
    if kind == "orthogonality":
        prec, trunc = params
        return ("verify", "--suite", "orthogonality", *point_argv(point),
                "--precision", str(prec), "--truncation", str(trunc))
    if kind in ("consistency", "recurrence"):
        return ("verify", "--suite", kind, *point_argv(point))
    if kind == "limits":
        return ("verify", "--suite", "limits")
    if kind == "check":
        return ("check", *point_argv(point))
    degrees = " ".join(str(v) for v in params)
    fmt = ("--format", "csv") if slot.fmt == "csv" else ()
    return ("generate", "--family", kind, "--degrees", degrees, *point_argv(point), *fmt)


def build_requests(workload: str, seed: int, seconds: float) -> list:
    """The run's request list: a deterministic function of (workload, seed, seconds)."""
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    pools = candidates(workload)
    requests = []
    for i in range(slot_count(workload, seconds)):
        slot = SLOTS[workload][i]
        point = pools[i][rng.randrange(CANDIDATES_PER_SLOT)]
        requests.append(_request(i, slot, point))
    if workload == "families":
        requests.append(_request(len(requests), LIMITS_SLOT, None))
    return requests


def all_candidate_requests(workload: str) -> list:
    """Every request any seed can send for the workload (for recording digests)."""
    out = []
    for i, (slot, pool) in enumerate(zip(SLOTS[workload], candidates(workload))):
        out += [_request(i, slot, point) for point in pool]
    return out


def _request(i: int, slot: Slot, point) -> Request:
    return Request(i, slot.kind, slot.params, point, slot_argv(slot, point),
                   slot.sink, slot.fmt)
