"""An answer oracle that shares no code with the program under test.

Dominators come from a numpy scan, skylines from a block-nested loop
and Algorithm 1 from a direct numpy transcription of the paper's
pseudo code (single-dimension and slotting upgrades, ε = 1e-9), priced
with the paper's cost model ``Σ 1/(v + 1e-3)``.  No R-tree, join,
bound or kernel code of ``repro`` is involved.

The checkers raise :class:`WrongAnswer`; :func:`self_check` feeds them
corrupted answers and fails unless each one is rejected.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

EPSILON = 1e-9
OFFSET = 1e-3
REL_TOL = 1e-9


class WrongAnswer(Exception):
    """A program answer disagrees with the oracle or a property."""


def cost_of(points: np.ndarray) -> np.ndarray:
    """The paper's product cost of each row: sum of reciprocals."""
    return (1.0 / (np.asarray(points, dtype=np.float64) + OFFSET)).sum(
        axis=-1
    )


def skyline(points: np.ndarray) -> np.ndarray:
    """Minimisation skyline by a block-nested loop over sum order."""
    pts = points[np.argsort(points.sum(axis=1), kind="stable")]
    kept = np.empty_like(pts)
    n = 0
    for p in pts:
        window = kept[:n]
        if n and ((window <= p).all(axis=1) & (window < p).any(axis=1)).any():
            continue
        kept[n] = p
        n += 1
    return kept[:n].copy()


def algorithm1(sky: np.ndarray, product: np.ndarray):
    """Cheapest escape of ``product`` from the antichain ``sky``.

    Candidates are visited in the paper's order (per dimension: the
    single-dimension upgrade, then each consecutive slot), and the
    first strictly cheapest one wins.
    """
    if len(sky) == 0:
        return 0.0, tuple(map(float, product))
    base = float(cost_of(product))
    dims = len(product)
    best_cost = np.inf
    best = None
    for k in range(dims):
        ordered = sky[np.argsort(sky[:, k], kind="stable")]
        single = product.copy()
        single[k] = ordered[0, k] - EPSILON
        slots = ordered[:-1] - EPSILON
        slots[:, k] = ordered[1:, k] - EPSILON
        cands = np.vstack([single[None, :], slots])
        costs = cost_of(cands) - base
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best = cands[i]
    return best_cost, tuple(map(float, best))


class Oracle:
    """Reference costs and upgrades for every product of a catalog."""

    def __init__(self, competitors: np.ndarray, products: np.ndarray):
        self.competitors = competitors
        self.products = products
        skylines: Dict[bytes, np.ndarray] = {}
        self.costs = np.empty(len(products))
        self.upgraded: List[Tuple[float, ...]] = []
        for i, t in enumerate(products):
            mask = (competitors <= t).all(axis=1) & (
                competitors < t
            ).any(axis=1)
            key = np.packbits(mask).tobytes()
            if key not in skylines:
                skylines[key] = skyline(competitors[mask])
            cost, up = algorithm1(skylines[key], t)
            self.costs[i] = cost
            self.upgraded.append(up)
        self.order = sorted(range(len(products)), key=lambda i: (self.costs[i], i))

    def top(self, k: int) -> List[Tuple[int, float]]:
        """The canonical ``(record_id, cost)`` top-k."""
        return [(i, float(self.costs[i])) for i in self.order[:k]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_result(oracle: Oracle, record_id: int, cost: float, upgraded) -> None:
    """One upgrade: undominated by the base market, priced correctly,
    and equal to the reference cost."""
    if not 0 <= record_id < len(oracle.products):
        raise WrongAnswer(f"unknown record id {record_id}")
    u = np.asarray(upgraded, dtype=np.float64)
    p = oracle.competitors
    if ((p <= u).all(axis=1) & (p < u).any(axis=1)).any():
        raise WrongAnswer(f"upgrade of {record_id} is still dominated")
    delta = float(cost_of(u) - cost_of(oracle.products[record_id]))
    if not _close(cost, delta):
        raise WrongAnswer(
            f"cost {cost!r} of {record_id} is not the cost-model delta "
            f"{delta!r}"
        )
    if not _close(cost, float(oracle.costs[record_id])):
        raise WrongAnswer(
            f"cost {cost!r} of {record_id} differs from the reference "
            f"{float(oracle.costs[record_id])!r}"
        )


def check_ranking(oracle: Oracle, answer: Sequence[Tuple[int, float, tuple]], k: int) -> None:
    """A top-k answer: ``k`` results in canonical ``(cost, id)`` order,
    the reference's products, each one checked by :func:`check_result`."""
    if len(answer) != min(k, len(oracle.products)):
        raise WrongAnswer(f"top-{k} returned {len(answer)} results")
    keys = [(cost, rid) for rid, cost, _ in answer]
    if keys != sorted(keys):
        raise WrongAnswer(f"top-{k} is not in (cost, record_id) order")
    want = [rid for rid, _ in oracle.top(k)]
    got = [rid for rid, _, _ in answer]
    if got != want:
        raise WrongAnswer(f"top-{k} ids {got} differ from reference {want}")
    for rid, cost, upgraded in answer:
        check_result(oracle, rid, cost, upgraded)


def self_check(oracle: Oracle, k: int) -> None:
    """Fail unless the checker rejects corrupted copies of a right answer."""
    good = [
        (rid, cost, oracle.upgraded[rid]) for rid, cost in oracle.top(k)
    ]
    check_ranking(oracle, good, k)
    rid, cost, up = good[0]
    corrupted = {
        "perturbed cost": [(rid, cost * (1 + 1e-6), up)] + good[1:],
        "swapped ranks": [good[1], good[0]] + good[2:],
        "dominated upgrade": [
            (rid, cost, tuple(v + 1.0 for v in up))
        ] + good[1:],
    }
    for label, answer in corrupted.items():
        try:
            check_ranking(oracle, answer, k)
        except WrongAnswer:
            continue
        raise AssertionError(f"checker accepted a corrupted answer: {label}")
