"""Label-level distribution utilities: stratified folds and resampling.

Everything here manipulates label arrays and instance indices only; no
feature data is touched. All randomness flows through explicit seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ClassDistribution


def round_half_away(x: float) -> int:
    """Round with halves away from zero (not banker's rounding)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class ResamplePlan:
    """Per-class target counts for a resampling pass."""

    targets: dict[str, int]
    rng_seed: int = 0

    def __post_init__(self):
        for name, t in self.targets.items():
            if t < 0:
                raise ValueError(f"negative target for class {name!r}: {t}")

    @property
    def total(self) -> int:
        return int(sum(self.targets.values()))


def distribution_from_labels(labels) -> ClassDistribution:
    """Count classes in first-appearance order.

    Counted by ``np.unique``, which makes all NaN labels one class.
    """
    names, first, counts = np.unique(
        np.asarray(labels), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return ClassDistribution(tuple(str(c) for c in names[order]), counts[order])


def stratified_folds(labels, k: int, seed: int = 0) -> np.ndarray:
    """Assign every instance a fold index in [0, k), stratified by class.

    Instances of each class are shuffled with the seed and dealt round-robin,
    so per-class counts across folds differ by at most one. Classes with
    fewer than k instances cannot reach every fold and trigger a warning.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds = np.empty(labels.shape[0], dtype=np.int64)
    # select each class by its np.unique code: all NaN labels are one class,
    # which labels == name would never match
    names, first, codes = np.unique(labels, return_index=True, return_inverse=True)
    for code in np.argsort(first):
        idx = np.flatnonzero(codes == code)
        if idx.size < k:
            warnings.warn(
                f"class {names[code]!r} has {idx.size} instances for {k} folds; "
                "some folds will miss it"
            )
        idx = rng.permutation(idx)
        folds[idx] = np.arange(idx.size) % k
    return folds


def resample(labels, plan: ResamplePlan) -> np.ndarray:
    """Instance indices realizing the plan's per-class targets exactly.

    Classes above target are undersampled without replacement; classes
    below keep every original instance and draw the remainder with
    replacement. Classes absent from the plan are dropped.
    """
    labels = np.asarray(labels).astype(str)
    rng = np.random.default_rng(plan.rng_seed)
    chosen = []
    for name, target in plan.targets.items():
        idx = np.flatnonzero(labels == name)
        if idx.size == 0:
            if target > 0:
                raise ValueError(f"plan targets absent class {name!r}")
            continue
        if target <= idx.size:
            take = rng.choice(idx, size=target, replace=False)
        else:
            extra = rng.choice(idx, size=target - idx.size, replace=True)
            take = np.concatenate([idx, extra])
        chosen.append(take)
    return np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)


def ratio_targets(
    dist: ClassDistribution, target_rho: float, seed: int = 0
) -> ResamplePlan:
    """Targets that move the distribution to a requested imbalance ratio.

    The majority class stays fixed and the minority class becomes
    round(majority / target_rho); the count difference is absorbed by the
    second-largest class so the total is preserved exactly. target_rho == 1
    instead balances every class at total/m. At most two classes change
    (aside from the balanced case).
    """
    if target_rho < 1.0:
        raise ValueError(f"target imbalance ratio must be >= 1, got {target_rho}")
    counts = dist.counts
    names = dist.class_names
    m = dist.m

    if target_rho == 1.0:
        base, rem = divmod(dist.total, m)
        order = np.argsort(-counts, kind="stable")
        targets = {name: base for name in names}
        for pos in range(rem):
            targets[names[order[pos]]] += 1
        return ResamplePlan(targets, rng_seed=seed)

    maj = int(np.argmax(counts))
    mino = int(np.argmin(counts))
    if maj == mino:
        raise ValueError("distribution needs at least two distinct classes")
    minority_target = round_half_away(counts[maj] / target_rho)
    if minority_target == 0:
        raise ValueError(
            f"target ratio {target_rho} would empty the minority class"
        )
    delta = minority_target - int(counts[mino])
    by_size = np.argsort(-counts, kind="stable")
    second = int(by_size[1])
    targets = {name: int(c) for name, c in zip(names, counts)}
    targets[names[mino]] = minority_target
    targets[names[second]] -= delta
    if targets[names[second]] <= 0:
        raise ValueError(
            f"target ratio {target_rho} cannot be absorbed by class "
            f"{names[second]!r}"
        )
    achieved = max(targets.values()) / min(targets.values())
    if abs(achieved - target_rho) > 0.02 * target_rho:
        raise ValueError(
            f"achievable ratio {achieved:.2f} misses target {target_rho:.2f} "
            "by more than 2%"
        )
    return ResamplePlan(targets, rng_seed=seed)


@dataclass(frozen=True)
class StepPlan:
    """Step-imbalance targets: r minority classes at y, the rest at z."""

    minority_count: int
    y: int
    z: int
    m: int
    achieved_rho: float

    @property
    def targets(self) -> tuple[int, ...]:
        return (self.y,) * self.minority_count + (self.z,) * (
            self.m - self.minority_count
        )

    @property
    def total(self) -> int:
        return self.minority_count * self.y + (self.m - self.minority_count) * self.z

    def bind(self, dist: ClassDistribution, seed: int = 0) -> ResamplePlan:
        """Assign y to the r smallest classes of a concrete distribution."""
        if dist.m != self.m:
            raise ValueError(
                f"plan is for {self.m} classes, distribution has {dist.m}"
            )
        order = np.argsort(dist.counts, kind="stable")
        targets = {}
        for rank, idx in enumerate(order):
            targets[dist.class_names[idx]] = (
                self.y if rank < self.minority_count else self.z
            )
        targets = {name: targets[name] for name in dist.class_names}
        return ResamplePlan(targets, rng_seed=seed)


def step_targets(total: int, m: int, r: int, target_rho: float) -> StepPlan:
    """Step-imbalance counts for r minority classes at ratio ~target_rho.

    y = round(total / (target_rho * (m - r) + r)) instances per minority
    class, z = round((total - r*y) / (m - r)) per majority class; the
    realized total drifts from the input by at most m instances and the
    achieved ratio is z/y.
    """
    if not 1 <= r < m:
        raise ValueError(f"minority count must be in 1..{m - 1}, got {r}")
    if target_rho <= 1.0:
        raise ValueError(f"step imbalance needs target ratio > 1, got {target_rho}")
    y = round_half_away(total / (target_rho * (m - r) + r))
    if y == 0:
        raise ValueError(
            f"target ratio {target_rho} rounds the minority classes to zero"
        )
    z = round_half_away((total - r * y) / (m - r))
    plan = StepPlan(
        minority_count=r, y=y, z=z, m=m, achieved_rho=z / y
    )
    if abs(plan.total - total) > m:
        raise ValueError(
            f"step targets drift {abs(plan.total - total)} instances from the "
            f"requested total {total}"
        )
    return plan
