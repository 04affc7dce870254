"""The six reference weighting schemes used for comparison.

Mass conventions differ by scheme and are kept as-is: uw_pc, wa_pc and
de_weights make each class column sum to 1, while uw_pcc, wa_pcc and
bma_weights normalize total matrix mass to 1. Argmax voting is invariant
to a global scale, so the conventions are interchangeable downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import AccuracyMatrix, SelectionVector, WeightMatrix


@dataclass(frozen=True)
class DeParams:
    """Differential-evolution settings (rand/1/bin)."""

    population_size: int = 50
    max_generations: int = 200
    differential_weight: float = 0.8
    crossover_rate: float = 0.9
    rng_seed: int = 30

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError(
                f"population must be >= 4, got {self.population_size}"
            )
        if self.max_generations < 0:
            raise ValueError(
                f"generations must be >= 0, got {self.max_generations}"
            )
        if not 0.0 < self.differential_weight <= 2.0:
            raise ValueError(
                f"differential weight must be in (0, 2], got {self.differential_weight}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(
                f"crossover rate must be in [0, 1], got {self.crossover_rate}"
            )


def uw_pc(n: int, m: int) -> WeightMatrix:
    """Uniform weight per classifier: every pair gets 1/n."""
    _check_dims(n, m)
    return WeightMatrix(np.full((n, m), 1.0 / n))


def uw_pcc(n: int, m: int) -> WeightMatrix:
    """Uniform weight per classifier-class pair: every pair gets 1/(n*m)."""
    _check_dims(n, m)
    return WeightMatrix(np.full((n, m), 1.0 / (n * m)))


def wa_pc(v: AccuracyMatrix | np.ndarray) -> WeightMatrix:
    """Per-classifier weights proportional to mean accuracy across classes."""
    vals = _values(v)
    row_means = vals.mean(axis=1)
    total = row_means.sum()
    if total <= 0.0:
        raise ValueError("wa_pc undefined for an all-zero accuracy matrix")
    w = np.repeat((row_means / total)[:, None], vals.shape[1], axis=1)
    return WeightMatrix(w)


def wa_pcc(v: AccuracyMatrix | np.ndarray) -> WeightMatrix:
    """Per-pair weights proportional to accuracy, normalized over the matrix."""
    vals = _values(v)
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("wa_pcc undefined for an all-zero accuracy matrix")
    return WeightMatrix(vals / total)


def bma_weights(v: AccuracyMatrix | np.ndarray) -> WeightMatrix:
    """Posterior-style weights: accuracies as likelihoods under a uniform prior.

    Each class column is normalized to a posterior over classifiers, then
    scaled by 1/m so the whole matrix carries unit mass.
    """
    vals = _values(v)
    col_sums = vals.sum(axis=0)
    if np.any(col_sums <= 0.0):
        j = int(np.argmin(col_sums))
        raise ValueError(f"bma undefined: class column {j} sums to zero")
    return WeightMatrix(vals / col_sums / vals.shape[1])


def _project_simplex(vec: np.ndarray) -> np.ndarray:
    # Euclidean projection onto {w >= 0, sum w = 1}
    u = np.sort(vec)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, vec.size + 1) > (css - 1.0))[0][-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(vec - theta, 0.0)


def _trial_ceiling(coef: np.ndarray) -> float:
    """A bound on the computed fitness ``_project_simplex(vec) @ coef``.

    For vec in [-a, a]^n, a = 3: DE's population stays in [0, 1]^n and
    F <= 2, so its trial vectors lie in [-2, 3]^n. Let e = eps/2 and
    C = max|coef|. Sort vec descending into u with prefix sums css and let
    T_r = (css_r - 1)/(r + 1). Each test ``u_r (r+1) > css_r - 1`` decides
    the sign of u_r - T_r up to d = (n + 4) a e (cumsum error (r+1) r a e,
    plus three roundings), and the computed theta is within d of T_r. The
    test holds at the chosen r and fails at r + 1, so sum(max(vec - T_r, 0))
    is in [1, 1 + 2nd]; theta moves it by at most nd and the rounded
    subtractions by a factor 1 +- e. So the trial (>= 0) sums to s with
    |s - 1| <= (3n + 1) d, and scores at most max(coef) + C |s - 1|, plus
    n e s C from the dot product: an excess below (3n + 2)(n + 4) a e C =
    1.5 (3n + 2)(n + 4) eps C. The margin is 16 (n + 4)^2 eps C, over 3.5x.
    """
    margin = 16 * (coef.size + 4) ** 2 * np.finfo(np.float64).eps
    return float(coef.max() + margin * np.abs(coef).max())


def de_weights(
    v: AccuracyMatrix | np.ndarray,
    params: DeParams = DeParams(),
) -> WeightMatrix:
    """Per-classifier weights evolved by DE/rand/1/bin.

    The population starts uniformly in the [0, 1]^n weight box; trial
    vectors are repaired onto the simplex after mutation and crossover.
    The best genome is normalized to unit sum and broadcast across classes,
    so every class column sums to 1. Bitwise reproducible for a fixed seed.

    The initial population is scored unprojected. On pools where a random
    initial vector already scores above every simplex point, no trial can
    replace it and DE returns that vector normalized (on D2 this is why SVM
    gets about 0.12, not 0); every trial then scores below the best
    (``_trial_ceiling``), so no generation needs to run.

    With one classifier DE returns 1.0 per class without drawing. The loop
    returns ``best / best.sum()`` for a 1-vector ``best``: that is exactly
    1.0 when ``best > 0`` (IEEE x / x is exactly 1), and ``1 / n`` = 1.0
    otherwise, whatever the draws.
    """
    vals = _values(v)
    n = vals.shape[0]
    if n == 1:
        return WeightMatrix(np.ones_like(vals))
    coef = vals.mean(axis=1)
    rng = np.random.default_rng(params.rng_seed)
    pop = params.population_size
    f = params.differential_weight
    cr = params.crossover_rate

    population = rng.random((pop, n))
    fitness = population @ coef
    # no trial can beat a member above the ceiling: the run is decided
    settled = fitness.max() > _trial_ceiling(coef)
    for _ in range(params.max_generations):
        for i in range(0 if settled else pop):
            idx = rng.choice(pop - 1, size=3, replace=False)
            idx[idx >= i] += 1
            mutant = population[idx[0]] + f * (population[idx[1]] - population[idx[2]])
            cross = rng.random(n) < cr
            cross[rng.integers(n)] = True
            trial = _project_simplex(np.where(cross, mutant, population[i]))
            trial_fitness = trial @ coef
            if trial_fitness > fitness[i]:
                population[i] = trial
                fitness[i] = trial_fitness

    best = population[int(np.argmax(fitness))]
    total = best.sum()
    genome = best / total if total > 0 else np.full(n, 1.0 / n)
    return WeightMatrix(np.repeat(genome[:, None], vals.shape[1], axis=1))


# each scheme on (vals, de_params), its function looked up by name at call time
_SCHEME_TABLE = {
    "uw_pc": lambda vals, de: uw_pc(*vals.shape),
    "uw_pcc": lambda vals, de: uw_pcc(*vals.shape),
    "wa_pc": lambda vals, de: wa_pc(vals),
    "wa_pcc": lambda vals, de: wa_pcc(vals),
    "de": lambda vals, de: de_weights(vals, de),
    "bma": lambda vals, de: bma_weights(vals),
}
SCHEMES = tuple(_SCHEME_TABLE)


def compute_scheme(
    name: str, vals: np.ndarray, de_params: DeParams = DeParams()
) -> WeightMatrix:
    """Run one scheme on a plain accuracy array."""
    if name not in _SCHEME_TABLE:
        raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEMES}")
    return _SCHEME_TABLE[name](vals, de_params)


def baseline_with_selection(
    scheme: str,
    v: AccuracyMatrix,
    k: int,
    de_params: DeParams = DeParams(),
) -> tuple[SelectionVector, WeightMatrix]:
    """Best size-k subset for a scheme that cannot select on its own.

    The scheme runs once per C(n, k) row subset; subsets are scored by the
    class-averaged weighted accuracy of the resulting matrix and ties break
    to the lexicographically smallest subset.
    """
    vals = v.values
    n, m = vals.shape
    if not 1 <= k <= n:
        raise ValueError(f"ensemble size must be in 1..{n}, got {k}")
    best_score = -np.inf
    best = None
    for subset in itertools.combinations(range(n), k):
        sub_w = compute_scheme(scheme, vals[list(subset), :], de_params).w
        w = np.zeros((n, m))
        w[list(subset), :] = sub_w
        score = float((w * vals).sum() / m)
        if score > best_score + 1e-12:
            best_score = score
            best = (subset, w)
    subset, w = best
    return SelectionVector.from_indices(subset, n), WeightMatrix(w)


def _values(v: AccuracyMatrix | np.ndarray) -> np.ndarray:
    vals = v.values if isinstance(v, AccuracyMatrix) else np.asarray(v, dtype=np.float64)
    if vals.ndim != 2:
        raise ValueError(f"expected a 2-d accuracy array, got shape {vals.shape}")
    return vals


def _check_dims(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"need at least one classifier and one class, got {n}x{m}")
