"""Input generators for the benchmark workloads.

Every generator takes an explicit seed (or numpy Generator), so one
``--seed`` reproduces every input. Nothing here calls the program: the
inputs are plain numpy arrays, turned into the program's value types by
the workloads.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
D2_PATH = ROOT / "tests" / "data" / "d2_accuracy.csv"

# Class mix of the generated D2 prediction tables: the normal class N1
# dominates, the four attack classes are rare.
D2_CLASS_MIX = (0.55, 0.2, 0.12, 0.08, 0.05)

# The paper's step imbalance for the scoring set (prediction_io).
PAPER_TOTAL = 557_900
PAPER_CLASSES = 7
PAPER_CLASSIFIERS = 8
PAPER_STEP_RHO = 6059.97

# Soft scores are whole multiples of 2**-16, fine enough that a paper-scale
# set has about as many distinct ensemble scores as instances.
SCORE_UNITS = 2 ** 16
# Weight matrices for prediction_io are rounded to multiples of 2**-24: with
# scores in units of 2**-16 every weighted sum of 8 classifiers needs at most
# 16 + 24 + 3 < 53 bits, so it is exact in float64 and tie groups do not
# depend on the order in which a sum is taken.
WEIGHT_GRID = 2.0 ** 24
_CHUNK = 1 << 16


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one input stream of one seed."""
    return np.random.default_rng([int(seed), int(stream)])


def read_d2():
    """The D2 fixture as (classifier names, class names, values)."""
    with open(D2_PATH, newline="") as fh:
        rows = list(csv.reader(fh))
    classes = tuple(h.strip() for h in rows[0][1:])
    names = tuple(r[0].strip() for r in rows[1:])
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return names, classes, values


def accuracy_pool(rng: np.random.Generator, n: int, m: int = 5) -> np.ndarray:
    """Synthetic accuracy pool: every entry uniform in [0.7, 1.0]."""
    return np.clip(0.7 + 0.3 * rng.random((n, m)), 0.0, 1.0)


def hard_votes(rng: np.random.Generator, accuracy: np.ndarray, rows: int,
               mix) -> tuple[np.ndarray, np.ndarray]:
    """Hard votes drawn from per-class accuracies.

    Returns (truth, votes) with votes of shape (rows, n). Classifier i votes
    for the true class t with probability accuracy[i, t], and otherwise for
    one of the other classes, uniformly.
    """
    n, m = accuracy.shape
    truth = rng.choice(m, size=rows, p=np.asarray(mix) / np.sum(mix))
    correct = rng.random((rows, n)) < accuracy[:, truth].T
    other = (truth[:, None] + rng.integers(1, m, size=(rows, n))) % m
    return truth, np.where(correct, truth[:, None], other)


def one_hot(votes: np.ndarray, m: int) -> np.ndarray:
    scores = np.zeros(votes.shape + (m,))
    np.put_along_axis(scores, votes[..., None], 1.0, axis=-1)
    return scores


def soft_scores(rng: np.random.Generator, accuracy: np.ndarray,
                truth: np.ndarray, as_units: bool = False) -> np.ndarray:
    """Soft scores in whole units of 2**-16, shape (rows, n, m).

    Each classifier's scores look like class probabilities: its voted class
    (drawn as in ``hard_votes``) gets a score uniform in [0.5, 1), and the
    rest of the unit mass is split over the other classes in uniform random
    proportions, rounded down. The voted class leads. This model is not
    fitted to any real classifier's output. With ``as_units`` the scores
    come as uint16 counts of 2**-16, which keeps a paper-scale set small
    until the program converts it. Rows are drawn in chunks to bound the
    memory the generator itself holds.
    """
    n, m = accuracy.shape
    rows = truth.shape[0]
    half = SCORE_UNITS // 2
    out = np.empty((rows, n, m), dtype=np.uint16)
    for lo in range(0, rows, _CHUNK):
        t = truth[lo:lo + _CHUNK]
        correct = rng.random((t.size, n)) < accuracy[:, t].T
        other = (t[:, None] + rng.integers(1, m, size=(t.size, n))) % m
        votes = np.where(correct, t[:, None], other)
        lead = rng.integers(half, SCORE_UNITS, size=(t.size, n))
        share = rng.random((t.size, n, m))
        np.put_along_axis(share, votes[..., None], 0.0, axis=-1)
        share *= ((SCORE_UNITS - lead) / share.sum(axis=-1))[..., None]
        block = np.floor(share).astype(np.uint16)
        np.put_along_axis(block, votes[..., None], lead[..., None].astype(np.uint16),
                          axis=-1)
        out[lo:lo + _CHUNK] = block
    return out if as_units else out / SCORE_UNITS


def round_half_away(x: float) -> int:
    return int(np.floor(x + 0.5)) if x >= 0 else -int(np.floor(-x + 0.5))


def step_counts(total: int, m: int, r: int, rho: float) -> tuple[int, int]:
    """Step imbalance: r minority classes of y instances, the rest of z."""
    y = round_half_away(total / (rho * (m - r) + r))
    z = round_half_away((total - r * y) / (m - r))
    return y, z


def step_labels(rng: np.random.Generator, r: int) -> np.ndarray:
    """Class indices in the paper's step imbalance, shuffled.

    The first r classes are the minority classes.
    """
    y, z = step_counts(PAPER_TOTAL, PAPER_CLASSES, r, PAPER_STEP_RHO)
    counts = [y] * r + [z] * (PAPER_CLASSES - r)
    return rng.permutation(np.repeat(np.arange(PAPER_CLASSES), counts))


def scheme_weights(rng: np.random.Generator, accuracy: np.ndarray) -> dict:
    """Seven weight matrices in the layouts of MIP and the six schemes.

    The formulas are the schemes' definitions on the whole pool; "mip" puts
    per-class weights on a random half of the classifiers and "de" a random
    per-classifier genome. Every entry is rounded to the WEIGHT_GRID.
    """
    n, m = accuracy.shape
    row_means = accuracy.mean(axis=1)
    genome = rng.random(n)
    mip = np.zeros((n, m))
    chosen = rng.choice(n, size=n // 2, replace=False)
    mip[chosen] = rng.random((chosen.size, m))
    raw = {
        "mip": mip / mip.sum(axis=0),
        "uw_pc": np.full((n, m), 1.0 / n),
        "uw_pcc": np.full((n, m), 1.0 / (n * m)),
        "wa_pc": np.repeat((row_means / row_means.sum())[:, None], m, axis=1),
        "wa_pcc": accuracy / accuracy.sum(),
        "de": np.repeat((genome / genome.sum())[:, None], m, axis=1),
        "bma": accuracy / accuracy.sum(axis=0) / m,
    }
    return {k: np.round(w * WEIGHT_GRID) / WEIGHT_GRID for k, w in raw.items()}


def write_accuracy_csv(path, classifiers, classes, values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", *classes])
        for name, row in zip(classifiers, values):
            writer.writerow([name, *(format(float(x), ".17g") for x in row)])


def write_hard_vote_csv(path, classifiers, classes, truth, votes) -> None:
    """Prediction table in the hard-vote layout: one label column per classifier."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "true_class", *classifiers])
        for t in range(truth.shape[0]):
            writer.writerow([f"i{t}", classes[truth[t]],
                             *(classes[c] for c in votes[t])])
