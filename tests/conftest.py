import numpy as np
import pytest

from voteopt import AccuracyMatrix, ClassSet, ClassifierSet

# Mean validation accuracies of the eight stock classifiers on the
# five-class intrusion-detection benchmark; the shared reference fixture.
D2_CLASSIFIERS = ("MLR", "J48", "JRIP", "REPTree", "MLP", "SVM", "GNB", "IBk")
D2_CLASSES = ("N1", "A1", "A2", "A3", "A4")
D2_VALUES = np.array([
    [0.96, 0.92, 0.86, 0.99, 0.95],
    [0.89, 0.78, 0.85, 0.90, 0.90],
    [0.90, 0.74, 0.78, 0.89, 0.96],
    [0.76, 0.86, 0.80, 0.98, 0.73],
    [0.90, 0.92, 0.81, 0.71, 0.79],
    [0.76, 0.73, 0.89, 0.76, 0.94],
    [0.90, 0.85, 0.81, 0.71, 0.73],
    [0.90, 0.72, 0.75, 0.74, 0.71],
])
SVM_ROW = D2_CLASSIFIERS.index("SVM")


@pytest.fixture(scope="session")
def d2_matrix() -> AccuracyMatrix:
    return AccuracyMatrix(
        D2_VALUES,
        ClassifierSet(D2_CLASSIFIERS),
        ClassSet(D2_CLASSES),
    )


def random_accuracy_matrix(rng, n=None, m=None) -> AccuracyMatrix:
    n = int(n if n is not None else rng.integers(2, 9))
    m = int(m if m is not None else rng.integers(2, 8))
    return AccuracyMatrix(
        rng.random((n, m)),
        ClassifierSet(tuple(f"c{i}" for i in range(n))),
        ClassSet(tuple(f"e{j}" for j in range(m))),
    )

