"""File formats: delimited matrices, prediction tables, JSON reports.

All matrix files are comma-delimited text with a header row; floats are
written with 17 significant digits so read/write round-trips are lossless.
Reports are JSON with sorted keys; an optional timestamp line is the only
non-reproducible content and can be suppressed.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .core import (
    AccuracyMatrix,
    ClassSet,
    ClassifierSet,
    PredictionSet,
    SelectionVector,
    WeightMatrix,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    for ln, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(
                f"{path}:{ln}: expected {width} columns, found {len(row)}"
            )
    return rows


def _parse_float(cell: str, path, ln: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path}:{ln}: column {col!r}: not a number: {cell!r}")


def read_accuracy_matrix(path, normal_classes=()) -> AccuracyMatrix:
    """Parse `classifier,<class...>` rows into an accuracy matrix.

    Values outside [0, 1] are rejected with the offending row and column
    named; clamping would hide upstream data errors.
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need a classifier column and at least one class")
    class_names = tuple(h.strip() for h in header[1:])
    classifier_names = []
    values = []
    for ln, row in enumerate(rows[1:], start=2):
        classifier_names.append(row[0].strip())
        parsed = []
        for col, cell in zip(class_names, row[1:]):
            val = _parse_float(cell, path, ln, col)
            if not 0.0 <= val <= 1.0:
                raise ValueError(
                    f"{path}:{ln}: accuracy for ({row[0].strip()}, {col}) "
                    f"is {val}, outside [0, 1]"
                )
            parsed.append(val)
        values.append(parsed)
    if not values:
        raise ValueError(f"{path}: no classifier rows")
    kinds = tuple(
        "normal" if name in set(normal_classes) else "abnormal"
        for name in class_names
    )
    return AccuracyMatrix(
        np.array(values),
        ClassifierSet(tuple(classifier_names)),
        ClassSet(class_names, kinds),
    )


def write_accuracy_matrix(path, v: AccuracyMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", *v.classes.names])
        for i, name in enumerate(v.classifiers.names):
            writer.writerow([name, *(_fmt(x) for x in v.values[i])])


def write_weight_matrix(
    path,
    weights: WeightMatrix,
    selection: SelectionVector,
    classifiers: ClassifierSet,
    classes: ClassSet,
) -> None:
    """Weight rows in accuracy-matrix layout plus a `selected` marker column."""
    if weights.w.shape != (classifiers.n, classes.m):
        raise ValueError("weight shape does not match the classifier/class sets")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", *classes.names, "selected"])
        for i, name in enumerate(classifiers.names):
            writer.writerow([
                name,
                *(_fmt(x) for x in weights.w[i]),
                "true" if selection.x[i] else "false",
            ])


def read_weight_matrix(path):
    """Inverse of write_weight_matrix.

    Returns (weights, selection, classifiers, classes). Column sums are not
    policed here; conformance is the validate command's job.
    """
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 3 or header[-1].strip() != "selected":
        raise ValueError(f"{path}: expected a trailing 'selected' column")
    class_names = tuple(h.strip() for h in header[1:-1])
    names, values, flags = [], [], []
    for ln, row in enumerate(rows[1:], start=2):
        names.append(row[0].strip())
        values.append([
            _parse_float(cell, path, ln, col)
            for col, cell in zip(class_names, row[1:-1])
        ])
        marker = row[-1].strip().lower()
        if marker not in ("true", "false"):
            raise ValueError(
                f"{path}:{ln}: selected marker must be true/false, got {marker!r}"
            )
        flags.append(1 if marker == "true" else 0)
    if not names:
        raise ValueError(f"{path}: no classifier rows")
    return (
        WeightMatrix(np.array(values)),
        SelectionVector(np.array(flags, dtype=np.int64)),
        ClassifierSet(tuple(names)),
        ClassSet(class_names),
    )


def _soft_header_layout(columns, path):
    pairs = []
    for col in columns:
        if ":" not in col:
            raise ValueError(
                f"{path}: score column {col!r} is not of the form "
                "'<classifier>:<class>'"
            )
        clf, cls = col.split(":", 1)
        pairs.append((clf.strip(), cls.strip()))
    classifiers = tuple(dict.fromkeys(clf for clf, _ in pairs))
    classes = tuple(dict.fromkeys(cls for _, cls in pairs))
    expected = [(clf, cls) for clf in classifiers for cls in classes]
    if pairs != expected:
        raise ValueError(
            f"{path}: score columns must enumerate every class per classifier "
            "in classifier-major order"
        )
    return classifiers, classes


def read_predictions(path, classifiers=None, classes=None) -> PredictionSet:
    """Parse a predictions table.

    Soft format: `instance_id,true_class` then n*m score columns named
    `<classifier>:<class>`. Hard format: `instance_id,true_class` then one
    column per classifier holding its predicted class label, expanded to
    one-hot scores. When classifier/class sets are supplied the file is
    validated against them. Without a class set, the hard layout takes its
    classes from the union of all label cells (true classes and votes), so
    a mistyped vote is read as one more class rather than rejected; pass
    ``classes`` to reject it.
    """
    rows = _read_rows(path)
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "instance_id" or header[1] != "true_class":
        raise ValueError(
            f"{path}: header must start with instance_id,true_class"
        )
    soft = any(":" in col for col in header[2:])
    body = rows[1:]
    # the true-class column, then in the hard layout one vote column per
    # classifier; each distinct raw label cell is stripped and looked up once
    labels = [[row[1] for row in body]] if soft else list(zip(*body))[1:]
    lookup = dict.fromkeys(set().union(*labels))
    if soft:
        clf_names, cls_names = _soft_header_layout(header[2:], path)
    else:
        clf_names = tuple(header[2:])
        if classes is None:
            cls_names = tuple(sorted({cell.strip() for cell in lookup}))
        else:
            cls_names = classes.names

    if classifiers is not None and tuple(classifiers.names) != clf_names:
        raise ValueError(
            f"{path}: classifiers {clf_names} do not match expected "
            f"{classifiers.names}"
        )
    if classes is not None and tuple(classes.names) != tuple(cls_names):
        raise ValueError(
            f"{path}: classes {cls_names} do not match expected {classes.names}"
        )
    clf_set = classifiers or ClassifierSet(clf_names)
    cls_set = classes or ClassSet(cls_names)
    n, m = clf_set.n, cls_set.m
    cls_index = {name: j for j, name in enumerate(cls_set.names)}

    if not body:
        raise ValueError(f"{path}: no instances")
    for cell in lookup:
        lookup[cell] = cls_index.get(cell.strip(), -1)
    try:
        codes = np.stack([np.fromiter(map(lookup.__getitem__, col), np.int64, len(body))
                          for col in labels], axis=1)
        if codes.min() < 0:
            raise ValueError("unknown class label")
        if soft:
            cells = map(float, chain.from_iterable(row[2:] for row in body))
            scores = np.fromiter(cells, np.float64, len(body) * n * m).reshape(-1, n, m)
        else:
            scores = np.zeros((len(body), n, m))
            np.put_along_axis(scores, codes[:, 1:, None], 1.0, axis=2)
    except ValueError:
        # rescan in file order to name the first bad cell: each row's true
        # class, then its cells
        for ln, row in enumerate(body, start=2):
            true_label = row[1].strip()
            if true_label not in cls_index:
                raise ValueError(f"{path}:{ln}: unknown true class {true_label!r}")
            for col, cell in zip(header[2:], row[2:]):
                if soft:
                    _parse_float(cell, path, ln, col)
                elif cell.strip() not in cls_index:
                    raise ValueError(
                        f"{path}:{ln}: column {col!r}: unknown class {cell.strip()!r}"
                    )
        raise
    return PredictionSet(
        tuple(row[0].strip() for row in body), codes[:, 0], scores, clf_set, cls_set,
    )


def write_predictions(path, preds: PredictionSet) -> None:
    cells = preds.classifiers.n * preds.classes.m
    flat = preds.scores.reshape(len(preds), cells)
    row_format = ",".join(["%.17g"] * cells)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "instance_id", "true_class",
            *(f"{clf}:{cls}" for clf in preds.classifiers.names
              for cls in preds.classes.names),
        ])
        # csv quotes the id and class cells, writing each row with one
        # write(); the "%.17g" score cells never need quoting
        labels = []
        csv.writer(SimpleNamespace(write=labels.append)).writerows(zip(
            preds.instance_ids,
            (preds.classes.names[t] for t in preds.true_classes.tolist()),
        ))
        end = writer.dialect.lineterminator
        fh.writelines(
            f"{label[:-len(end)]},{row_format % tuple(row.tolist())}{end}"
            for label, row in zip(labels, flat)
        )


def read_labels(path) -> np.ndarray:
    """One class label per line; a leading 'class' header line is skipped."""
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty label file")
    if lines[0] == "class":
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: header only, no labels")
    return np.array(lines)


def write_report(path, payload: dict, timestamp: bool = True) -> None:
    """JSON report, sorted keys; timestamp suppressed for byte-stable output."""
    doc = dict(payload)
    if timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_indices(path, indices) -> None:
    Path(path).write_text("".join(f"{int(i)}\n" for i in indices))
