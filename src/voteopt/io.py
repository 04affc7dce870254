"""File formats: delimited matrices, prediction tables, JSON reports.

All matrix files are comma-delimited text with a header row; floats are
written with 17 significant digits so read/write round-trips are lossless.
Reports are JSON with sorted keys; an optional timestamp line is the only
non-reproducible content and can be suppressed.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from datetime import datetime, timezone
from itertools import chain, compress, count, cycle, islice
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
    _Owned,
)


def _check_names(names, read=str.strip) -> None:
    """Raise, before a writer opens its file, for a name its reader, ``read``, alters."""
    for name in names:
        if read(name) != name:
            raise ValueError(f"name {name!r} would be read back as {read(name)!r}")


def _records(fh, path, width=None, first_line=2):
    """The csv records of an open file, each checked against the header's
    width; the first of them is the header unless ``width`` is given."""
    records = csv.reader(fh)
    if width is None:
        header = next(records, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        yield header
        width = len(header)
    for ln, row in enumerate(records, start=first_line):
        if len(row) != width:
            raise ValueError(
                f"{path}:{ln}: expected {width} columns, found {len(row)}"
            )
        yield row


def _parse_float(cell: str, path, ln: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path}:{ln}: column {col!r}: not a number: {cell!r}")


def _name_set(path, kind, names):
    try:
        return kind(names)
    except ValueError as exc:  # a repeated name
        raise ValueError(f"{path}: {exc}") from None


def _read_matrix(path, marked: bool):
    """(values, classifiers, classes, markers) of a matrix file.

    A ``marked`` file holds weights and ends each row in a true/false
    `selected` column. The others hold accuracies. Each value is checked as
    it is parsed, an accuracy against [0, 1] and a weight for being finite
    and non-negative, so the first bad cell in file order is named.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(_records(fh, path))
    header = rows[0]
    if marked and (len(header) < 3 or header[-1].strip() != "selected"):
        raise ValueError(f"{path}: expected a trailing 'selected' column")
    if len(header) < 2:
        raise ValueError(f"{path}: need a classifier column and at least one class")
    end = len(header) - marked
    classes = _name_set(path, ClassSet, [h.strip() for h in header[1:end]])
    # NaN fails both ranges, and the largest float bars inf
    kind, top, rule = (("weight", np.finfo(float).max, "not a finite number >= 0") if marked
                       else ("accuracy", 1.0, "outside [0, 1]"))
    values, lines = [], {}
    for ln, row in enumerate(rows[1:], start=2):
        name = row[0].strip()
        if lines.setdefault(name, ln) != ln:
            raise ValueError(f"{path}:{ln}: duplicate classifier {name!r}, "
                             f"first on line {lines[name]}")
        for col, cell in zip(classes.names, row[1:end]):
            values.append(_parse_float(cell, path, ln, col))
            if not 0.0 <= values[-1] <= top:
                raise ValueError(f"{path}:{ln}: {kind} for ({name}, {col}) "
                                 f"is {values[-1]}, {rule}")
        if marked and (marker := row[-1].strip().lower()) not in ("true", "false"):
            raise ValueError(
                f"{path}:{ln}: selected marker must be true/false, got {marker!r}"
            )
    if len(rows) < 2:
        raise ValueError(f"{path}: no classifier rows")
    return (np.array(values).reshape(len(lines), classes.m), ClassifierSet(tuple(lines)),
            classes, [row[-1].strip().lower() == "true" for row in rows[1:]])


def _write_matrix(path, columns, names, values, markers=()) -> None:
    """A `classifier,<columns...>` header, then per name its values with 17
    significant digits and, where ``markers`` holds one, its marker."""
    _check_names(chain(names, columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["classifier", *columns])
        for i, name in enumerate(names):
            writer.writerow([name, *("%.17g" % x for x in values[i]), *markers[i:i + 1]])


def read_accuracy_matrix(path) -> AccuracyMatrix:
    """Parse `classifier,<class...>` rows into an accuracy matrix.

    Values outside [0, 1] are rejected with the offending row and column
    named; clamping would hide upstream data errors.
    """
    return AccuracyMatrix(*_read_matrix(path, marked=False)[:3])


def write_accuracy_matrix(path, v: AccuracyMatrix) -> None:
    _write_matrix(path, v.classes.names, v.classifiers.names, v.values)


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
    if selection.x.size != classifiers.n:
        raise ValueError(f"selection of {selection.x.size} for {classifiers.n} classifiers")
    _write_matrix(path, [*classes.names, "selected"], classifiers.names, weights.w,
                  ["true" if x else "false" for x in selection.x])


def read_weight_matrix(path):
    """Inverse of write_weight_matrix.

    Returns (weights, selection, classifiers, classes). Column sums are not
    policed here; conformance is the validate command's job.
    """
    values, classifiers, classes, markers = _read_matrix(path, marked=True)
    return (WeightMatrix(values), SelectionVector(np.array(markers, dtype=np.int64)),
            classifiers, classes)


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


# records of a prediction table converted at a time: the reader holds one
# block's lines (and on the csv path its cells as strings), and the arrays
# read so far
_BLOCK_ROWS = 4096
# the first 0 to 8 bytes of a little-endian word
_MASKS = np.array([(1 << 8 * i) - 1 for i in range(9)], np.uint64)


class _LabelCodes(dict):
    """Class code of each raw label cell, stripped and looked up once.

    An unknown label codes to -1, or with ``grow`` to the next free code, so
    codes then follow the order in which labels first appear.
    """

    def __init__(self, index: dict[str, int], grow: bool):
        super().__init__()
        self.index = index
        self.grow = grow

    def __missing__(self, cell: str) -> int:
        name = cell.strip()
        code = self.index.get(name, -1)
        if code < 0 and self.grow:
            code = self.index[name] = len(self.index)
        self[cell] = code
        return code


class _PredictionTable:
    """The layout of a predictions table and the arrays read from its body.

    The constructor makes the header checks; ``add_plain`` converts one
    block of records given as lines, and ``add`` one given as their cells in
    row-major order; ``finish`` makes the checks that need the whole body,
    then builds the PredictionSet.
    """

    def __init__(self, path, header, classifiers, classes):
        if len(header) < 3 or header[0] != "instance_id" or header[1] != "true_class":
            raise ValueError(
                f"{path}: header must start with instance_id,true_class"
            )
        self.soft = any(":" in col for col in header[2:])
        if self.soft:
            clf_names, cls_names = _soft_header_layout(header[2:], path)
        else:
            clf_names = tuple(header[2:])
            cls_names = None if classes is None else classes.names
        if classifiers is not None and tuple(classifiers.names) != clf_names:
            raise ValueError(
                f"{path}: classifiers {clf_names} do not match expected "
                f"{classifiers.names}"
            )
        if classes is not None and tuple(classes.names) != tuple(cls_names):
            raise ValueError(
                f"{path}: classes {cls_names} do not match expected {classes.names}"
            )
        self.classifiers = classifiers or _name_set(path, ClassifierSet, clf_names)
        # a hard table read without a class set takes its classes from the
        # union of its label cells, known after the last record
        self.classes = classes or (ClassSet(cls_names) if self.soft else None)
        names = self.classes.names if self.classes else ()
        self.codes = _LabelCodes({name: j for j, name in enumerate(names)},
                                 grow=self.classes is None)
        self.path, self.header, self.width = path, header, len(header)
        # the label cells of a record: its true class, then in the hard
        # layout its votes; the soft layout's other cells are scores
        self.label_columns = (False, True, *[not self.soft] * (self.width - 2))
        self.score_columns = (False, False, *[self.soft] * (self.width - 2))
        self.rows = 0
        self.ids, self.code_blocks, self.score_blocks = [], [], []
        self.bad_block = None

    def add(self, cells: list[str], first_line: int) -> None:
        """Convert one block of records, the first of them on ``first_line``."""
        rows = len(cells) // self.width
        self.rows += rows
        if self.bad_block is not None:
            return
        labels = compress(cells, cycle(self.label_columns))
        codes = np.fromiter(map(self.codes.__getitem__, labels), np.int64,
                            rows * sum(self.label_columns)).reshape(rows, -1)
        try:
            if codes.min() < 0:
                raise ValueError("unknown class label")
            if self.soft:
                scores = compress(cells, cycle(self.score_columns))
                self.score_blocks.append(np.fromiter(
                    map(float, scores), np.float64, rows * (self.width - 2)))
        except ValueError:
            # the first bad cell is named after the last record, so that a
            # ragged record later in the file is reported first
            self.bad_block = (cells, first_line)
            return
        self.code_blocks.append(codes)
        self.ids += map(str.strip, cells[::self.width])

    def add_plain(self, lines: list[str]) -> bool:
        """Convert one block of records, one a line, without a str per cell.

        Returns False, having converted nothing, if the block is empty, is
        not plain (see read_predictions), or holds a cell that the csv path
        would reject, so that ``add`` names it.
        """
        codes = self._plain_label_codes(lines)
        if codes is None:
            return False
        if self.soft:
            try:  # float()'s parser, except that it rejects cells like "1_0"
                self.score_blocks.append(np.loadtxt(
                    lines, delimiter=",", usecols=range(2, self.width),
                    comments=None, quotechar=None, ndmin=2).reshape(-1))
            except ValueError:
                return False
        self.code_blocks.append(codes)
        self.ids += (line.partition(",")[0].strip() for line in lines)
        self.rows += len(lines)
        return True

    def _plain_label_codes(self, lines: list[str]):
        """The (rows, label columns) codes of a plain block whose labels are
        all known, found in its UTF-8 bytes; otherwise None."""
        if not lines:
            return None
        rows, width = len(lines), self.width
        # every line ended, then 7 bytes so that a word fits after any cell
        end = "\0" * 7 if lines[-1].endswith("\n") else "\n" + "\0" * 7
        data = np.frombuffer("".join([*lines, end]).encode(), np.uint8)
        special = np.flatnonzero(data[:-7] <= ord(","))
        kind = data.take(special)
        seps = special[(kind == ord(",")) | (kind == ord("\n"))]
        # not plain: '"', NUL, 0x1c-0x1f (numpy's float parser strips them
        # as space, float() does not), or a line not of ``width`` cells. Each
        # line is a record, so a line that a lone "\r" ends without "\n"
        # leaves the block a "\n" short, unless it is the last, which csv
        # ends there too
        if ((kind == ord('"')).any() or (kind == 0).any()
                or ((kind >= 0x1c) & (kind <= 0x1f)).any()
                or len(seps) != rows * width
                or (data.take(seps[width - 1::width]) != ord("\n")).any()):
            return None
        # the label cells: the true class, and in the hard layout the votes
        seps = seps.reshape(rows, width)
        last = 2 if self.soft else width
        starts = (seps[:, :last - 1] + 1).ravel()
        lengths = seps[:, 1:last].ravel() - starts
        # the cells grouped by their bytes, compared 8 at a time as words
        # (a word may start at any byte); no NUL, so zero padding is unique
        words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
        group = None
        for k in range(0, max(int(lengths.max()), 1), 8):
            word = (words[np.minimum(starts + k, len(words) - 1)]
                    & _MASKS.take(lengths - k, mode="clip"))
            rank = np.unique(word, return_inverse=True)[1]
            group = rank if group is None else np.unique(
                group * len(rank) + rank, return_inverse=True)[1]
        first = np.full(group.max() + 1, len(group))
        np.minimum.at(first, group, np.arange(len(group)))
        lut = np.empty_like(first)
        for i in np.sort(first):  # each label once, in order of first appearance
            cell = data[starts[i]:starts[i] + lengths[i]].tobytes().decode()
            lut[group[i]] = self.codes[cell]
        if lut.min() < 0:
            return None  # an unknown label
        return lut[group].reshape(rows, -1)

    def _raise_first_bad_cell(self, cells: list[str], first_line: int) -> None:
        # each record's true class, then its cells
        index, header, path = self.codes.index, self.header, self.path
        for r in range(len(cells) // self.width):
            row = cells[r * self.width:(r + 1) * self.width]
            ln = first_line + r
            true_label = row[1].strip()
            if true_label not in index:
                raise ValueError(f"{path}:{ln}: unknown true class {true_label!r}")
            for col, cell in zip(header[2:], row[2:]):
                if self.soft:
                    _parse_float(cell, path, ln, col)
                elif cell.strip() not in index:
                    raise ValueError(
                        f"{path}:{ln}: column {col!r}: unknown class {cell.strip()!r}"
                    )

    def finish(self) -> PredictionSet:
        remap = None
        if self.classes is None:
            names = tuple(sorted(self.codes.index))
            self.classes = ClassSet(names)
            # provisional codes, in order of first appearance, to sorted ones
            rank = {name: j for j, name in enumerate(names)}
            remap = np.array([rank[name] for name in self.codes.index], np.int64)
        if not self.rows:
            raise ValueError(f"{self.path}: no instances")
        if self.bad_block is not None:
            self._raise_first_bad_cell(*self.bad_block)
        codes = np.concatenate(self.code_blocks)
        if remap is not None:
            codes = remap[codes]
        n, m = self.classifiers.n, self.classes.m
        scores = np.zeros((self.rows, n, m))
        if self.soft:
            flat, at = scores.reshape(-1), 0
            for i, block in enumerate(self.score_blocks):
                flat[at:at + block.size] = block
                at += block.size
                self.score_blocks[i] = None  # freed once copied
        else:
            np.put_along_axis(scores, codes[:, 1:, None], 1.0, axis=2)
        return PredictionSet(
            tuple(self.ids), codes[:, 0], _Owned(scores), self.classifiers,
            self.classes,
        )


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

    The file is read in one pass, converting ``_BLOCK_ROWS`` records at a
    time, so memory is the arrays read plus one block. A *plain* block
    (no '"', NUL or bytes 0x1c-0x1f, and the header's width on every line)
    is converted from its bytes: its labels are compared as words, each
    distinct one looked up once, and its scores parsed by ``np.loadtxt``.
    The first block that is not plain, or that holds a cell the csv path
    would reject, and every block after it, are read by ``csv`` as cells,
    so errors are those of the csv path. They come in file order within
    each kind: a record of the wrong width is raised when it is met; after
    the last record come the header and set checks, "no instances", then
    the first bad cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        records = _records(fh, path)
        header = [h.strip() for h in next(records)]
        try:
            table = _PredictionTable(path, header, classifiers, classes)
        except ValueError:
            deque(records, maxlen=0)  # a ragged record is reported first
            raise
        records = None
        for first_line in count(2, _BLOCK_ROWS):
            if records is None:
                lines = list(islice(fh, _BLOCK_ROWS))
                if table.add_plain(lines):
                    continue
                # this block and every later one go through csv
                records = _records(chain(lines, fh), path, table.width, first_line)
            cells = list(chain.from_iterable(islice(records, _BLOCK_ROWS)))
            if not cells:
                break
            table.add(cells, first_line)
            del cells  # freed before the next block is read
    return table.finish()


def write_predictions(path, preds: PredictionSet) -> None:
    if not len(preds):
        raise ValueError("no instances: read_predictions rejects a header-only file")
    _check_names(chain(preds.classes.names, preds.instance_ids))
    # a score column is `<classifier>:<class>`, split at its first ':'
    _check_names(preds.classifiers.names, lambda name: name.partition(":")[0].strip())
    cells = preds.classifiers.n * preds.classes.m
    flat = preds.scores.reshape(len(preds), cells)
    row_format = ",".join(["%.17g"] * cells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    with open(path, encoding="utf-8") as fh:
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
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_indices(path, indices) -> None:
    Path(path).write_text("".join(f"{int(i)}\n" for i in indices), encoding="utf-8")
