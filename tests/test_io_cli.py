import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voteopt import core, io
from voteopt.cli import build_parser, main
from voteopt.core import (
    ClassifierSet, ClassSet, HyperParams, PredictionSet, SelectionVector, WeightMatrix,
)
from voteopt.optimizer import validate_constraints

DATA = Path(__file__).parent / "data"
D2_CSV = str(DATA / "d2_accuracy.csv")


def synthetic_predictions(v, count, seed=0):
    """Simulate per-classifier votes with the matrix's per-class hit rates."""
    rng = np.random.default_rng(seed)
    n, m = v.n, v.m
    truth = rng.integers(0, m, size=count)
    scores = np.zeros((count, n, m))
    for t in range(count):
        j = truth[t]
        for i in range(n):
            if rng.random() < v.values[i, j]:
                vote = j
            else:
                vote = int((j + 1 + rng.integers(m - 1)) % m)
            scores[t, i, vote] = 1.0
    return PredictionSet(
        tuple(f"i{t}" for t in range(count)),
        truth, scores, v.classifiers, v.classes,
    )


@pytest.fixture(scope="module")
def small_matrix_csv(tmp_path_factory):
    # compact pool for the slow CLI paths (tune/sweep)
    path = tmp_path_factory.mktemp("fixtures") / "small.csv"
    path.write_text(
        "classifier,x,y\n"
        "c0,0.95,0.7\n"
        "c1,0.6,0.9\n"
        "c2,0.8,0.8\n"
        "c3,0.5,0.55\n"
    )
    return str(path)


class TestMatrixIo:
    def test_accuracy_round_trip(self, tmp_path, d2_matrix):
        v = io.read_accuracy_matrix(D2_CSV)
        assert v.classifiers.names == d2_matrix.classifiers.names
        assert np.array_equal(v.values, d2_matrix.values)
        out = tmp_path / "again.csv"
        io.write_accuracy_matrix(out, v)
        again = io.read_accuracy_matrix(out)
        assert np.array_equal(again.values, v.values)

    def test_out_of_range_value_names_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("classifier,a,b\nclf,0.5,1.2\n")
        with pytest.raises(ValueError, match=r"bad.csv:2.*\(clf, b\).*1\.2"):
            io.read_accuracy_matrix(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("classifier,a,b\nclf,0.5\n")
        with pytest.raises(ValueError, match="ragged.csv:2"):
            io.read_accuracy_matrix(p)

    def test_duplicate_classifier_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("classifier,a\nclf,0.5\nclf,0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            io.read_accuracy_matrix(p)

    def test_single_cell_file(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("classifier,only\nclf,0.75\n")
        v = io.read_accuracy_matrix(p)
        assert v.values.shape == (1, 1)

    def test_weight_matrix_bitwise_round_trip(self, tmp_path, d2_matrix):
        rng = np.random.default_rng(2)
        w = WeightMatrix(rng.random((8, 5)) * (1 / 3 + 1e-17))
        sel = SelectionVector(np.array([1, 0, 1, 1, 0, 1, 1, 1]))
        path = tmp_path / "w.csv"
        io.write_weight_matrix(path, w, sel, d2_matrix.classifiers, d2_matrix.classes)
        w2, sel2, clf, cls = io.read_weight_matrix(path)
        assert np.array_equal(w.w, w2.w)
        assert np.array_equal(sel.x, sel2.x)
        assert clf.names == d2_matrix.classifiers.names

    @pytest.mark.parametrize("cells, where, value", [
        ("1.5,-0.5,true\nB,0.5,0.5,false", "2: weight for (A, y)", "-0.5"),
        ("1.5,0.5,true\nB,nan,-1,false", "3: weight for (B, x)", "nan"),
        ("inf,-1,true\nB,0.5,0.5,false", "2: weight for (A, x)", "inf"),
    ], ids=["negative", "nan", "inf"])
    def test_bad_weight_names_file_line_and_pair(self, tmp_path, cells, where, value):
        # the first bad cell in file order
        p = tmp_path / "w.csv"
        p.write_text(f"classifier,x,y,selected\nA,{cells}\n")
        with pytest.raises(ValueError) as exc:
            io.read_weight_matrix(p)
        assert str(exc.value) == f"{p}:{where} is {value}, not a finite number >= 0"

    @pytest.mark.parametrize("name", [" a", "a ", "\ta\n"])
    @pytest.mark.parametrize("where", ["classifier", "class"])
    @pytest.mark.parametrize("writer", ["accuracy", "weight"])
    def test_writers_reject_names_their_reader_strips(self, tmp_path, writer, where, name):
        names = {"classifier": ["c0", "c1"], "class": ["x", "y"]}
        names[where][1] = name
        v = core.AccuracyMatrix(np.full((2, 2), 0.5), ClassifierSet(names["classifier"]),
                                ClassSet(names["class"]))
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError) as exc:
            if writer == "accuracy":
                io.write_accuracy_matrix(path, v)
            else:
                io.write_weight_matrix(path, WeightMatrix(v.values), SelectionVector([1, 0]),
                                       v.classifiers, v.classes)
        assert str(exc.value) == f"name {name!r} would be read back as {name.strip()!r}"
        assert not path.exists()

    @pytest.mark.parametrize("count", [0, 7, 9])
    def test_weight_writer_checks_the_selection_length(self, tmp_path, d2_matrix, count):
        path = tmp_path / "w.csv"
        with pytest.raises(ValueError) as exc:
            io.write_weight_matrix(path, WeightMatrix(d2_matrix.values),
                                   SelectionVector(np.ones(count, np.int64)),
                                   d2_matrix.classifiers, d2_matrix.classes)
        assert str(exc.value) == f"selection of {count} for 8 classifiers"
        assert not path.exists()

    def test_matrix_names_round_trip(self, tmp_path):
        clfs = ClassifierSet(("in ner", "a,b", 'say "hi"', "two\nlines", "c:0"))
        classes = ClassSet(("x y", "k:1", 'q"', "line\nbreak"))
        v = core.AccuracyMatrix(np.full((5, 4), 0.25), clfs, classes)
        path = tmp_path / "m.csv"
        io.write_accuracy_matrix(path, v)
        again = io.read_accuracy_matrix(path)
        assert (again.classifiers, again.classes) == (clfs, classes)
        sel = SelectionVector([1, 0, 1, 0, 1])
        io.write_weight_matrix(path, WeightMatrix(v.values), sel, clfs, classes)
        w, sel2, clfs2, classes2 = io.read_weight_matrix(path)
        assert (clfs2, classes2) == (clfs, classes)
        assert np.array_equal(sel2.x, sel.x) and np.array_equal(w.w, v.values)

    def test_weight_marker_validated(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_text("classifier,a,selected\nclf,0.5,maybe\n")
        with pytest.raises(ValueError, match="marker"):
            io.read_weight_matrix(p)


class TestPredictionsIo:
    def test_soft_round_trip(self, tmp_path, d2_matrix):
        preds = synthetic_predictions(d2_matrix, 10, seed=1)
        path = tmp_path / "preds.csv"
        io.write_predictions(path, preds)
        again = io.read_predictions(path, d2_matrix.classifiers, d2_matrix.classes)
        assert np.array_equal(preds.scores, again.scores)
        assert np.array_equal(preds.true_classes, again.true_classes)

    @pytest.mark.parametrize("layout", ["soft", "hard"])
    def test_reader_hands_over_its_scores_uncopied(self, tmp_path, monkeypatch, layout):
        p = tmp_path / "preds.csv"
        p.write_text(
            "instance_id,true_class,c0:x,c0:y\ni0,x,0.25,0.75\ni1,y,1,0\n"
            if layout == "soft" else
            "instance_id,true_class,c0,c1\ni0,x,x,y\ni1,y,y,y\n"
        )
        frozen, calls = core._frozen_array, []

        def spy(values, *args, **kwargs):
            calls.append((values, frozen(values, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(core, "_frozen_array", spy)
        preds = io.read_predictions(p)
        (given,) = [values for values, held in calls if held is preds.scores]
        assert isinstance(given, core._Owned)
        assert np.shares_memory(given.array, preds.scores)
        assert not preds.scores.flags.writeable

    def test_hard_labels_become_one_hot(self, tmp_path):
        p = tmp_path / "hard.csv"
        p.write_text(
            "instance_id,true_class,c0,c1\n"
            "i0,x,x,y\n"
            "i1,y,y,y\n"
        )
        preds = io.read_predictions(p)
        assert preds.classes.names == ("x", "y")
        assert preds.scores[0, 0].tolist() == [1.0, 0.0]
        assert preds.scores[0, 1].tolist() == [0.0, 1.0]

    def test_unknown_class_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "instance_id,true_class,c0:x,c0:y\n"
            "i0,zzz,0.5,0.5\n"
        )
        with pytest.raises(ValueError, match="zzz"):
            io.read_predictions(p)

    def test_hard_round_trip_with_padded_cells(self, tmp_path):
        p = tmp_path / "hard.csv"
        p.write_text(
            "instance_id,true_class,c0,c1,c2\n"
            "i0, x, x,y ,z\n"
            " i1,z ,  z, z,x\n"
            "i2,y,y,x, y\n"
        )
        preds = io.read_predictions(p)
        assert preds.instance_ids == ("i0", "i1", "i2")
        assert preds.classes.names == ("x", "y", "z")
        assert preds.true_classes.tolist() == [0, 2, 1]
        assert preds.scores.argmax(axis=2).tolist() == [[0, 1, 2], [2, 2, 0], [1, 0, 1]]
        assert np.array_equal(preds.scores.sum(axis=2), np.ones((3, 3)))
        out = tmp_path / "soft.csv"
        io.write_predictions(out, preds)
        again = io.read_predictions(out, preds.classifiers, preds.classes)
        assert again.scores.tobytes() == preds.scores.tobytes()
        assert again.true_classes.tobytes() == preds.true_classes.tobytes()
        assert again.instance_ids == preds.instance_ids

    def test_writer_matches_per_cell_reference(self, tmp_path):
        # one "%.17g" per cell through csv.writer, quoting every cell as needed
        rng = np.random.default_rng(9)
        ids = ("plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "in ner")
        names = ("x,y", 'q"', "line\nbreak", "z")
        scores = np.concatenate([
            np.floor(rng.random((4, 2, 4)) * 2**16) / 2**16,
            np.array([[[0.0, -0.0, 5e-324, 1e300], [1 / 3, 1e16, 0.1, 1e-5]]]),
            rng.random((2, 2, 4)),
        ])
        preds = PredictionSet(ids, np.array([0, 1, 2, 3, 0, 2, 1]), scores,
                              ClassifierSet(("c 0", "c1")), ClassSet(names))
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["instance_id", "true_class",
                             *(f"{c}:{k}" for c in ("c 0", "c1") for k in names)])
            for t, iid in enumerate(ids):
                writer.writerow([iid, names[preds.true_classes[t]],
                                 *(format(float(x), ".17g") for x in scores[t].ravel())])
        got = tmp_path / "got.csv"
        io.write_predictions(got, preds)
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("where, name, back", [
        ("classifiers", "a:b", "a"), ("classifiers", "k1 ", "k1"),
        ("ids", " i1", "i1"), ("ids", "i1 ", "i1"), ("classes", "\ty", "y"),
    ])
    def test_writer_rejects_names_its_reader_changes(self, tmp_path, where, name, back):
        names = {"ids": ["i0", "i1"], "classifiers": ["c0", "c1"], "classes": ["x", "y"]}
        names[where][1] = name
        preds = PredictionSet(names["ids"], np.array([0, 1]), np.full((2, 2, 2), 0.5),
                              ClassifierSet(names["classifiers"]), ClassSet(names["classes"]))
        path = tmp_path / "p.csv"
        with pytest.raises(ValueError) as exc:
            io.write_predictions(path, preds)
        assert str(exc.value) == f"name {name!r} would be read back as {back!r}"
        assert not path.exists()

    def test_writer_rejects_zero_instances(self, tmp_path):
        preds = PredictionSet((), np.zeros(0, dtype=int), np.zeros((0, 2, 2)),
                              ClassifierSet(("c0", "c1")), ClassSet(("x", "y")))
        path = tmp_path / "p.csv"
        with pytest.raises(ValueError, match="^no instances"):
            io.write_predictions(path, preds)
        assert not path.exists()

    def test_names_round_trip(self, tmp_path):
        ids = ("in ner", "a,b", 'say "hi"', "two\nlines")
        clfs = ClassifierSet(("c 0", "c,1", 'c"2'))
        classes = ClassSet(("x:y", "k:1:2", "line\nbreak", 'q"'))
        preds = PredictionSet(ids, np.array([0, 1, 2, 3]),
                              np.random.default_rng(4).random((4, 3, 4)), clfs, classes)
        path = tmp_path / "p.csv"
        io.write_predictions(path, preds)
        for sets in ({}, dict(classifiers=clfs, classes=classes)):
            again = io.read_predictions(path, **sets)
            assert again.instance_ids == ids
            assert (again.classifiers, again.classes) == (clfs, classes)
            assert again.scores.tobytes() == preds.scores.tobytes()
            assert again.true_classes.tolist() == [0, 1, 2, 3]

    def read_error(self, tmp_path, text, **sets):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            io.read_predictions(p, **sets)
        return str(err.value).replace(str(p), "path")

    def test_non_numeric_soft_cell_names_line_and_column(self, tmp_path):
        text = (
            "instance_id,true_class,c0:x,c0:y\n"
            "i0,x,0.5,0.5\n"
            "i1,y,0.25,abc\n"
        )
        assert self.read_error(tmp_path, text) == (
            "path:3: column 'c0:y': not a number: 'abc'"
        )

    def test_unknown_hard_vote_names_line_and_column(self, tmp_path):
        text = (
            "instance_id,true_class,c0,c1\n"
            "i0,x,x,y\n"
            "i1,y,y, q\n"
        )
        sets = dict(classifiers=ClassifierSet(("c0", "c1")), classes=ClassSet(("x", "y")))
        assert self.read_error(tmp_path, text, **sets) == (
            "path:3: column 'c1': unknown class 'q'"
        )

    def test_unknown_true_class_on_a_later_line(self, tmp_path):
        text = (
            "instance_id,true_class,c0:x,c0:y\n"
            "i0,x,0.5,0.5\n"
            "i1,y,0.1,0.9\n"
            "i2,w ,0.1,0.9\n"
        )
        assert self.read_error(tmp_path, text) == "path:4: unknown true class 'w'"

    def test_first_bad_cell_in_row_major_order_is_reported(self, tmp_path):
        head = "instance_id,true_class,c0:x,c0:y\ni0,x,0.5,0.5\n"
        # a bad score cell before a bad true class on a later line
        text = head + "i1,y,1,oops\ni2,zz,0.5,0.5\n"
        assert self.read_error(tmp_path, text) == (
            "path:3: column 'c0:y': not a number: 'oops'"
        )
        # the true class is checked before the same row's score cells
        text = head + "i1,zz,bad,0.5\ni2,y,worse,0.5\n"
        assert self.read_error(tmp_path, text) == "path:3: unknown true class 'zz'"
        # two unknown votes in one row: the first column is reported
        text = "instance_id,true_class,c0,c1\ni0,x,x,y\ni1,y,q,r\n"
        sets = dict(classifiers=ClassifierSet(("c0", "c1")), classes=ClassSet(("x", "y")))
        assert self.read_error(tmp_path, text, **sets) == (
            "path:3: column 'c0': unknown class 'q'"
        )

    def test_header_only_file_has_no_instances(self, tmp_path):
        text = "instance_id,true_class,c0:x,c0:y\n"
        assert self.read_error(tmp_path, text) == "path: no instances"

    def test_ragged_row_after_a_bad_cell_is_reported(self, tmp_path):
        rows = "".join(f"i{t},x,0.5,0.5\n" for t in range(2 * io._BLOCK_ROWS))
        text = ("instance_id,true_class,c0:x,c0:y\ni0,x,oops,0.5\n" + rows
                + "late,x,0.5\n")
        assert self.read_error(tmp_path, text) == (
            f"path:{2 * io._BLOCK_ROWS + 3}: expected 4 columns, found 3"
        )
        # a plain first block, read from its bytes; then a block with an
        # unknown label, which goes through csv as every later block does
        sets = dict(classes=ClassSet(("x", "y")))
        for head, cells, bad_row, message in [
            ("instance_id,true_class,c0,c1\n", "x,y", "odd,x,q,y\n", "column 'c0': unknown class"),
            ("instance_id,true_class,c0:x,c0:y\n", "0.5,0.5", "odd,q,0.5,0.5\n",
             "unknown true class"),
        ]:
            rows = [f"i{t},x,{cells}\n" for t in range(3 * io._BLOCK_ROWS)]
            rows[io._BLOCK_ROWS + 5] = bad_row
            text = head + "".join(rows)
            assert self.read_error(tmp_path, text + "late,x,y\n", **sets) == (
                f"path:{3 * io._BLOCK_ROWS + 2}: expected 4 columns, found 3"
            )
            assert self.read_error(tmp_path, text, **sets) == (
                f"path:{io._BLOCK_ROWS + 7}: {message} 'q'"
            )

    def test_ragged_row_after_a_bad_header_is_reported(self, tmp_path):
        rows = "".join(f"i{t},x,y\n" for t in range(io._BLOCK_ROWS))
        text = "id,true_class,c0\n" + rows + "i,x\n"
        assert self.read_error(tmp_path, text) == (
            f"path:{io._BLOCK_ROWS + 2}: expected 3 columns, found 2"
        )
        text = "instance_id,true_class,c0:x,c1:x,c0:y,c1:y\ni,x,1,0,0\n"
        assert self.read_error(tmp_path, text) == "path:2: expected 6 columns, found 5"

    def test_bad_cell_in_a_later_block_names_line_and_column(self, tmp_path):
        bad = 2 * io._BLOCK_ROWS + 7
        head = "instance_id,true_class,c0:x,c0:y,c1:x,c1:y\n"
        rows = [f"i{t},y,0.25,0.75,0.5,0.5\n" for t in range(3 * io._BLOCK_ROWS)]
        rows[bad - 2] = "odd,y,0.25,0.75,1e-3,nan?\n"
        assert self.read_error(tmp_path, head + "".join(rows)) == (
            f"path:{bad}: column 'c1:y': not a number: 'nan?'"
        )
        rows[bad - 2] = "odd,w,0.25,0.75,1e-3,0.5\n"
        assert self.read_error(tmp_path, head + "".join(rows)) == (
            f"path:{bad}: unknown true class 'w'"
        )
        votes = [f"i{t},y,x,y\n" for t in range(3 * io._BLOCK_ROWS)]
        votes[bad - 2] = "odd,y,x, q \n"
        sets = dict(classifiers=ClassifierSet(("c0", "c1")), classes=ClassSet(("x", "y")))
        text = "instance_id,true_class,c0,c1\n" + "".join(votes)
        assert self.read_error(tmp_path, text, **sets) == (
            f"path:{bad}: column 'c1': unknown class 'q'"
        )

    def hard_table(self, truth, votes, names):
        """A hard-vote table over three classifiers, with padded label cells."""
        lines = ["instance_id,true_class,c0,c1,c2"]
        pad = (" ", "", "  ")
        for t, (j, row) in enumerate(zip(truth, votes)):
            cells = [names[j], *(names[v] for v in row)]
            lines.append(",".join([f" i{t}", *(c + pad[(t + k) % 3]
                                              for k, c in enumerate(cells))]))
        return "\n".join(lines) + "\n"

    def test_hard_table_over_several_blocks_gets_sorted_classes(self, tmp_path):
        rng = np.random.default_rng(12)
        rows = 2 * io._BLOCK_ROWS + 11
        names = ("zeta", "alpha", "mu", "beta")
        truth, votes = rng.integers(0, 3, size=rows), rng.integers(0, 3, size=(rows, 3))
        truth[rows - 3] = 3  # "beta" first appears in the last block
        p = tmp_path / "hard.csv"
        p.write_text(self.hard_table(truth, votes, names))
        preds = io.read_predictions(p)
        assert preds.classes.names == ("alpha", "beta", "mu", "zeta")
        code = {name: preds.classes.names.index(name) for name in names}
        assert preds.true_classes.tolist() == [code[names[t]] for t in truth]
        assert preds.scores.argmax(axis=2).tolist() == [
            [code[names[v]] for v in row] for row in votes]
        assert preds.instance_ids == tuple(f"i{t}" for t in range(rows))

    def test_round_trips_over_several_blocks_are_byte_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = 2 * io._BLOCK_ROWS + 5
        clfs, classes = ClassifierSet(("c0", "c1")), ClassSet(("x", "y", "z"))
        soft = PredictionSet(tuple(f"s{t}" for t in range(rows)),
                             rng.integers(0, 3, size=rows), rng.random((rows, 2, 3)),
                             clfs, classes)
        path = tmp_path / "soft.csv"
        io.write_predictions(path, soft)
        again = io.read_predictions(path, clfs, classes)
        assert again.instance_ids == soft.instance_ids
        assert again.true_classes.tobytes() == soft.true_classes.tobytes()
        assert again.scores.tobytes() == soft.scores.tobytes()
        assert again.scores.shape == soft.scores.shape
        truth, votes = rng.integers(0, 3, size=rows), rng.integers(0, 3, size=(rows, 3))
        path = tmp_path / "hard.csv"
        path.write_text(self.hard_table(truth, votes, classes.names))
        hard = io.read_predictions(path, ClassifierSet(("c0", "c1", "c2")), classes)
        one_hot = np.zeros((rows, 3, 3))
        np.put_along_axis(one_hot, votes[:, :, None], 1.0, axis=2)
        assert hard.true_classes.tobytes() == truth.astype(np.int64).tobytes()
        assert hard.scores.tobytes() == one_hot.tobytes()
        assert io.read_predictions(path).scores.tobytes() == one_hot.tobytes()

    # labels of 1, 8, 9 and 17 bytes, and non-ASCII ones of 2 and 9 bytes
    LABELS = ("a", "abcdefgh", "abcdefghi", "abcdefghijklmnopq", "é", "日本語")

    def plain_table(self, layout, rows, eol="\n", final_eol=True, cell=None):
        """A table whose blocks are plain, apart from ``cell`` as the last
        score of the second block's third record, with ids and labels padded
        with spaces and ids that begin with '#'."""
        rng = np.random.default_rng(rows)
        names = self.LABELS
        soft = layout == "soft"
        columns = ([f"c{i}:{k}" for i in range(2) for k in names] if soft
                   else ["c0", "c1", "c2"])
        lines = [",".join(["instance_id", "true_class", *columns])]
        for t in range(rows):
            pad = " " * (t % 3)
            labels = [pad + names[j] + pad[:1] for j in rng.integers(0, len(names), 4)]
            cells = [repr(x) for x in rng.random(len(columns)).tolist()] if soft else labels[1:]
            lines.append(",".join([f"#i{t}" if t % 5 == 0 else f"{pad}i{t}",
                                   labels[0], *cells]))
        if cell is not None:
            lines[io._BLOCK_ROWS + 3] = lines[io._BLOCK_ROWS + 3].rsplit(",", 1)[0] + "," + cell
        return eol.join(lines) + (eol if final_eol else "")

    def read_both_ways(self, tmp_path, monkeypatch, text, **sets):
        """Read the table as written, and with its first id quoted (the same
        cell to csv), which sends every block through csv. Returns each read
        as its PredictionSet's fields or its error, and the first lines of
        the blocks that the read as written sent through csv."""
        csv_blocks, add = [], io._PredictionTable.add

        def spy(table, cells, first_line):
            csv_blocks.append(first_line)
            add(table, cells, first_line)

        monkeypatch.setattr(io._PredictionTable, "add", spy)
        head, first, rest = text.split("\n", 2)
        iid, cells = first.split(",", 1)
        reads = []
        for body in (text, f'{head}\n"{iid}",{cells}\n{rest}'):
            if reads:
                as_written, csv_blocks[:] = csv_blocks[:], []
            p = tmp_path / "table.csv"
            p.write_bytes(body.encode())
            try:
                got = io.read_predictions(p, **sets)
                reads.append((got.instance_ids, got.true_classes.tobytes(),
                              got.scores.tobytes(), got.scores.shape,
                              got.classifiers.names, got.classes.names))
            except ValueError as exc:
                reads.append(str(exc))
        assert csv_blocks[0] == 2  # the quoted id's block and all after it
        return reads, as_written

    @pytest.mark.parametrize("rows", [io._BLOCK_ROWS - 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("eol, final_eol", [("\n", True), ("\r\n", True), ("\n", False)])
    @pytest.mark.parametrize("layout", ["soft", "hard"])
    @pytest.mark.parametrize("with_classes", [False, True])
    def test_plain_blocks_read_as_csv_reads_them(self, tmp_path, monkeypatch, rows, eol,
                                                 final_eol, layout, with_classes):
        text = self.plain_table(layout, rows, eol, final_eol)
        # the class set in an order of its own, which the read keeps
        sets = dict(classes=ClassSet(self.LABELS)) if with_classes else {}
        (plain, via_csv), csv_blocks = self.read_both_ways(tmp_path, monkeypatch, text, **sets)
        assert csv_blocks == []
        assert plain == via_csv
        ids, classes = plain[0], plain[-1]
        assert len(ids) == rows and ids[:2] == ("#i0", "i1")
        assert classes == (self.LABELS if with_classes or layout == "soft"
                           else tuple(sorted(self.LABELS)))

    def test_lone_carriage_returns_read_as_csv_reads_them(self, tmp_path, monkeypatch):
        # a lone "\r" ends a record, to csv as to the line reader: a block
        # whose last line ends so is read from its bytes, a block with such
        # a line inside it goes through csv
        lines = self.plain_table("hard", 2 * io._BLOCK_ROWS + 3).split("\n")[:-1]
        lone = (io._BLOCK_ROWS, io._BLOCK_ROWS + 9, len(lines) - 1)
        text = "".join(line + ("\r" if i in lone else "\n") for i, line in enumerate(lines))
        (got, via_csv), csv_blocks = self.read_both_ways(tmp_path, monkeypatch, text)
        assert got == via_csv and len(got[0]) == 2 * io._BLOCK_ROWS + 3
        assert csv_blocks == [2 + io._BLOCK_ROWS, 2 + 2 * io._BLOCK_ROWS]

    @pytest.mark.parametrize("cell, plain", [
        ("1_0", False), (" 0.5 ", True), ("１", False),  # a fullwidth digit
        ("#1", False), ("\x1c1", False), ('"0.5"', False),
    ])
    def test_score_cells_read_as_csv_reads_them(self, tmp_path, monkeypatch, cell, plain):
        text = self.plain_table("soft", 2 * io._BLOCK_ROWS + 3, cell=cell)
        (got, via_csv), csv_blocks = self.read_both_ways(tmp_path, monkeypatch, text)
        assert got == via_csv
        # the block that holds the cell and every later one go through csv
        assert csv_blocks == ([] if plain else [2 + io._BLOCK_ROWS, 2 + 2 * io._BLOCK_ROWS])
        if isinstance(got, str):
            assert got.endswith(f"table.csv:{io._BLOCK_ROWS + 4}: column 'c1:日本語': "
                                f"not a number: {cell!r}")

    def test_misordered_score_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "instance_id,true_class,c0:x,c1:x,c0:y,c1:y\n"
            "i0,x,1,0,0,1\n"
        )
        with pytest.raises(ValueError, match="classifier-major"):
            io.read_predictions(p)


class TestCliOptimizeValidate:
    def run_optimize(self, tmp_path, *extra):
        weights = tmp_path / "weights.csv"
        report = tmp_path / "report.json"
        code = main([
            "optimize", "--matrix", D2_CSV, "--k", "8",
            "--lam", "0.96", "--alpha", "0.80",
            "--out-weights", str(weights), "--out-report", str(report),
            "--no-timestamp", *extra,
        ])
        return code, weights, report

    def test_optimize_writes_conformant_solution(self, tmp_path, capsys):
        code, weights, report = self.run_optimize(tmp_path)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["selected"] == [
            "MLR", "J48", "JRIP", "REPTree", "MLP", "SVM", "GNB", "IBk"
        ]
        assert all(c["satisfied"] for c in doc["constraints"])
        w, sel, clf, cls = io.read_weight_matrix(weights)
        v = io.read_accuracy_matrix(D2_CSV)
        checks = validate_constraints(v, w, sel, HyperParams(k=8, lam=0.96, alpha=0.80))
        assert doc["constraints"] == [
            {"constraint": c.constraint_id, "name": c.name, "satisfied": c.satisfied,
             "worst_violation": c.worst_violation, "location": c.location}
            for c in checks.checks
        ]
        svm = w.w[clf.index("SVM")]
        assert set(np.argsort(-svm)[:2]) == {2, 4}
        code = main([
            "validate", "--matrix", D2_CSV, "--weights", str(weights), "--k", "8",
        ])
        assert code == 0

    def test_tampered_weights_fail_validation(self, tmp_path, capsys):
        code, weights, _ = self.run_optimize(tmp_path)
        lines = weights.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = format(float(cells[1]) - 0.1, ".17g")  # break a column sum
        lines[1] = ",".join(cells)
        weights.write_text("\n".join(lines) + "\n")
        code = main([
            "validate", "--matrix", D2_CSV, "--weights", str(weights), "--k", "8",
        ])
        assert code == 4
        out = capsys.readouterr().out
        assert "nonconformant: constraint (5) class-weight-sum" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_validate_tolerance_out_of_range_exits_two(self, tmp_path, capsys, tol):
        _, weights, _ = self.run_optimize(tmp_path)
        code = main(["validate", "--matrix", D2_CSV, "--weights", str(weights),
                     "--tol", tol])
        assert code == 2
        assert "tol must be finite and >= 0" in capsys.readouterr().err

    def test_config_strings_are_converted_like_flags(self, tmp_path, capsys):
        _, weights, _ = self.run_optimize(tmp_path)
        lines = weights.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = format(float(cells[1]) - 1e-4, ".17g")  # a column sum off by 1e-4
        lines[1] = ",".join(cells)
        weights.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "1e-3"}))
        validate = ["validate", "--matrix", D2_CSV, "--weights", str(weights)]
        assert main(validate) == 4
        assert main([*validate, "--tol", "1e-3"]) == 0
        assert main([*validate, "--config", str(cfg)]) == 0
        cfg.write_text(json.dumps({"de-gens": "3", "de-pop": "6", "de-seed": "1"}))
        docs = []
        for name, extra in (("flags", ["--de-gens", "3", "--de-pop", "6", "--de-seed", "1"]),
                            ("config", ["--config", str(cfg)]), ("defaults", [])):
            out = tmp_path / name
            assert main(["baselines", "--matrix", D2_CSV, "--k", "3", "--out-dir",
                         str(out), "--no-timestamp", *extra]) == 0
            docs.append((out / "de.csv").read_bytes())
        assert docs[0] == docs[1] != docs[2]

    def test_byte_identical_reruns_and_worker_independence(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code1, w1, r1 = self.run_optimize(tmp_path / "a", "--workers", "1")
        code2, w2, r2 = self.run_optimize(tmp_path / "b", "--workers", "4")
        assert code1 == code2 == 0
        assert w1.read_bytes() == w2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()

    def test_infeasible_matrix_exits_three(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "classifier,a,b\nc0,0.7,0.6\nc1,0.7,0.6\nc2,0.7,0.6\n"
        )
        code = main([
            "optimize", "--matrix", str(flat), "--k", "2",
            "--out-weights", str(tmp_path / "w.csv"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lam_exits_two(self, tmp_path, capsys, lam):
        code, weights, _ = self.run_optimize(tmp_path, "--lam", lam)
        assert code == 2
        assert "lam must be finite" in capsys.readouterr().err
        assert not weights.exists()

    def test_missing_file_exits_two(self, tmp_path):
        code = main([
            "optimize", "--matrix", str(tmp_path / "nope.csv"), "--k", "2",
            "--out-weights", str(tmp_path / "w.csv"),
            "--out-report", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_config_file_supplies_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": 0.96, "alpha": 0.80}))
        weights = tmp_path / "w.csv"
        report = tmp_path / "r.json"
        code = main([
            "optimize", "--matrix", D2_CSV, "--k", "8",
            "--out-weights", str(weights), "--out-report", str(report),
            "--config", str(cfg), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["hyperparams"]["lam"] == 0.96

    def test_config_file_sets_on_off_flags(self, tmp_path):
        def optimize(config, *extra):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            report = tmp_path / "r.json"
            code = main(["optimize", "--matrix", D2_CSV, "--k", "8",
                         "--out-weights", str(tmp_path / "w.csv"),
                         "--out-report", str(report), "--config", str(cfg), *extra])
            return code, report

        code, report = optimize({"no-timestamp": True})
        assert code == 0
        assert "generated_at" not in json.loads(report.read_text())
        # an explicit flag wins over the file
        code, report = optimize({"no-timestamp": False}, "--no-timestamp")
        assert code == 0
        assert "generated_at" not in json.loads(report.read_text())
        code, report = optimize({"no-timestamp": False})
        assert "generated_at" in json.loads(report.read_text())
        assert optimize({"no-timestamp": "yes"})[0] == 2

    @pytest.mark.parametrize("value", [[1], {"a": 1}, True])
    def test_config_value_of_wrong_type_exits_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lam": value}))
        code, _, _ = self.run_optimize(tmp_path, "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}: 'lam' must be a string, a number or null" in err

    @pytest.mark.parametrize("key, value", [
        ("big_m", 1e6), ("deterministic", True),
        # argparse's own entries in the namespace are not settings
        ("func", 1), ("command", "x"), ("config", "other.json"),
    ])
    def test_config_naming_a_removed_setting_exits_two(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, _ = self.run_optimize(tmp_path, "--config", str(cfg))
        assert code == 2
        assert f"unknown setting {key!r}" in capsys.readouterr().err

    def test_config_value_outside_the_choices_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "fast"}))
        code, weights, _ = self.run_optimize(tmp_path, "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: 'method': invalid choice: 'fast' "
            "(choose from 'auto', 'enumerate', 'bnb')\n")
        assert not weights.exists()

    def test_config_value_among_the_choices_runs_as_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bnb"}))
        outputs = []
        for name, extra in (("config", ["--config", str(cfg)]),
                            ("flag", ["--method", "bnb"])):
            (tmp_path / name).mkdir()
            code, weights, report = self.run_optimize(tmp_path / name, *extra)
            assert code == 0
            outputs.append((weights.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("config", [[{"lam": 0.96}], "lam=0.96", 3])
    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, weights, _ = self.run_optimize(tmp_path, "--config", str(cfg))
        assert code == 2
        assert f"{cfg}: config must be a JSON object" in capsys.readouterr().err
        assert not weights.exists()

    def test_required_flag_cannot_come_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 4}))
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--matrix", D2_CSV, "--out-weights", str(tmp_path / "w.csv"),
                  "--out-report", str(tmp_path / "r.json"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert "the following arguments are required: --k" in capsys.readouterr().err

    @pytest.mark.parametrize("config, key", [
        ({"de-gens": 2.7}, "de-gens"), ({"de-pop": 10.9}, "de-pop"),
        ({"de-seed": 1e300}, "de-seed"), ({"de-gens": "2.7"}, "de-gens"),
        # a float for an integer setting is refused as its text "2.0" is on
        # the command line
        ({"de-gens": 2.0}, "de-gens"),
    ])
    def test_config_non_integer_for_integer_setting_exits_two(self, tmp_path, capsys,
                                                              config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "schemes"
        code = main(["baselines", "--matrix", D2_CSV, "--k", "3", "--out-dir", str(out),
                     "--config", str(cfg)])
        assert code == 2
        value = config[key]
        assert (f"{cfg}: {key!r}: invalid int value: {value!r}"
                in capsys.readouterr().err)
        assert not out.exists()
        # the flag with the same text is refused too
        with pytest.raises(SystemExit) as exc:
            main(["baselines", "--matrix", D2_CSV, "--k", "3", "--out-dir", str(out),
                  f"--{key}", str(value)])
        assert exc.value.code == 2
        assert f"argument --{key}: invalid int value" in capsys.readouterr().err

    def test_integral_config_values_run_as_their_flags(self, tmp_path, capsys):
        runs = {}
        for name, de, hyper in (
                ("flags", ["--de-gens", "2", "--de-pop", "10"], ["--lam", "1", "--k", "3"]),
                ("numbers", {"de-gens": 2, "de-pop": 10}, {"lam": 1, "k": 3}),
                ("strings", {"de-gens": "2", "de-pop": "10"}, {"lam": "1", "k": "3"})):
            out = tmp_path / name
            out.mkdir()
            if name != "flags":
                (out / "de.json").write_text(json.dumps(de))
                (out / "hyper.json").write_text(json.dumps(hyper))
                de = ["--config", str(out / "de.json")]
                hyper = ["--config", str(out / "hyper.json")]
            assert main(["baselines", "--matrix", D2_CSV, "--k", "3", "--out-dir",
                         str(out), "--no-timestamp", *de]) == 0
            # validate's --k is an integer setting a config may give
            code = main(["validate", "--matrix", D2_CSV, "--weights",
                         str(out / "de.csv"), *hyper])
            runs[name] = [(out / "de.csv").read_bytes(),
                          (out / "baselines.json").read_bytes(), code,
                          capsys.readouterr().out]
        assert runs["flags"] == runs["numbers"] == runs["strings"]

    @pytest.mark.parametrize("command, flag", [
        ("optimize", ["--deterministic"]), ("optimize", ["--big-m", "1e6"]),
        ("tune", ["--deterministic"]), ("tune", ["--big-m", "1e6"]),
        ("sweep", ["--deterministic"]), ("sweep", ["--big-m", "1e6"]),
        ("validate", ["--big-m", "1e6"]),
    ])
    def test_removed_flags_are_unrecognized(self, capsys, command, flag):
        required = {
            "optimize": ["--k", "2", "--out-weights", "w", "--out-report", "r"],
            "tune": ["--k", "2", "--predictions", "p", "--out-report", "r"],
            "sweep": ["--predictions", "p", "--k-min", "2", "--k-max", "3",
                      "--out-table", "t"],
            "validate": ["--weights", "w"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, "--matrix", D2_CSV, *required, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_removed_flag_exits_two_without_traceback(self, tmp_path):
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "voteopt", "optimize",
             "--matrix", D2_CSV, "--k", "3", "--deterministic",
             "--out-weights", str(tmp_path / "w.csv"),
             "--out-report", str(tmp_path / "r.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 2
        assert "unrecognized arguments: --deterministic" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "w.csv").exists()

    def test_reused_parser_leaks_no_state(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.80}))

        def optimize(*extra):
            report = tmp_path / "r.json"
            code = main(["optimize", "--matrix", D2_CSV, "--k", "8",
                         "--out-weights", str(tmp_path / "w.csv"),
                         "--out-report", str(report), *extra])
            assert code == 0
            return json.loads(report.read_text())

        first = optimize("--lam", "0.96", "--config", str(cfg), "--no-timestamp")
        assert (first["hyperparams"]["lam"], first["hyperparams"]["alpha"]) == (0.96, 0.80)
        assert "generated_at" not in first
        second = optimize()
        assert (second["hyperparams"]["lam"], second["hyperparams"]["alpha"]) == (0.95, 0.85)
        assert "generated_at" in second
        assert build_parser() is not build_parser()
        assert "exit codes:" in build_parser().format_help()

    def test_module_entry_point(self, tmp_path):
        # the child interpreter finds the package as this one does, installed
        # or not
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "voteopt", "optimize",
             "--matrix", D2_CSV, "--k", "3",
             "--out-weights", str(tmp_path / "w.csv"),
             "--out-report", str(tmp_path / "r.json"), "--no-timestamp"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    @pytest.mark.parametrize("weight", ["-0.5", "nan"])
    def test_bad_weight_file_exits_two_naming_the_cell(self, tmp_path, capsys, command,
                                                       weight):
        matrix = tmp_path / "m.csv"
        matrix.write_text("classifier,x,y\nA,0.9,0.8\nB,0.6,0.7\n")
        weights = tmp_path / "w.csv"
        weights.write_text(f"classifier,x,y,selected\nA,1.5,{weight},true\n"
                           "B,0.5,0.5,false\n")
        preds = tmp_path / "p.csv"
        preds.write_text("instance_id,true_class,A,B\ni0,x,x,y\ni1,y,y,y\n")
        args = (["--matrix", str(matrix)] if command == "validate" else
                ["--predictions", str(preds), "--out-report", str(tmp_path / "r.json")])
        code = main([command, "--weights", str(weights), *args])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {weights}:2: weight for (A, y) is {weight}, not a finite number >= 0\n")

    @pytest.mark.parametrize("weights, what", [
        ("classifier,x,y,selected\nc0,0.6,0.6,true\nc2,0.4,0.4,true\n", "classifiers"),
        ("classifier,y,x,selected\nc0,0.6,0.6,true\nc1,0.4,0.4,true\n", "classes"),
    ])
    def test_weight_file_for_another_matrix_exits_two(self, tmp_path, capsys,
                                                      weights, what):
        matrix = tmp_path / "m.csv"
        matrix.write_text("classifier,x,y\nc0,0.9,0.8\nc1,0.6,0.7\n")
        path = tmp_path / "w.csv"
        path.write_text(weights)
        code = main(["validate", "--matrix", str(matrix), "--weights", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"weight file {what} do not match the accuracy matrix" in captured.err
        assert captured.out == ""


class TestCliBaselinesEvaluate:
    def test_baselines_writes_all_schemes(self, tmp_path, capsys):
        out = tmp_path / "schemes"
        code = main([
            "baselines", "--matrix", D2_CSV, "--k", "8",
            "--out-dir", str(out), "--no-timestamp",
            "--de-gens", "50",
        ])
        assert code == 0
        for scheme in ("uw_pc", "uw_pcc", "wa_pc", "wa_pcc", "de", "bma"):
            w, sel, clf, cls = io.read_weight_matrix(out / f"{scheme}.csv")
            assert sel.count == 8
        doc = json.loads((out / "baselines.json").read_text())
        assert set(doc) == {"uw_pc", "uw_pcc", "wa_pc", "wa_pcc", "de", "bma"}

    def test_negative_de_generations_exit_two(self, tmp_path, capsys):
        code = main([
            "baselines", "--matrix", D2_CSV, "--k", "8",
            "--out-dir", str(tmp_path / "schemes"), "--de-gens", "-3",
        ])
        assert code == 2
        assert "generations must be >= 0" in capsys.readouterr().err

    def test_evaluate_reports_metrics(self, tmp_path, d2_matrix):
        preds = synthetic_predictions(d2_matrix, 120, seed=5)
        preds_path = tmp_path / "preds.csv"
        io.write_predictions(preds_path, preds)
        weights = tmp_path / "w.csv"
        main([
            "optimize", "--matrix", D2_CSV, "--k", "8",
            "--lam", "0.96", "--alpha", "0.8",
            "--out-weights", str(weights),
            "--out-report", str(tmp_path / "r.json"), "--no-timestamp",
        ])
        report = tmp_path / "metrics.json"
        code = main([
            "evaluate", "--weights", str(weights),
            "--predictions", str(preds_path),
            "--out-report", str(report), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["balanced_accuracy"] <= 1.0
        assert doc["macro_auprc"] is not None
        assert set(doc["per_class"]) == set(d2_matrix.classes.names)

    def test_evaluate_hard_votes_no_auprc(self, tmp_path):
        matrix = tmp_path / "m.csv"
        matrix.write_text("classifier,x,y\nc0,0.9,0.8\nc1,0.6,0.7\n")
        weights = tmp_path / "w.csv"
        weights.write_text(
            "classifier,x,y,selected\nc0,0.6,0.6,true\nc1,0.4,0.4,true\n"
        )
        preds = tmp_path / "p.csv"
        preds.write_text(
            "instance_id,true_class,c0,c1\n"
            "i0,x,x,x\n"
            "i1,y,y,x\n"
            "i2,y,y,y\n"
            "i3,x,y,x\n"
        )
        report = tmp_path / "r.json"
        code = main([
            "evaluate", "--weights", str(weights), "--predictions", str(preds),
            "--out-report", str(report), "--no-auprc", "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        # c0 carries 0.6: instance i3 goes to class y, everything else right
        assert doc["balanced_accuracy"] == pytest.approx((0.5 + 1.0) / 2)
        assert doc["macro_auprc"] is None


class TestCliResample:
    def write_labels(self, tmp_path):
        path = tmp_path / "labels.txt"
        labels = ["n"] * 900 + ["f1"] * 80 + ["f2"] * 20
        path.write_text("class\n" + "\n".join(labels) + "\n")
        return path

    def test_target_rho(self, tmp_path):
        labels = self.write_labels(tmp_path)
        idx = tmp_path / "idx.txt"
        dist = tmp_path / "dist.json"
        code = main([
            "resample", "--labels", str(labels), "--target-rho", "30",
            "--seed", "7", "--out-indices", str(idx),
            "--out-distribution", str(dist), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(dist.read_text())
        assert doc["total"] == 1000
        assert doc["imbalance_ratio"] == pytest.approx(30.0, rel=0.02)
        indices = [int(line) for line in idx.read_text().split()]
        assert len(indices) == 1000

    def test_step_imbalance(self, tmp_path):
        labels = self.write_labels(tmp_path)
        code = main([
            "resample", "--labels", str(labels),
            "--step-r", "1", "--step-rho", "20", "--seed", "1",
            "--out-indices", str(tmp_path / "idx.txt"),
            "--out-distribution", str(tmp_path / "dist.json"),
            "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "dist.json").read_text())
        counts = sorted(doc["achieved"].values())
        assert counts[0] * 20 == pytest.approx(counts[-1], rel=0.05)
        assert counts[1] == counts[2]

    @pytest.mark.parametrize("step", [
        ["--step-r", "1", "--step-rho", "5"], ["--step-r", "1"], ["--step-rho", "3"],
    ], ids=["both-steps", "step-r", "step-rho"])
    def test_both_modes_rejected(self, tmp_path, capsys, step):
        labels = self.write_labels(tmp_path)
        code = main([
            "resample", "--labels", str(labels), "--target-rho", "5", *step,
            "--out-indices", str(tmp_path / "i.txt"),
            "--out-distribution", str(tmp_path / "d.json"),
        ])
        assert code == 2
        assert "error: choose either --target-rho or --step-r/--step-rho" in (
            capsys.readouterr().err)
        assert not (tmp_path / "i.txt").exists()

    @pytest.mark.parametrize("mode, message", [
        (["--step-r", "1"], "--step-r requires --step-rho"),
        ([], "either --target-rho or --step-r/--step-rho is required"),
        # --step-rho alone chooses no mode
        (["--step-rho", "5"], "either --target-rho or --step-r/--step-rho is required"),
    ])
    def test_incomplete_mode_exits_two(self, tmp_path, capsys, mode, message):
        labels = self.write_labels(tmp_path)
        code = main([
            "resample", "--labels", str(labels), *mode,
            "--out-indices", str(tmp_path / "i.txt"),
            "--out-distribution", str(tmp_path / "d.json"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "i.txt").exists()

    def test_config_seed_is_converted_like_the_flag(self, tmp_path, capsys):
        labels = self.write_labels(tmp_path)

        def run(name, *extra):
            d = tmp_path / name
            d.mkdir()
            code = main(["resample", "--labels", str(labels), "--target-rho", "30",
                         "--out-indices", str(d / "idx.txt"),
                         "--out-distribution", str(d / "dist.json"), "--no-timestamp",
                         *extra])
            return code, d

        def config(name, value):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"seed": value}))
            return "--config", str(cfg)

        outs = []
        for name, extra in (("flag", ["--seed", "3"]), ("number", config("number", 3)),
                            ("string", config("string", "3"))):
            code, d = run(name, *extra)
            assert code == 0
            outs.append((d / "idx.txt").read_bytes() + (d / "dist.json").read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert json.loads((tmp_path / "flag" / "dist.json").read_text())["seed"] == 3
        code, d = run("fraction", *config("fraction", 1.9))
        assert code == 2
        assert "'seed': invalid int value: 1.9" in capsys.readouterr().err
        assert not (d / "idx.txt").exists()

    def test_seeded_byte_determinism(self, tmp_path):
        labels = self.write_labels(tmp_path)
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            main([
                "resample", "--labels", str(labels), "--target-rho", "30",
                "--seed", "3", "--out-indices", str(d / "idx.txt"),
                "--out-distribution", str(d / "dist.json"), "--no-timestamp",
            ])
            outs.append((d / "idx.txt").read_bytes() + (d / "dist.json").read_bytes())
        assert outs[0] == outs[1]


class TestCliTuneSweep:
    def make_predictions_file(self, tmp_path, matrix_csv, count=60, seed=2):
        v = io.read_accuracy_matrix(matrix_csv)
        preds = synthetic_predictions(v, count, seed=seed)
        path = tmp_path / "preds.csv"
        io.write_predictions(path, preds)
        return path

    def test_tune_runs_and_reports(self, tmp_path, small_matrix_csv):
        preds = self.make_predictions_file(tmp_path, small_matrix_csv)
        report = tmp_path / "tuned.json"
        code = main([
            "tune", "--matrix", small_matrix_csv, "--k", "2",
            "--predictions", str(preds),
            "--lam0", "0.5", "--alpha0", "0.8",
            "--dlam", "0.25", "--dalpha", "0.1",
            "--out-report", str(report), "--no-timestamp",
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["lam"] >= 0.0
        assert 0.0 <= doc["alpha"] <= 1.0

    @pytest.mark.parametrize("flag", ["--dlam", "--dalpha"])
    def test_tune_non_finite_step_exits_two(self, tmp_path, capsys, small_matrix_csv, flag):
        preds = self.make_predictions_file(tmp_path, small_matrix_csv)
        report = tmp_path / "tuned.json"
        code = main([
            "tune", "--matrix", small_matrix_csv, "--k", "2",
            "--predictions", str(preds), flag, "nan",
            "--out-report", str(report), "--no-timestamp",
        ])
        assert code == 2
        assert "step sizes must be positive and finite" in capsys.readouterr().err
        assert not report.exists()

    def test_sweep_emits_finite_improvement_table(self, tmp_path, small_matrix_csv):
        preds = self.make_predictions_file(tmp_path, small_matrix_csv, count=80)
        table = tmp_path / "table.csv"
        code = main([
            "sweep", "--matrix", small_matrix_csv, "--predictions", str(preds),
            "--k-min", "2", "--k-max", "3", "--out-table", str(table),
            "--de-pop", "10", "--de-gens", "20", "--no-timestamp",
        ])
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "metric,scheme,K=2,K=3"
        assert len(lines) == 1 + 5 * 6  # five metrics, six schemes
        for line in lines[1:]:
            cells = line.split(",")[2:]
            assert all(np.isfinite(float(c)) for c in cells)

    @pytest.mark.parametrize("k_min, k_max", [(1, 2), (2, 5), (3, 2)])
    def test_sweep_k_range_outside_the_pool_exits_two(self, tmp_path, capsys,
                                                      small_matrix_csv, k_min, k_max):
        preds = self.make_predictions_file(tmp_path, small_matrix_csv)
        table = tmp_path / "table.csv"
        code = main([
            "sweep", "--matrix", small_matrix_csv, "--predictions", str(preds),
            "--k-min", str(k_min), "--k-max", str(k_max), "--out-table", str(table),
        ])
        assert code == 2
        assert (f"K range {k_min}..{k_max} must sit inside 2..4"
                in capsys.readouterr().err)
        assert not table.exists()


MATRIX = "classifier,x,y\nA,0.9,0.8\nB,0.6,0.7\n"
WEIGHTS = "classifier,x,y,selected\nA,0.5,0.5,true\nB,0.5,0.5,true\n"
EVALUATE = ["evaluate", "--weights", "{w}", "--predictions", "{p}", "--out-report", "{r}"]
RESAMPLE = ["resample", "--labels", "{l}", "--out-indices", "{r}",
            "--out-distribution", "{r}", "--target-rho", "1"]
BASELINES = ["baselines", "--matrix", D2_CSV, "--out-dir", "{r}", "--k"]


class TestCliInputErrors:
    """Each input error exits 2 with one line naming what is wrong and where."""

    @pytest.mark.parametrize("files, argv, message", [
        pytest.param({"m": ""}, ["optimize", "--matrix", "{m}"], "{m}: empty file",
                     id="empty-file"),
        pytest.param({"w": MATRIX}, EVALUATE, "{w}: expected a trailing 'selected' column",
                     id="weights-without-selected"),
        pytest.param({"m": "classifier\nA\n"}, ["optimize", "--matrix", "{m}"],
                     "{m}: need a classifier column and at least one class",
                     id="one-column-header"),
        pytest.param({"m": "classifier,x,y\n"}, ["optimize", "--matrix", "{m}"],
                     "{m}: no classifier rows", id="header-only-matrix"),
        pytest.param({"w": WEIGHTS, "p": "instance_id,true_class,A:x,A:y,B\ni0,x,1,0,x\n"},
                     EVALUATE, "{p}: score column 'B' is not of the form "
                     "'<classifier>:<class>'", id="soft-column-without-colon"),
        pytest.param({"w": WEIGHTS, "p": "instance_id,true_class,A,C\ni0,x,x,y\n"},
                     EVALUATE, "{p}: classifiers ('A', 'C') do not match expected "
                     "('A', 'B')", id="classifier-mismatch"),
        pytest.param({"w": WEIGHTS,
                      "p": "instance_id,true_class,A:x,A:z,B:x,B:z\ni0,x,1,0,1,0\n"},
                     EVALUATE, "{p}: classes ('x', 'z') do not match expected "
                     "('x', 'y')", id="class-mismatch"),
        pytest.param({"l": ""}, RESAMPLE, "{l}: empty label file", id="empty-labels"),
        pytest.param({"l": "class\n"}, RESAMPLE, "{l}: header only, no labels",
                     id="header-only-labels"),
        pytest.param({}, BASELINES + ["8", "--de-f", "0"],
                     "differential weight must be in (0, 2], got 0.0", id="de-f-zero"),
        pytest.param({}, BASELINES + ["8", "--de-f", "2.5"],
                     "differential weight must be in (0, 2], got 2.5", id="de-f-above-two"),
        pytest.param({}, BASELINES + ["8", "--de-cr", "-0.1"],
                     "crossover rate must be in [0, 1], got -0.1", id="de-cr-negative"),
        pytest.param({}, BASELINES + ["8", "--de-cr", "1.5"],
                     "crossover rate must be in [0, 1], got 1.5", id="de-cr-above-one"),
        pytest.param({}, BASELINES + ["0"], "ensemble size must be in 1..8, got 0",
                     id="baselines-k-zero"),
        pytest.param({"m": MATRIX, "w": WEIGHTS},
                     ["validate", "--matrix", "{m}", "--weights", "{w}", "--k", "0"],
                     "ensemble size k must be >= 1, got 0", id="validate-k-zero"),
        pytest.param({"m": MATRIX, "w": WEIGHTS},
                     ["validate", "--matrix", "{m}", "--weights", "{w}", "--k", "-2"],
                     "ensemble size k must be >= 1, got -2", id="validate-k-negative"),
        pytest.param({"m": "classifier,x,y\nA,0.9,0.8\nB,0.6,0.7\nA,0.5,0.5\n"},
                     ["optimize", "--matrix", "{m}"],
                     "{m}:4: duplicate classifier 'A', first on line 2",
                     id="accuracy-duplicate-classifier"),
        pytest.param({"m": "classifier,x,x\nA,0.9,0.8\n"}, ["optimize", "--matrix", "{m}"],
                     "{m}: duplicate class names: ['x', 'x']",
                     id="accuracy-duplicate-class"),
        pytest.param({"m": MATRIX, "w": WEIGHTS + "A,0.5,0.5,false\n"},
                     ["validate", "--matrix", "{m}", "--weights", "{w}"],
                     "{w}:4: duplicate classifier 'A', first on line 2",
                     id="weights-duplicate-classifier"),
        pytest.param({"m": MATRIX, "w": "classifier,y,y,selected\nA,0.5,0.5,true\n"},
                     ["validate", "--matrix", "{m}", "--weights", "{w}"],
                     "{w}: duplicate class names: ['y', 'y']",
                     id="weights-duplicate-class"),
    ])
    def test_exits_two_with_message(self, tmp_path, capsys, files, argv, message):
        paths = {key: str(tmp_path / f"{key}.csv") for key in "mwplr"}
        for key, text in files.items():
            Path(paths[key]).write_text(text)
        argv = [arg.format(**paths) for arg in argv]
        if argv[0] == "optimize":
            argv += ["--k", "1", "--out-weights", paths["r"], "--out-report", paths["r"]]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, f"error: {message.format(**paths)}\n")
        assert captured.out == ""

    def test_hard_header_with_a_repeated_classifier_names_the_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("instance_id,true_class,A,A\ni0,x,x,y\n")
        with pytest.raises(ValueError) as exc:
            io.read_predictions(path)
        assert str(exc.value) == f"{path}: duplicate classifier names: ['A', 'A']"

    def test_validate_counts_the_selection_when_k_is_not_given(self, tmp_path, capsys):
        matrix, weights = tmp_path / "m.csv", tmp_path / "w.csv"
        matrix.write_text(MATRIX)
        weights.write_text(WEIGHTS)
        main(["validate", "--matrix", str(matrix), "--weights", str(weights)])
        assert "(4) ensemble-size: ok" in capsys.readouterr().out
