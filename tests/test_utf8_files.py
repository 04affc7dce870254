"""Every file is UTF-8, whatever the locale.

A child interpreter runs in the C locale with Python's UTF-8 mode off, so
``open`` without an encoding would read and write ASCII. It writes an
accuracy matrix and a prediction table whose classifier, class and instance
names are not ASCII, runs ``optimize``, ``validate`` and ``evaluate`` on
them, and reads the names back from the weight file, the prediction table
and a label file. ``PYTHONIOENCODING`` sets only the standard streams'
encoding, so what the commands print cannot fail the test.
"""

import os
import subprocess
import sys
from pathlib import Path

MATRIX = str(Path(__file__).parent / "data" / "d2_accuracy.csv")

SCRIPT = r"""
import contextlib, io as text_io, sys
import numpy as np
from voteopt import AccuracyMatrix, ClassSet, ClassifierSet, PredictionSet, io
from voteopt.cli import main

d2, out = sys.argv[1:3]
clfs = ClassifierSet(tuple(f'arbre-ß{i}' for i in range(7)) + ('森林',))
classes = ClassSet(('attaque-é', 'normal', 'sondé', 'Ωmega', 'ürück'))
io.write_accuracy_matrix(f'{out}/m.csv', AccuracyMatrix(io.read_accuracy_matrix(d2).values,
                                                        clfs, classes))
ids = tuple(f'échantillon-{i}' for i in range(40))
rng = np.random.default_rng(0)
io.write_predictions(f'{out}/p.csv', PredictionSet(
    ids, rng.integers(0, 5, 40), rng.random((40, 8, 5)), clfs, classes))
with open(f'{out}/labels.txt', 'wb') as fh:
    fh.write('class\nattaque-é\nΩmega\n'.encode('utf-8'))

def run(*argv):
    with contextlib.redirect_stdout(text_io.StringIO()):
        code = main(list(argv))
    if code:
        sys.exit(f'{argv[0]} exited {code}')

run('optimize', '--matrix', f'{out}/m.csv', '--k', '4', '--out-weights', f'{out}/w.csv',
    '--out-report', f'{out}/r.json')
run('validate', '--matrix', f'{out}/m.csv', '--weights', f'{out}/w.csv')
run('evaluate', '--weights', f'{out}/w.csv', '--predictions', f'{out}/p.csv',
    '--out-report', f'{out}/e.json')
_, _, got_clfs, got_classes = io.read_weight_matrix(f'{out}/w.csv')
preds = io.read_predictions(f'{out}/p.csv')
assert (got_clfs, got_classes) == (preds.classifiers, preds.classes) == (clfs, classes)
assert preds.instance_ids == ids
assert io.read_labels(f'{out}/labels.txt').tolist() == ['attaque-é', 'Ωmega']
"""


def test_non_ascii_names_round_trip_in_the_c_locale(tmp_path):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONCOERCECLOCALE": "0", "PYTHONIOENCODING": "utf-8"}
    # a file, not -c: the C locale would decode a non-ASCII command line as ASCII
    script = tmp_path / "child.py"
    script.write_text(SCRIPT, encoding="utf-8")
    result = subprocess.run([sys.executable, str(script), MATRIX, str(tmp_path)],
                            capture_output=True, text=True, encoding="utf-8", env=env)
    assert result.returncode == 0, result.stderr
