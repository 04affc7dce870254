"""The package imports and runs without scipy.

scipy is a test dependency only: no solver stage may need it. A child
interpreter blocks scipy before importing voteopt, then runs the command
line through ``python -m voteopt``'s entry point. ``optimize`` runs both
searches, which must select the same classifiers and report the objective
that ranked the subsets, to the bit. ``validate`` must find each weight
file conformant, a copy with one selected classifier's weights zeroed
nonconformant, and reject a NaN tolerance as a configuration error. The
grid oracle is a test tool and must stay out of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

MATRIX = str(Path(__file__).parent / "data" / "d2_accuracy.csv")

SCRIPT = r"""
import contextlib, io, json, os, runpy, sys
sys.modules['scipy'] = None
import voteopt, voteopt.cli
assert not hasattr(voteopt, 'grid_oracle')

def run(*argv):
    sys.argv = ['voteopt', *argv]
    text = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(text):
        try:
            runpy.run_module('voteopt', run_name='__main__')
        except SystemExit as done:
            code = done.code
    return code, text.getvalue()

matrix, out = sys.argv[1:3]
selected = {}
for method in ('bnb', 'enumerate'):
    report = os.path.join(out, method + '.json')
    weights = os.path.join(out, method + '.csv')
    code, _ = run('optimize', '--matrix', matrix, '--k', '4', '--method', method,
                  '--out-report', report, '--out-weights', weights)
    if code:
        sys.exit(f'optimize --method {method} exited {code}')
    code, text = run('validate', '--matrix', matrix, '--weights', weights)
    if code or text.splitlines()[-1] != 'conformant':
        sys.exit(f'validate on the {method} weights exited {code}:\n{text}')
    with open(report) as f:
        doc = json.load(f)
    selected[method] = doc['selected']
    total, ranked = doc['objective']['total'], doc['subset_rank'][0]['objective']
    if total != ranked:
        sys.exit(f'the {method} report objective {total!r} is not the '
                 f'objective {ranked!r} that ranked its subset first')
if selected['bnb'] != selected['enumerate']:
    sys.exit(f'bnb and enumerate select differently: {selected}')
with open(os.path.join(out, 'bnb.csv')) as f:
    lines = f.read().splitlines()
row = next(i for i, line in enumerate(lines) if line.endswith(',true'))
cells = lines[row].split(',')
lines[row] = ','.join([cells[0], *['0'] * (len(cells) - 2), cells[-1]])
broken = os.path.join(out, 'broken.csv')
with open(broken, 'w') as f:
    f.write('\n'.join(lines) + '\n')
code, text = run('validate', '--matrix', matrix, '--weights', broken)
if code != 4 or not text.splitlines()[-1].startswith('nonconformant: constraint ('):
    sys.exit(f'validate on a broken weight file exited {code}:\n{text}')
code, text = run('validate', '--matrix', matrix, '--weights', broken, '--tol', 'nan')
if code != 2:
    sys.exit(f'validate --tol nan exited {code}:\n{text}')
code, text = run('--help')
if code:
    sys.exit(f'--help exited {code}')
if 'exit codes:' not in text:
    sys.exit(f'--help printed no exit codes:\n{text}')
"""


def test_package_runs_with_scipy_blocked(tmp_path):
    # the child interpreter finds the package as this one does, installed
    # or not
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, MATRIX, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
