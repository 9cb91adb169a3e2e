"""The README's quick example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    # the example prints the distance, then the energies it calls monotone
    assert len(capsys.readouterr().out.splitlines()) >= 2
    assert np.all(np.diff(namespace["traj"].energy()) <= 1e-9)
