"""The python blocks of README.md run as written and print what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from capwave.experiments import TABLE_COLUMNS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)
# the relative error each block prints, to three decimals: the library
# quick start at 5% noise, then the noise-free gradient-field one
PRINTED = [0.079, 0.067]


def test_every_block_has_an_expected_output():
    assert len(BLOCKS) == len(PRINTED)


@pytest.mark.parametrize("index", range(len(PRINTED)))
def test_block_prints_its_error(index):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", BLOCKS[index]], capture_output=True,
                         text=True, env=env, timeout=300, check=False)
    assert run.returncode == 0, run.stderr
    assert round(float(run.stdout.split()[-1]), 3) == PRINTED[index]


def test_table_columns_are_the_documented_ones():
    # the file format section lists every column a table file holds
    listed = re.search(r"Tables \(`table`, `tsvd-table`\): CSV with columns `(.*?)`",
                       README, re.S).group(1)
    names = tuple(name.strip() for name in listed.split(","))
    assert len(names) == 17
    assert TABLE_COLUMNS == names
