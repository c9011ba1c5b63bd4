"""The committed mutants still apply: each one's old text occurs exactly
once in its file. The mutants themselves run only from ``tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[str(i) for i in range(1, len(MUTANTS) + 1)])
def test_each_mutant_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
