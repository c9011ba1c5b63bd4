"""The committed mutants still apply: each one's old text occurs exactly
once in its file, and each test it names exists. The mutants themselves run
only from ``tests/mutants.py``."""

import ast

import pytest

from mutants import MUTANTS, ROOT

IDS = [str(i) for i in range(1, len(MUTANTS) + 1)]


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_each_mutant_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_each_test_a_mutant_names_exists(mutant):
    # a file, or a top-level test function of it, read without collecting
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        if name:
            tree = ast.parse((ROOT / path).read_text())
            defs = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defs, test
