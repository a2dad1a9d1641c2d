"""Repo-level pytest configuration.

Defines the ``--update-golden`` flag used by the codegen snapshot tests
(``tests/test_golden_codegen.py``) and the exhibit goldens
(``tests/test_figures.py``): the files under ``tests/golden/`` are
compared by default and regenerated when the flag is passed.  The
option lives here (not in ``tests/conftest.py``) because pytest only
honours ``pytest_addoption`` from initial conftests.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the golden snapshots under tests/golden/ "
             "instead of comparing against them")
