"""Experiment drivers: regenerate every table and figure of the paper.

Each module exposes the data behind one exhibit (as plain rows/series
dictionaries) plus a text renderer; :mod:`repro.figures.runner` regenerates
everything in one report.  Every ``*rows()`` / ``*ratios()`` result is
pinned exactly by ``tests/golden/figures/`` (``tests/test_figures.py``).
"""

from repro.figures import (  # noqa: F401
    fig4,
    fig9,
    fig11,
    fig12,
    fig13,
    table1,
    table3,
    table5,
    table6,
    table7,
    table8,
)
from repro.figures.runner import run_all

__all__ = ["fig4", "fig9", "fig11", "fig12", "fig13", "table1", "table3",
           "table5", "table6", "table7", "table8", "run_all"]
