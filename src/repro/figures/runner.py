"""Regenerate every table and figure in one pass.

``python -m repro.figures.runner`` prints the full report;
``tests/test_figures.py`` pins the same modules' rows against
``tests/golden/figures/`` one exhibit at a time.
"""

from __future__ import annotations

import sys
import time

from repro.figures import (
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

EXHIBITS = [
    ("Table 1", table1),
    ("Table 3", table3),
    ("Figure 4", fig4),
    ("Table 5", table5),
    ("Figure 9", fig9),
    ("Figure 11", fig11),
    ("Table 6", table6),
    ("Table 7", table7),
    ("Table 8", table8),
    ("Figure 12", fig12),
    ("Figure 13", fig13),
]


def run_all(stream=None) -> str:
    """Render every exhibit; returns (and optionally streams) the report."""
    parts = []
    for name, module in EXHIBITS:
        start = time.time()
        text = module.render()
        elapsed = time.time() - start
        block = f"{'=' * 72}\n{name}  (regenerated in {elapsed:.1f}s)\n" \
                f"{'=' * 72}\n{text}\n"
        parts.append(block)
        if stream is not None:
            stream.write(block + "\n")
            stream.flush()
    return "\n".join(parts)


def main() -> None:
    run_all(stream=sys.stdout)


if __name__ == "__main__":
    main()
