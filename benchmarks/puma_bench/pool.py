"""Seeded input pools and the reference words every reply is held to.

The program under test has no input-value cache, so a pool of 256
vectors per model is as good as fresh inputs and lets the reference be
computed once, in set-up, by a harness-owned interpreter engine
(``execution_mode="interpret"``: the root of the repo's bitwise
invariant chain).  Replies are then checked by lookup.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

POOL_SIZE = 256
# Length of a workload's seeded request stream (which pool entry, which
# model, which priority); request i is entry i modulo this.
STREAM_LENGTH = 1 << 16
REFERENCE_BATCH = 64


class InputPool:
    """Inputs for one model, drawn from ``seed``, plus their references.

    Args:
        engine: a harness-owned interpreter engine for the model.
        seed / ordinal: the pool is ``default_rng([seed, ordinal])``, so
            each model of a workload gets its own stream.
        size: number of pool entries.
        batched: compute references in batches of 64; ``False`` runs one
            entry at a time (RANDOM-op programs draw noise per lane, so
            only a batch-1 run matches a batch-1 op).
    """

    def __init__(self, engine, seed: int, ordinal: int,
                 size: int = POOL_SIZE, batched: bool = True) -> None:
        self.size = size
        rng = np.random.default_rng([seed, ordinal])
        layout = engine.program.input_layout
        self.matrix = {
            name: rng.normal(0.0, 0.5, size=(size, layout[name][2]))
            for name in sorted(layout)}
        self.arrays = [{name: rows[k] for name, rows in self.matrix.items()}
                       for k in range(size)]
        # Entry 0 at batch 1 gives the modelled (simulated) cost.
        self.first = engine.predict(self.arrays[0])
        step = REFERENCE_BATCH if batched else 1
        chunks = []
        for lo in range(0, size, step):
            if step == 1:
                chunks.append({name: np.asarray(words)[None, :]
                               for name, words in
                               engine.predict(self.arrays[lo]).words.items()})
            else:
                chunks.append(engine.predict(
                    {name: rows[lo:lo + step]
                     for name, rows in self.matrix.items()}).words)
        self.words = {name: np.concatenate([c[name] for c in chunks])
                      for name in chunks[0]}
        for name, words in self.first.words.items():
            if not np.array_equal(words, self.words[name][0]):
                raise AssertionError(
                    f"reference for {name!r} differs between batch 1 and "
                    f"batch {step}: the interpreter is not deterministic")

    # Wire forms are built on demand; only the HTTP workloads need lists.

    def input_lists(self) -> list[dict[str, list[float]]]:
        return [{name: values.tolist() for name, values in entry.items()}
                for entry in self.arrays]

    def word_lists(self) -> list[dict[str, list[int]]]:
        return [{name: words[k].tolist()
                 for name, words in self.words.items()}
                for k in range(self.size)]

    def matches(self, k: int, words: Mapping[str, np.ndarray]) -> bool:
        """Bitwise: the same output names and the same words for entry k."""
        return (set(words) == set(self.words)
                and all(np.array_equal(words[name], self.words[name][k])
                        for name in self.words))
