"""puma_bench: the repo's one benchmark harness (see README.md here).

Four workloads, seven end-to-end metrics and an outside-in layer
waterfall over compiler -> simulator -> engine -> server -> fleet.
Everything is measured by timing calls into ``repro``'s public
functions; nothing under ``src/`` knows this package exists.
"""
