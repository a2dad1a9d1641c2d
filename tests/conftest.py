"""Suite-wide hypothesis configuration.

Tier-1 is a gate, so it must not depend on a dice roll: the ``tier1``
profile derives every property test's examples from the test itself
(``derandomize=True``), so the suite generates the same cases on every
run and on every machine.  ``max_examples`` stays whatever each test's
own ``@settings`` says.

Looking for *new* failures is a separate, non-blocking job (see the
``hypothesis-explore`` CI step): ``--hypothesis-profile=default
--hypothesis-seed=random`` puts the draw back.  This conftest is loaded
before the hypothesis plugin reads that option, so the command line wins.
A failure found there is pinned with ``@example(...)`` on the test, which
is how it joins tier-1.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
