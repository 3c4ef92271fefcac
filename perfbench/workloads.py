"""Workload inputs, made from the seed alone (no ``repro`` import).

* ``paper-report``: ``generate_report`` at the ``smoke`` scale (a 4x4
  mesh, Tables 4-5, the ten-scheme sweep, the analytical cross-check and
  six application runs).  The ``ci`` scale costs ~21 s cold plus ~21 s
  warm per sample, which leaves no room for repeated samples inside one
  run's time budget.
* ``sharing-sweep``: ``run_invalidation_sweep`` over every sweep scheme
  and sharing degree, on 8x8 and 16x16 uniform patterns and 8x8
  column-clustered patterns, result cache off.
* ``served-sweeps``: distinct sweep specs for ``repro serve``.
"""

from __future__ import annotations

import random

REPORT_SCALE = "smoke"

#: The ten schemes of the report's sweep section, in report order.
SWEEP_SCHEMES = ("ui-ua", "mi-ua-ec", "mi-ua-tm", "ui-ma-ec", "mi-ma-ec",
                 "mi-ma-ec-u", "mi-ma-tm", "mi-ua-fa", "mi-ma-fa",
                 "sci-chain")

#: (mesh width, pattern kind, sharing degrees).  Two columns of an 8x8
#: mesh hold at most 15 sharers once the home is excluded.
SHARING_CONFIGS = ((8, "uniform", (1, 2, 4, 8, 16, 32)),
                   (16, "uniform", (1, 2, 4, 8, 16, 32)),
                   (8, "column", (1, 2, 4, 8, 15)))
SHARING_PER_DEGREE = 2

SERVED_SPECS = 32
SERVED_WARM_REQUESTS = 3000
SERVED_CONNECTIONS = 2
#: Requests per connection in one timed round of the cold and warm phase.
SERVED_COLD_ROUND = 1
SERVED_WARM_ROUND = 50


def served_specs(seed: int) -> list[dict]:
    """``SERVED_SPECS`` distinct ``POST /jobs`` bodies for ``seed``."""
    rng = random.Random(seed)
    specs: list[dict] = []
    seen: set[tuple] = set()
    while len(specs) < SERVED_SPECS:
        scheme = SWEEP_SCHEMES[len(specs) % len(SWEEP_SCHEMES)]
        pattern_seed = rng.randrange(2 ** 31)
        if (scheme, pattern_seed) in seen:
            continue
        seen.add((scheme, pattern_seed))
        specs.append({"scheme": scheme, "mesh": 8, "degrees": [2, 4, 8, 16],
                      "per_degree": 2, "kind": "uniform",
                      "seed": pattern_seed, "client": "perfbench",
                      "wait": True})
    return specs
