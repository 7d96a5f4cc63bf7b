"""Record the verify verdicts that verify-acceptance must reproduce.

    python3 perfbench/digest.py

Runs every suite at its acceptance config for each master seed below and
writes perfbench/digest.json: per suite and seed, [trials, passes,
inconclusive, qualifying].  Rerun it only in a change that declares a
verdict fix.
"""

from __future__ import annotations

import json
import sys

from layers import SUITES
from workloads import ACCEPTANCE, DIGEST, summary
from run import SRC

# The acceptance tests' master seed and the seven after it.
MASTER_SEEDS = [20260824 + i for i in range(8)]


def main() -> int:
    sys.path.insert(0, str(SRC))
    from wordcycles import TrialConfig, run_suite

    suites = {
        suite: [summary(run_suite(suite, TrialConfig(master_seed=m, **ACCEPTANCE[suite])))
                for m in MASTER_SEEDS]
        for suite in SUITES
    }
    rows = ",\n".join(f"  {json.dumps(s)}: {json.dumps(v)}" for s, v in suites.items())
    DIGEST.write_text(f'{{\n "master_seeds": {json.dumps(MASTER_SEEDS)},\n'
                      f' "suites": {{\n{rows}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())
