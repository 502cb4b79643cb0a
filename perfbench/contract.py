"""The CLI exit-code contract (0 yes, 1 no, 2 usage or parse error, 3 budget
exceeded) on the four inputs the ROADMAP lists as breaking it.  Every
workload runs them; a wrong exit code counts as a failed job."""

from __future__ import annotations

import json
import os
from typing import List

from common import write
from harness import CliJob

CHAIN = 3000


def contract_commands(fjt3_path: str, work: str) -> List[CliJob]:
    no_height = write(os.path.join(work, "no_height.json"), json.dumps(
        {"kind": "pure", "domains": [["{}"]], "apply": {}, "meta": {}}))
    # c0 in c1 in ... in c2999, listed from the top down, so a depth-first
    # search from the first node descends the whole chain.
    names = [f"c{i}" for i in range(CHAIN)]
    chain = write(os.path.join(work, "chain.json"), json.dumps(
        {"nodes": names[::-1],
         "edges": [[names[i], names[i + 1]] for i in range(CHAIN - 1)]}))
    return [
        CliJob("contract:nested-not", ["check", "--theory", "stt",
                                       "~" * 3000 + "a^0 = a^0"], 2),
        CliJob("contract:no-height", ["eval", "--model", no_height,
                                      "all x^0. x^0 = x^0"], 2),
        CliJob("contract:deep-chain", ["sets", "collapse", chain], 0,
               keep_output=False),
        CliJob("contract:eval-budget", ["--budget", "10", "eval", "--model",
                                        fjt3_path, "all a^3. a^3 = a^3"], 3),
    ]
