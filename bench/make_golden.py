"""Write ``golden/corpus_cli.json``: exit code and ``--json`` stdout of each
``corpus_cli`` command.  The committed file pins the answers of the commit
that added the benchmark; regenerate it only when an answer is meant to
change.

    python3 bench/make_golden.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import dgalgebra as dg  # noqa: E402
import dgalgebra.cli  # noqa: E402,F401
from workloads import CORPUS_COMMANDS, GOLDEN, run_cli  # noqa: E402

golden = {}
for argv in CORPUS_COMMANDS:
    code, out = run_cli(dg, argv)
    golden[" ".join(argv)] = {"exit": code, "stdout": out}
GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
print(f"wrote {len(golden)} commands to {GOLDEN}")
