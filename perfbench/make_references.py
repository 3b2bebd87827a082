"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

Runs every workload once in this process and writes references.json next
to this file.  The references pin the outputs of the commit that defined
the benchmark; regenerate them only when the numerics are meant to change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main():
    refs = {}
    for name, workload in WORKLOADS.items():
        inputs = workload.setup()
        ops = workload.run(inputs)
        refs[name] = workload.reference(inputs, ops)
        outcomes, _ = workload.check(inputs, ops, refs[name])
        for op_name, ok, detail in outcomes:
            if not ok:
                sys.exit(f"{name}: {op_name} fails its check: {detail}")
        print(f"{name}: recorded", file=sys.stderr)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
