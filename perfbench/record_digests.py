"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py --seeds 0-63

A run compares its digest (the first ``prefix_ops`` outputs of the workload
and the state right after them) with the one recorded here for its seed, so
a change that alters any ranked list, command output or corpus byte fails
the run instead of passing silently. Re-record only for a deliberate
behaviour change, and say why in CHANGES.md. A seed whose run fails its
checks is not recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from spread import seed_list
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="re-record only this workload (default: all)")
    args = parser.parse_args()
    chosen = [args.workload] if args.workload else sorted(WORKLOADS)

    kg, _ = run.import_kgravity()
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    workdir = run.ROOT / ".perfbench" / "record"
    status = 0
    try:
        for name in chosen:
            wl_cls = WORKLOADS[name]
            for seed in seed_list(args.seeds):
                shutil.rmtree(workdir, ignore_errors=True)
                wl = wl_cls(kg, seed, workdir)
                run.timed_setup(wl, 0.0)
                ops = run.run_phase(wl, 0)
                if all(ops.ok) and wl.final_check():
                    digests.setdefault(name, {})[str(seed)] = ops.digest
                    print(f"{name} seed {seed}: {ops.digest}")
                else:
                    print(f"{name} seed {seed}: checks failed, not recorded",
                          file=sys.stderr)
                    status = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digests = {name: dict(sorted(d.items(), key=lambda kv: int(kv[0])))
               for name, d in sorted(digests.items())}
    run.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
