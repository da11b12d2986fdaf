"""Record the SHA-256 of every output file of each workload, per seed.

    python3 perfbench/record_digests.py --seeds 20

Writes ``perfbench/digests.json``: for each workload, the digests that
are the same for every recorded seed (``common``) and the ones that
differ (``by_seed``).  ``run.py`` reports whether its runs reproduce
them; byte-identical output is the gate for a speedup that must not
change results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="record seeds 0 .. N-1")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import workloads

    workdir = run.WORK / "record-digests"
    record = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            per_seed = {}
            for seed in range(args.seeds):
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                workload.run(workdir, seed)
                per_seed[str(seed)] = run.digest_dir(workdir)
            files = per_seed["0"]
            common = {k: v for k, v in files.items() if all(d.get(k) == v for d in per_seed.values())}
            by_seed = {s: {k: v for k, v in d.items() if k not in common} for s, d in per_seed.items()}
            record[name] = {"common": common, "by_seed": by_seed}
            print(f"{name}: {len(common)} files common to all seeds, "
                  f"{len(files) - len(common)} seed-dependent")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
