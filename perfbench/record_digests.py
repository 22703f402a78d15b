"""Record the exact-payload digests that the benchmark compares against.

    python3 perfbench/record_digests.py

Run from the root of a source checkout at the commit whose outputs are the
reference.  Sends every request any seed can produce for the exact
workloads (``rodrigues`` and ``families``; suites are judged by their gated
rows, not digests) and rewrites ``perfbench/digests.json``.  A request that
does not exit 0 is reported and recorded nowhere.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
import run
import workloads

EXACT_WORKLOADS = ("rodrigues", "families")


def main() -> int:
    root = os.getcwd()
    cli = run.import_cli(root)
    digests = {}
    out_dir = os.path.join(run.OUT_ROOT, f"record-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    bad = 0
    try:
        for name in EXACT_WORKLOADS:
            requests = [r for r in workloads.all_candidate_requests(name)
                        if r.kind not in checks.SUITES]
            for req in requests:
                # one at a time: candidates of one slot share an output file name
                rec = run.send(cli, [req], out_dir, passes=1)[0]
                text = rec["stdout"]
                if rec["path"] is not None and rec["rc"] == 0:
                    with open(rec["path"], encoding="utf-8") as fh:
                        text = fh.read()
                if rec["rc"] != 0:
                    bad += 1
                    print(f"not recorded (exit {rec['rc']}, {rec['error']}): {req.key}")
                    continue
                digests[req.key] = checks.digest(checks.exact_payload(req.kind, text, req.fmt))
            print(f"{name}: {len(requests)} requests sent")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=root).stdout.strip() or "unknown"
    with open(checks.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at_commit": commit, "digests": dict(sorted(digests.items()))},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
