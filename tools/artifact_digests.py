"""Print two digests per env/method case over a short seeded run's artifacts.

Two trees that print the same nine lines write byte-identical artifacts for
these cases, so a refactor that claims to keep the numbers can be checked by
running this script before and after it:

    PYTHONPATH=src python tools/artifact_digests.py

Each case trains with seed 3, ``max_env_steps=320`` and ``eval_episodes=2``.
A digest is the first 16 hex digits of a sha256. The first column hashes
``metrics.csv``, ``lambda_trace.csv``, ``embeddings.csv``, ``eval.csv`` and
``config.json``, concatenated in that order; ``config.json`` is re-dumped
without ``out``, the one field that names the output directory. The second
column hashes ``checkpoint.json`` alone, so a change of the checkpoint's
format shows there while the first column shows the run's numbers unchanged.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from maie import cli

CASES = (
    ("hetero_nav", "maie"),
    ("hetero_nav", "concat"),
    ("hetero_nav", "fixed_weights"),
    ("hetero_nav", "no_align"),
    ("hetero_nav", "no_ie"),
    ("mining_plus", "maie"),
    ("av_nav", "maie"),
    ("target_select", "no_align"),
    ("mining", "fixed_weights"),
)
ARTIFACTS = ("metrics.csv", "lambda_trace.csv", "embeddings.csv", "eval.csv")


def case_digests(env: str, method: str, root: str) -> tuple:
    """The digest of the run's other artifacts and the digest of its checkpoint.json."""
    out = os.path.join(root, f"{env}_{method}")
    cfg = cli.RunConfig(env=env, method=method, seed=3, max_env_steps=320, eval_episodes=2, out=out)
    code = cli.run(cfg)
    if code != 0:
        raise SystemExit(f"{env}/{method}: maie run exited {code}")
    h = hashlib.sha256()
    for name in ARTIFACTS:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    with open(os.path.join(out, "config.json")) as fh:
        config = json.load(fh)
    del config["out"]
    h.update(json.dumps(config, indent=2, sort_keys=True).encode())
    with open(os.path.join(out, "checkpoint.json"), "rb") as fh:
        checkpoint = hashlib.sha256(fh.read())
    return h.hexdigest()[:16], checkpoint.hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        for env, method in CASES:
            print(f"{env:<14} {method:<14}", *case_digests(env, method, root), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
