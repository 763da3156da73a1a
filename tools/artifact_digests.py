"""Print two digests per env/method case over a short seeded run's artifacts.

Two trees that print the same nine lines write byte-identical artifacts for
these cases, so a refactor that claims to keep the numbers can be checked by
running this script before and after it:

    PYTHONPATH=src python tools/artifact_digests.py > before.txt   # on the parent
    PYTHONPATH=src python tools/artifact_digests.py --expect before.txt

With ``--expect FILE`` the script also compares its lines with those saved
in FILE, names on standard error each case whose digests differ or that only
one side has, and exits 1 if there is any. The digests depend on the BLAS
kernels, so compare lines printed on the same machine.

Each case trains with seed 3, ``max_env_steps=320`` and ``eval_episodes=2``.
A digest is the first 16 hex digits of a sha256. The first column hashes
``metrics.csv``, ``lambda_trace.csv``, ``embeddings.csv``, ``eval.csv`` and
``config.json``, concatenated in that order; ``config.json`` is re-dumped
without ``out``, the one field that names the output directory. The second
column hashes ``checkpoint.json`` alone, so a change of the checkpoint's
format shows there while the first column shows the run's numbers unchanged.
"""

from __future__ import annotations

import argparse
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


def differences(printed: list, expected: list) -> list:
    """One message per case whose digests differ between the two lists of lines, or that one lacks.

    A line is split on whitespace into env, method and the digests, so column
    padding does not count; blank lines are skipped.
    """

    def by_case(lines):
        return {tuple(f[:2]): f[2:] for f in map(str.split, lines) if f}

    got, want = by_case(printed), by_case(expected)
    messages = []
    for case in dict.fromkeys([*want, *got]):
        name = " ".join(case)
        if case not in got:
            messages.append(f"{name}: not printed; expected {' '.join(want[case])}")
        elif case not in want:
            messages.append(f"{name}: printed {' '.join(got[case])}; not in the expected lines")
        elif got[case] != want[case]:
            messages.append(f"{name}: printed {' '.join(got[case])}; expected {' '.join(want[case])}")
    return messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest the artifacts of nine short seeded runs.")
    parser.add_argument("--expect", metavar="FILE", help="lines printed earlier; exit 1 if any case differs")
    args = parser.parse_args(argv)
    expected = None
    if args.expect:
        with open(args.expect) as fh:
            expected = fh.read().splitlines()
    printed = []
    with tempfile.TemporaryDirectory() as root:
        for env, method in CASES:
            printed.append(" ".join([f"{env:<14} {method:<14}", *case_digests(env, method, root)]))
            print(printed[-1], flush=True)
    if expected is None:
        return 0
    diffs = differences(printed, expected)
    for message in diffs:
        print(f"differs: {message}", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
