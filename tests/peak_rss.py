"""Run one relrep command in-process and bound its peak RSS.

    PYTHONPATH=src python3 tests/peak_rss.py BOUND_MB COMMAND [ARGS...]

The command's stdout passes through unchanged and its peak RSS goes to stderr.
The exit code is the command's own, or 3 when the peak RSS exceeds BOUND_MB.
"""

import resource
import sys

from relrep.cli import main

OVER_BOUND = 3


def run(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    code = main(command)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{' '.join(command)}: peak RSS {peak_mb:.1f} MB (bound {bound_mb:g} MB)",
          file=sys.stderr)
    return code if peak_mb <= bound_mb else OVER_BOUND


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
