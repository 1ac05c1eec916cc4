#!/usr/bin/env python3
"""Check that a tool reports a fatal input error exactly once.

    fatal_once_test.py TEXT BINARY [ARGS...]

Runs BINARY with ARGS and passes when it exits 1 and exactly one line
of its combined stdout/stderr contains TEXT. fatal() logs the message
itself, so a tool that also prints the caught FatalError shows it
twice.
"""

import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    text, command = argv[1], argv[2:]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT,
                          universal_newlines=True, timeout=60)
    lines = [line for line in proc.stdout.splitlines() if text in line]
    if proc.returncode != 1 or len(lines) != 1:
        print("expected exit 1 and one line with %r; got exit %d and "
              "%d such lines:\n%s" % (text, proc.returncode, len(lines),
                                      proc.stdout), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
