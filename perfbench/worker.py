"""Child process for perfbench/run.py: run one operation, pickle its result.

Reads ``(function name, args)`` pickled by ``run.in_fresh_process`` from
stdin, calls that function from ``run`` and writes the pickled result to
stdout. Anything the work itself prints goes to stderr.
"""

import os
import pickle
import sys

import run


def main():
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr
    run._import_package()  # before unpickling: the arguments refer to benchmark types
    name, args = pickle.loads(sys.stdin.buffer.read())
    if name not in ("generate_op", "ingest_op", "query_op"):
        sys.exit(f"unknown operation {name!r}")
    result = getattr(run, name)(*args)
    with out:
        pickle.dump(result, out)


if __name__ == "__main__":
    main()
