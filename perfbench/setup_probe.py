"""Set-up time in a fresh process: import markedpcp and markedpcp.cli, then
parse every instance text of the workload.

Usage: python3 setup_probe.py SRC_DIR < texts.json   (a JSON list of texts)
Prints the elapsed seconds.  The texts are read before the clock starts.
"""

import json
import sys
import time


def main() -> None:
    texts = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import markedpcp  # noqa: F401
    import markedpcp.cli  # noqa: F401
    from markedpcp.fileformat import parse

    for text in texts:
        parse(text)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
