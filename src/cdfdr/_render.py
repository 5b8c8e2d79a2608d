"""Shortest round-trip text of float64 blocks, for the report writer in cli.py.

Run as ``python -I -S _render.py``; it imports only ``sys`` and ``array``, so
it starts in a few milliseconds.  Each request on stdin is two native int64
(the number of floats and the byte length of the separator), the separator and
the raw native doubles.  The answer on stdout is one native int64 byte length
and the text ``sep.join(map(repr, floats))``.  A whole request is read before
its answer is written; the script exits at the end of its input.
"""

import sys
from array import array


def main() -> None:
    read, write = sys.stdin.buffer.read, sys.stdout.buffer.write
    while len(head := read(16)) == 16:
        count, size = array("q", head)
        sep = read(size).decode()
        floats = array("d", read(8 * count))
        text = sep.join(map(float.__repr__, floats.tolist())).encode()
        write(array("q", [len(text)]).tobytes())
        write(text)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
