"""graph6 text encoding: bit-exact reader and writer.

Layout per the published format: an order field N(n) (one byte chr(n+63)
for n <= 62, or '~' plus three bytes for larger n), followed by the upper
triangle of the adjacency matrix in column order (0,1),(0,2),(1,2),(0,3),
..., packed big-endian six bits per byte with zero padding, each byte
offset by 63.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import MAX_VERTICES, CapacityError, Graph

HEADER = ">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)  # all of them, so that pickle can rebuild it
        self.offset = offset

    def __str__(self):
        return f"{self.args[0]} (byte {self.offset})"


def encode_graph6(n: int, bits: int) -> str:
    """The graph6 string of order n whose upper triangle, in column order
    with (0,1) the most significant of its n(n-1)/2 bits, is ``bits``."""
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 63) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    nbits = n * (n - 1) // 2
    groups = (nbits + 5) // 6
    bits <<= 6 * groups - nbits  # zero padding
    out.extend(chr((bits >> 6 * i & 63) + 63) for i in reversed(range(groups)))
    return "".join(out)


def write_graph6(g: Graph) -> str:
    acc = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = acc << 1 | (g.rows[row] >> col & 1)
    return encode_graph6(g.n, acc)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 value (optional '>>graph6<<' prefix allowed)."""
    s = text.rstrip("\r\n")
    base = 0
    if s.startswith(HEADER):
        s = s[len(HEADER):]
        base = len(HEADER)
    if not s:
        raise Graph6ParseError("empty graph6 string", base)
    vals = []
    for i, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6ParseError(f"byte {code!r} outside graph6 range 63..126", base + i)
        vals.append(code - 63)
    if vals[0] == 63:  # '~': extended order field
        if len(vals) < 4:
            raise Graph6ParseError("truncated extended order field", base + len(s))
        if vals[1] == 63:
            raise Graph6ParseError("order beyond 258047 not supported", base + 1)
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
        body_base = base + 4
    else:
        n = vals[0]
        body = vals[1:]
        body_base = base + 1
    if n > MAX_VERTICES:
        raise CapacityError(f"graph6 order {n} exceeds capacity {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(body) < ngroups:
        raise Graph6ParseError(
            f"need {ngroups} edge bytes for order {n}, got {len(body)}",
            body_base + len(body),
        )
    if len(body) > ngroups:
        raise Graph6ParseError("trailing bytes after edge data", body_base + ngroups)
    rows = [0] * n
    bit = 0
    for col in range(1, n):
        for row in range(col):
            group, shift = divmod(bit, 6)
            if body[group] >> (5 - shift) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
            bit += 1
    # padding bits must be zero
    if nbits % 6:
        pad = body[-1] & ((1 << (6 - nbits % 6)) - 1)
        if pad:
            raise Graph6ParseError("nonzero padding bits", body_base + ngroups - 1)
    return Graph.from_rows(n, rows)


def iter_graph6_file(path: str) -> Iterator[Graph]:
    """Yield graphs from a file with one graph6 value per line, skipping
    blank lines and '>>graph6<<' header lines."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line and line != HEADER:
                yield parse_graph6(line)
