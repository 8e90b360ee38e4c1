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


def write_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12 & 63) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    acc = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = acc << 1 | (g.rows[row] >> col & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def _value(text: str) -> tuple[str, int]:
    """One graph6 value without its line end and optional '>>graph6<<'
    prefix, and the byte offset at which it starts."""
    s = text.rstrip("\r\n")
    if s.startswith(HEADER):
        return s[len(HEADER):], len(HEADER)
    return s, 0


def _codes(s: str, base: int) -> list[int]:
    """The 6-bit values of the bytes of s, which starts at byte base."""
    vals = []
    for i, ch in enumerate(s):
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6ParseError(f"byte {code!r} outside graph6 range 63..126", base + i)
        vals.append(code - 63)
    return vals


def _order_field(vals: list[int], base: int) -> tuple[int, int]:
    """The order n and the byte length of the order field, from the 6-bit
    values of a value's bytes (all of them, or at least its first four)."""
    if not vals:
        raise Graph6ParseError("empty graph6 string", base)
    if vals[0] != 63:
        return vals[0], 1
    # '~': extended order field
    if len(vals) < 4:
        raise Graph6ParseError("truncated extended order field", base + len(vals))
    if vals[1] == 63:
        raise Graph6ParseError("order beyond 258047 not supported", base + 1)
    return vals[1] << 12 | vals[2] << 6 | vals[3], 4


def graph6_order(text: str) -> int:
    """The order of one graph6 value, decoding only its order field."""
    s, base = _value(text)
    return _order_field(_codes(s[:4], base), base)[0]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 value (optional '>>graph6<<' prefix allowed)."""
    s, base = _value(text)
    vals = _codes(s, base)
    n, field = _order_field(vals, base)
    body = vals[field:]
    body_base = base + field
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


def graph6_lines(path: str) -> Iterator[str]:
    """The graph6 values of a file with one per line, skipping blank lines
    and '>>graph6<<' header lines."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line and line != HEADER:
                yield line


def iter_graph6_file(path: str) -> Iterator[Graph]:
    """Yield graphs from a file with one graph6 value per line."""
    for line in graph6_lines(path):
        yield parse_graph6(line)
