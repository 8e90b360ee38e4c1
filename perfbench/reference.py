"""Independent reference computations for checking alphax reports.

Nothing here imports alphax or compares against stored program output.
Graphs are edge lists on vertices 0..n-1; graph6 is decoded by this
module's own decoder, spectra come from numpy.linalg.eigvalsh, minor
freeness of the two families used by the benchmark comes from structural
oracles, and counts come from published sequences.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

# OEIS A000088: graphs on n unlabeled nodes, n = 0..10.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168)
# OEIS A005195: forests with n unlabeled nodes, n = 0..12.
A005195 = (1, 1, 2, 3, 6, 10, 20, 37, 76, 153, 329, 710, 1601)

# The program prints floats with 12 significant digits; a printed rho of
# order 10 carries an error of up to 5e-11 on top of the program's own.
TIE_TOL = 1e-9
RHO_TOL = 1e-9
PRINT_SLACK = 1e-10


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of one graph6 value (orders below 63 only)."""
    s = text.strip()
    codes = [ord(ch) - 63 for ch in s]
    if not codes or not 0 <= codes[0] < 63 or any(not 0 <= c <= 63 for c in codes[1:]):
        raise ValueError(f"not a short graph6 value: {text!r}")
    n = codes[0]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(codes) - 1 != need:
        raise ValueError(f"graph6 {text!r}: {len(codes) - 1} edge bytes, need {need}")
    bits = []
    for c in codes[1:]:
        bits.extend(c >> (5 - i) & 1 for i in range(6))
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return n, edges


def encode_graph6(n: int, edges) -> str:
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in adj else 0 for v in range(1, n) for u in range(v)]
    bits.extend([0] * (-len(bits) % 6))
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        out.append(chr(63 + sum(b << (5 - j) for j, b in enumerate(bits[i:i + 6]))))
    return "".join(out)


def alpha_index(n: int, edges, alpha: float) -> float:
    """Largest eigenvalue of alpha*D + (1-alpha)*A."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    m = alpha * np.diag(a.sum(axis=1)) + (1.0 - alpha) * a
    return float(np.linalg.eigvalsh(m)[-1])


def join_index(n: int, s: int, alpha: float) -> float:
    """A_alpha index of K_s join (n-s)K_1 from its 2x2 equitable quotient.

    Cells: the s join vertices (degree n-1) and the n-s others (degree s).
    """
    b = np.array([
        [alpha * (n - 1) + (1.0 - alpha) * (s - 1), (1.0 - alpha) * (n - s)],
        [(1.0 - alpha) * s, alpha * s],
    ])
    tr = b[0, 0] + b[1, 1]
    det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0


def join_graph(n: int, s: int) -> nx.Graph:
    """K_s join (n-s)K_1: vertices 0..s-1 adjacent to every other vertex."""
    g = nx.empty_graph(n)
    g.add_edges_from((u, v) for u in range(s) for v in range(u + 1, n))
    return g


def as_nx(n: int, edges) -> nx.Graph:
    g = nx.empty_graph(n)
    g.add_edges_from(edges)
    return g


def is_forest(n: int, edges) -> bool:
    """fs(1) = K_3: K_3-minor-free exactly when acyclic (union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        a, b = find(u), find(v)
        if a == b:
            return False
        parent[a] = b
    return True


def is_triangle_cactus(n: int, edges) -> bool:
    """qt(1) = C_4: C_4-minor-free exactly when every block is K_2 or K_3."""
    g = as_nx(n, edges)
    for block in nx.biconnected_component_edges(g):
        size = len(block)
        if size == 1:
            continue
        verts = {x for e in block for x in e}
        if not (size == 3 and len(verts) == 3):
            return False
    return True


ORACLES = {"fs(1)": is_forest, "qt(1)": is_triangle_cactus}


def extremal_edges(family: str, n: int) -> int:
    """Largest edge count of a family member of order n: n-1 for fs(1)
    (trees), floor(3(n-1)/2) for qt(1) (triangles sharing one vertex,
    plus a pendant edge when n is even)."""
    if family == "fs(1)":
        return n - 1
    if family == "qt(1)":
        return 3 * (n - 1) // 2
    raise ValueError(f"no edge bound for {family}")
