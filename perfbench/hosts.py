"""Seeded sparse host graphs for the theorem-file workload.

Each file holds hosts of one order n: the path P_n and the cycle C_n,
which every seed shares, and random connected hosts, each a uniformly
random labelled tree (from a Pruefer sequence) plus 0, 1, 2 or 3 extra
edges in turn.  Edge counts therefore sit at n-1 .. n+2, so forests,
triangle cacti and graphs containing either pattern all occur.  The cycle
makes every file of order >= 10 expose the known false negative of the
minor search on such hosts, independently of the seed.
"""

from __future__ import annotations

import heapq
import random

from reference import encode_graph6


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def random_host(n: int, extra: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    edges = set(random_tree(n, rng))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return tuple(sorted(edges))


def fixed_hosts(n: int) -> list[tuple[tuple[int, int], ...]]:
    path = tuple((v, v + 1) for v in range(n - 1))
    cycle = path + ((0, n - 1),)
    return [path, cycle]


def host_set(n: int, count: int, rng: random.Random) -> list[tuple[tuple[int, int], ...]]:
    """The two fixed hosts and `count` distinct random ones, in file order."""
    hosts = fixed_hosts(n)
    seen = set(hosts)
    i = 0
    while len(hosts) < count + 2:
        h = random_host(n, i % 4, rng)
        if h not in seen:
            seen.add(h)
            hosts.append(h)
            i += 1
    return hosts


def write_hosts(path, n: int, hosts) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for edges in hosts:
            fh.write(encode_graph6(n, edges) + "\n")
