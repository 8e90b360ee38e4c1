import math

import numpy as np
import pytest

from alphax import (
    ConvergenceError,
    Graph,
    InvariantError,
    NonEquitablePartitionError,
    QuotientMatrix,
    alpha_index,
    alpha_indices,
    alpha_matrix,
    certify_tops,
    disjoint_union,
    enumerate_graphs,
    extremal_fs,
    extremal_qt,
    f_inequality,
    jacobi_eigh,
    join_quotient_index,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_empty,
    make_path,
    nikiforov_lower_bound,
    power_iteration,
    quotient_matrix,
    screen_alpha_indices,
)
from alphax import spectral
from conftest import random_graph


def test_alpha_matrix_single_edge():
    for a in (0.0, 0.3, 1.0):
        m = alpha_matrix(make_complete(2), a)
        assert np.allclose(m, [[a, 1 - a], [1 - a, a]])


def test_alpha_matrix_equals_the_edge_by_edge_definition(rng):
    # K_64 sets bit 63 of every row but its own
    hosts = [make_empty(0), make_empty(1), make_complete(2), random_graph(63, 0.5, rng),
             random_graph(64, 0.5, rng), make_complete(64)]
    for g in hosts:
        for a in (0.0, 0.3, 1.0):
            want = np.zeros((g.n, g.n))
            for v in range(g.n):
                want[v, v] = a * g.degree(v)
            for u, v in g.edges():
                want[u, v] = want[v, u] = 1.0 - a
            got = alpha_matrix(g, a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            # the stacked assembly, one alpha per graph, stores the same floats
            stacked = spectral._alpha_matrices([g, g], [1.0 - a, a])
            assert stacked.shape == (2, g.n, g.n) and np.array_equal(stacked[1], want)
            assert np.array_equal(stacked[0], alpha_matrix(g, 1.0 - a))


def test_alpha_matrix_endpoints():
    g = make_path(4)
    adj = alpha_matrix(g, 0.0)
    assert adj[0, 0] == 0 and adj[0, 1] == 1
    deg = alpha_matrix(g, 1.0)
    assert np.allclose(np.diag(deg), g.degrees()) and deg[0, 1] == 0
    # 2*A_{1/2} is the signless Laplacian D + A
    q = 2 * alpha_matrix(g, 0.5)
    assert np.allclose(q, alpha_matrix(g, 1.0) + alpha_matrix(g, 0.0))
    with pytest.raises(ValueError):
        alpha_matrix(g, 1.5)


def test_alpha_index_trivial_values():
    assert abs(alpha_index(make_empty(5), 0.7).rho) < 1e-12
    for n in (2, 5, 9):
        for a in (0.0, 0.4, 1.0):
            assert abs(alpha_index(make_complete(n), a).rho - (n - 1)) < 1e-9
    r = alpha_index(make_complete_bipartite(1, 3), 0.5)
    assert abs(r.rho - 2.0) < 1e-10
    with pytest.raises(ValueError):
        alpha_index(make_empty(0), 0.5)
    with pytest.raises(ValueError):
        alpha_index(make_path(2), 0.5, tol=0.0)


def test_result_certificates(rng):
    for _ in range(25):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        a = rng.random()
        r = alpha_index(g, a)
        m = alpha_matrix(g, a)
        assert r.residual <= 1e-10
        assert abs(np.linalg.norm(r.vector) - 1.0) < 1e-12
        assert np.linalg.norm(m @ r.vector - r.rho * r.vector) <= 1e-10
        assert -1e-12 <= r.rho <= g.n - 1 + 1e-12
        assert r.lower <= r.rho <= r.upper and r.upper - r.lower <= 1e-10


def test_perron_positive_connected():
    for g in filter(Graph.is_connected, enumerate_graphs(5)):
        r = alpha_index(g, 0.3)
        assert np.all(r.vector > 0)
        scaled = r.perron_scaled()
        assert abs(scaled.max() - 1.0) < 1e-12


def test_jacobi_kernels_agree_with_numpy(rng):
    for _ in range(20):
        n = rng.randint(1, 20)
        m = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        m = (m + m.T) / 2
        w, v, _ = jacobi_eigh(m)
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-9)
        assert np.allclose(v @ np.diag(w) @ v.T, m, atol=1e-9)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)


def test_alpha_index_agrees_with_independent_solvers(rng):
    hosts = [random_graph(64, rng.random(), rng)]
    hosts += [random_graph(rng.randint(1, 64), rng.random(), rng) for _ in range(20)]
    # disconnected: at alpha = 0 the top component of K_4 + K_{1,5} is K_4,
    # not the star of larger maximum degree; at alpha = 1/2 the two tie
    hosts.append(disjoint_union(make_complete(4), make_complete_bipartite(1, 5)))
    hosts.append(disjoint_union(make_complete(4), make_complete(4)))
    hosts.append(disjoint_union(random_graph(20, 0.3, rng), random_graph(30, 0.2, rng)))
    for g in hosts:
        for a in (0.0, 0.001, 0.5, 0.999, 1.0):
            m = alpha_matrix(g, a)
            r = alpha_index(g, a)
            top = float(np.linalg.eigvalsh(m)[-1])
            assert abs(r.rho - top) <= 1e-9
            assert r.lower <= top <= r.upper
            assert r.upper - r.lower <= 1e-12 * max(1.0, r.rho)
            if a == 0.999:
                # top gaps of order (1 - alpha)^2 leave power iteration far
                # from 1e-10 after 200k steps; Jacobi is the LAPACK-free oracle
                oracle = float(jacobi_eigh(m)[0][-1])
            else:
                oracle = power_iteration(m, shift=1.0)[0]
            assert abs(r.rho - oracle) <= 1e-9


def test_screen_bounds_every_certified_index(rng):
    # Collatz-Wielandt and Rayleigh bounds, one batch per order; edgeless and
    # disconnected graphs give top vectors with zero entries
    by_order: dict[int, list[Graph]] = {}
    for i in range(2000):
        n = rng.randint(1, 12)
        if i % 10 == 0:
            g = make_empty(n)
        elif i % 10 == 1 and n >= 2:
            k = rng.randint(1, n - 1)
            g = disjoint_union(random_graph(k, rng.random(), rng),
                               random_graph(n - k, rng.random(), rng))
        else:
            g = random_graph(n, rng.random(), rng)
        by_order.setdefault(n, []).append(g)
    assert sum(len(gs) for gs in by_order.values()) == 2000
    disconnected = 0
    for n, graphs in sorted(by_order.items()):
        for a in (0.1, 0.5, 0.9):
            lowers, uppers = screen_alpha_indices(graphs, a)
            for g, lower, upper in zip(graphs, lowers, uppers, strict=True):
                r = alpha_index(g, a)
                assert upper >= r.lower
                assert lower <= r.upper
                assert r.rho - lower <= 1e-9
        disconnected += sum(not g.is_connected() for g in graphs)
    assert disconnected > 200
    # tight on a connected graph, valid (if loose) where the vector vanishes
    (lower,), (upper,) = screen_alpha_indices([make_complete(5)], 0.5)
    assert 4.0 - 1e-12 <= lower <= 4.0 <= upper <= 4.0 + 1e-12
    (lower,), (upper,) = screen_alpha_indices([disjoint_union(make_complete(4),
                                                              make_complete_bipartite(1, 5))],
                                              0.0)
    assert 3.0 - 1e-12 <= lower <= 3.0 <= upper
    assert [len(x) for x in screen_alpha_indices([], 0.5)] == [0, 0]
    with pytest.raises(ValueError):
        screen_alpha_indices([make_path(3), make_path(4)], 0.5)


def _corruptions(w, v, rng):
    """Six ways a decomposition (w, v) of an order-12 matrix can be wrong."""
    bad_top_value = w.copy()
    bad_top_value[-1] += 1e-7
    bad_low_value = w.copy()  # top pair intact: only the Bauer-Fike bound sees it
    bad_low_value[0] -= 1e-7
    bad_top_vector = v.copy()
    bad_top_vector[:, -1] += 1e-7 * np.array([rng.gauss(0, 1) for _ in range(12)])
    missed_top = v.copy()  # the top pair replaced by a copy of the next one
    missed_top[:, -1] = v[:, -2]
    missed_w = w.copy()
    missed_w[-1] = w[-2]
    return ((bad_top_value, v), (bad_low_value, v), (w, bad_top_vector),
            (w, v[:, 1:]), (w[1:], v[:, 1:]), (missed_w, missed_top))


def test_certificate_rejects_corrupted_decompositions(rng):
    g = random_graph(12, 0.5, rng)
    m = alpha_matrix(g, 0.3)
    w, v = np.linalg.eigh(m)
    r = certify_tops(m[None], [w], [v], 1e-10)[0]  # positive control
    assert r.lower <= r.rho <= r.upper
    for ww, vv in _corruptions(w, v, rng):
        with pytest.raises(ConvergenceError):
            certify_tops(m[None], [ww], [vv], 1e-10)[0]
    # each corruption planted in one member of an otherwise valid batch
    ms = spectral._alpha_matrices([random_graph(12, 0.5, rng) for _ in range(5)], [0.3] * 5)
    ws, vs = np.linalg.eigh(ms)
    for top, spectrum in zip(certify_tops(ms, ws, vs, 1e-10), ws):  # positive control
        assert top.lower <= top.rho <= top.upper and top.rho == spectrum[-1]
    for member in (0, 2, 4):
        for ww, vv in _corruptions(ws[member], vs[member], rng):
            planted_w, planted_v = list(ws), list(vs)
            planted_w[member], planted_v[member] = ww, vv
            with pytest.raises(ConvergenceError):
                certify_tops(ms, planted_w, planted_v, 1e-10)


def _single_certificate(m):
    """rho, vector, residual, lower and upper of one matrix by the
    single-solve certificate's formulas, written out here."""
    n = m.shape[0]
    w, v = np.linalg.eigh(m)
    rho = float(w[-1])
    x = v[:, -1].copy()
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    mx = m @ x
    residual = float(np.linalg.norm(mx - rho * x))
    slack = n * spectral._EPS * float(np.linalg.norm(m))
    lower = float(x @ mx) / float(x @ x) - slack
    delta = float(np.linalg.norm(v.T @ v - np.eye(n)))
    spread = float(np.linalg.norm(m @ v - v * w))
    upper = float(np.max(w)) + spread * math.sqrt(1.0 + delta) / (1.0 - delta) + slack
    return rho, x, residual, lower, upper


@pytest.mark.parametrize("entries", [spectral._SCREEN_ENTRIES, 1 << 12],
                         ids=["one-batch", "many-batches"])
def test_batched_certificate_is_bit_equal_to_single_solves(monkeypatch, rng, entries):
    monkeypatch.setattr(spectral, "_SCREEN_ENTRIES", entries)
    alphas = (0.1, 0.5, 0.9)
    levels = [list(enumerate_graphs(n)) for n in range(1, 8)]
    levels += [[random_graph(n, rng.random(), rng) for _ in range(4)] for n in (20, 40, 63, 64)]
    cases = 0
    for level in levels:
        gs = [g for g in level for _ in alphas]
        results = alpha_indices(gs, alphas * len(level))
        assert len(results) == len(gs)
        for g, a, r in zip(gs, alphas * len(level), results):
            rho, x, residual, lower, upper = _single_certificate(alpha_matrix(g, a))
            assert (r.rho, r.residual, r.lower, r.upper) == (rho, residual, lower, upper)
            assert r.vector.shape == x.shape and np.array_equal(r.vector, x)
            cases += 1
    assert cases == 3 * (1252 + 16)


def test_alpha_indices_rejects_bad_input():
    assert alpha_indices([], []) == []
    for graphs, alphas, tol in (([make_path(3), make_path(4)], [0.5, 0.5], 1e-10),
                                ([make_empty(0)], [0.5], 1e-10),
                                ([make_path(3)], [-0.1], 1e-10),
                                ([make_path(3)], [1.5], 1e-10),
                                ([make_path(3)], [math.nan], 1e-10),
                                ([make_path(3), make_path(3)], [0.5], 1e-10),
                                ([make_path(3)], [0.5], 0.0),
                                ([make_path(3)], [0.5], -1e-10)):
        with pytest.raises(ValueError):
            alpha_indices(graphs, alphas, tol)


def test_power_iteration_cross_checks(rng):
    # includes the bipartite adjacency case where +-rho are tied without a shift
    g = make_complete_bipartite(3, 4)
    m = alpha_matrix(g, 0.0)
    rho, vec, iters = power_iteration(m, shift=1.0)
    assert abs(rho - math.sqrt(12)) < 1e-9
    for _ in range(10):
        h = random_graph(rng.randint(2, 10), 0.5, rng)
        a = rng.random()
        m = alpha_matrix(h, a)
        rho, _, _ = power_iteration(m, shift=a * h.n + 1.0)
        assert abs(rho - alpha_index(h, a).rho) < 1e-9


def test_power_iteration_degenerate_top_converges():
    # twin regular components: the top eigenvalue is doubly degenerate
    g = disjoint_union(make_complete(4), make_complete(4))
    rho, _, _ = power_iteration(alpha_matrix(g, 0.3), shift=2.0)
    assert abs(rho - 3.0) < 1e-9


def test_power_iteration_iteration_cap():
    m = alpha_matrix(make_path(20), 0.0)
    with pytest.raises(ConvergenceError) as exc:
        power_iteration(m, shift=1.0, tol=1e-14, max_iter=3)
    assert exc.value.residual < 1.0


def test_regular_graph_closure():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            degs = g.degrees()
            if len(set(degs)) != 1:
                continue
            d = degs[0]
            rho0 = alpha_index(g, 0.0).rho
            for a in (0.25, 0.5, 0.75):
                assert abs(alpha_index(g, a).rho - (a * d + (1 - a) * rho0)) <= 1e-9


def test_vertex_deletion_interlacing():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            rho = alpha_index(g, 0.4).rho
            for v in range(n):
                assert alpha_index(g.delete_vertex(v), 0.4).rho <= rho + 1e-12


def test_signless_laplacian_values():
    assert 2 * alpha_index(make_empty(4), 0.5).rho == 0.0
    assert abs(2 * alpha_index(make_complete(2), 0.5).rho - 2.0) < 2e-10
    assert abs(2 * alpha_index(make_cycle(4), 0.5).rho - 4.0) < 2e-10
    assert abs(2 * alpha_index(make_complete_bipartite(1, 3), 0.5).rho - 4.0) < 2e-10


def test_join_quotient_index_hand_values():
    # n=4, s=1, alpha=1/2: x^2 - 2x, largest root 2
    assert abs(join_quotient_index(4, 1, 0.5) - 2.0) < 1e-14
    # n=5, s=1, alpha=0: adjacency radius of the 4-star, sqrt(4)
    assert abs(join_quotient_index(5, 1, 0.0) - 2.0) < 1e-14
    assert abs(join_quotient_index(10, 2, 0.3)
               - alpha_index(extremal_fs(10, 2), 0.3).rho) < 1e-9
    with pytest.raises(ValueError):
        join_quotient_index(3, 3, 0.5)


def test_join_quotient_index_near_alpha_one():
    # b^2 - 4c cancelled to a negative discriminant here
    for k in (20, 27, 40):
        assert join_quotient_index(2, 1, 1.0 - 2.0 ** -k) == 1.0
    with pytest.raises(InvariantError):
        join_quotient_index(math.inf, 1, 0.5)


def test_f_inequality():
    with pytest.raises(ValueError):
        f_inequality(1.0, 5, 1, 0.0)
    assert not f_inequality(0.0, 4, 1, 0.5)
    for (n, s, a) in ((5, 1, 0.3), (9, 2, 0.5), (15, 3, 0.7)):
        rho = join_quotient_index(n, s, a)
        assert f_inequality(rho, n, s, a)
    # rho = alpha*n reduces to alpha*n >= (1-alpha)(n-s)s
    assert f_inequality(0.9 * 20, 20, 1, 0.9) == (0.9 * 20 >= 0.1 * 19)


def test_nikiforov_bounds():
    b = nikiforov_lower_bound(10, 1, 0.5)
    assert abs(b.basic - 4.5) < 1e-14
    assert abs(b.threshold - 1.0) < 1e-12
    assert b.strong is not None and abs(b.strong - 4.5) < 1e-12
    # below the threshold the strong bound is absent
    b = nikiforov_lower_bound(10, 2, 0.1)
    assert b.strong is None and b.threshold > 10
    with pytest.raises(ValueError):
        nikiforov_lower_bound(5, 1, 1.0)
    with pytest.raises(ValueError):
        nikiforov_lower_bound(1, 2, 0.5)


def test_quotient_matrix_path():
    q = quotient_matrix(make_path(3), [(0, 2), (1,)])
    assert np.allclose(q.counts, [[0, 1], [2, 0]])
    a = 0.3
    assert np.allclose(q.alpha_weighted(a), [[a, 1 - a], [2 * (1 - a), 2 * a]])
    assert abs(q.alpha_index(a) - alpha_index(make_path(3), a).rho) < 1e-9


def test_quotient_matrix_join_partitions():
    for (n, s) in ((7, 1), (9, 2), (12, 3)):
        g = extremal_fs(n, s)
        q = quotient_matrix(g, [tuple(range(s)), tuple(range(s, n))])
        for a in (0.2, 0.5, 0.8):
            assert abs(q.alpha_index(a) - join_quotient_index(n, s, a)) < 1e-9
    # matched part is equitable only when n-t is even
    g = extremal_qt(10, 2)
    q = quotient_matrix(g, [tuple(range(2)), tuple(range(2, 10))])
    assert abs(q.alpha_index(0.6) - alpha_index(g, 0.6).rho) < 1e-9


def test_quotient_symmetrization_failure_raises():
    # counts no equitable partition into cells of sizes 1 and 2 can have
    q = QuotientMatrix(cells=((0,), (1, 2)), counts=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NonEquitablePartitionError):
        q.alpha_index(0.5)


def test_quotient_matrix_errors():
    with pytest.raises(NonEquitablePartitionError) as exc:
        quotient_matrix(make_path(4), [(0, 1), (2, 3)])
    assert "vertices" in str(exc.value)
    g = extremal_qt(9, 2)  # odd matched part: isolated vertex breaks equitability
    with pytest.raises(NonEquitablePartitionError):
        quotient_matrix(g, [tuple(range(2)), tuple(range(2, 9))])
    with pytest.raises(ValueError):
        quotient_matrix(make_path(3), [(0,), (1,)])
    with pytest.raises(ValueError):
        quotient_matrix(make_path(3), [(0, 1), (1, 2)])
