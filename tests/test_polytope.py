import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from matslice import (
    NotIrreducible,
    TooLarge,
    accessible_vertices,
    bfr_map,
    descending_spectrum,
    hull_member,
    is_irreducible,
    majorization_member,
    permutohedron_vertices,
    project_sum_zero,
    random_jacobi,
    random_orthogonal,
    random_with_spectrum,
    slice_point,
    spectral_decompose,
    spectral_polytope,
    sum_zero_basis,
    symmetrize,
)
from matslice import kernels, polytope
from conftest import golden_matrix, maxabs


# -------------------------------------------------------------- enumerations

def test_permutohedron_counts():
    assert len(permutohedron_vertices(np.array([3.0, 2.0, 1.0]))) == 6
    assert len(permutohedron_vertices(np.array([4.0, 3.0, 2.0, 1.0]))) == 24


def test_permutohedron_points_match_perms():
    lam = np.array([5.0, 2.0, -1.0])
    vs = permutohedron_vertices(lam)
    for perm, pt in zip(vs.perms, vs.points):
        npt.assert_array_equal(pt, lam[list(perm)])
    assert vs.affine_dim == 2  # all vertices share the coordinate sum


def test_permutohedron_rejects_bad_spectra():
    with pytest.raises(ValueError):
        permutohedron_vertices(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        permutohedron_vertices(np.array([2.0, 2.0]))
    with pytest.raises(TooLarge):
        permutohedron_vertices(np.arange(9.0)[::-1])


def test_spectral_polytope_merges_ties():
    vs = spectral_polytope(np.array([2.0, 1.0, 1.0]))
    assert len(vs) == 3
    assert vs.affine_dim == 2
    flat = spectral_polytope(np.array([1.0, 1.0, 1.0]))
    assert len(flat) == 1
    assert flat.affine_dim == 0
    simple = spectral_polytope(np.array([3.0, 2.0, 1.0]))
    assert len(simple) == 6


def test_spectral_polytope_merges_signed_zero_ties():
    # 0.0 and -0.0 are one eigenvalue, so they give one vertex, not two
    vs = spectral_polytope(np.array([2.0, 0.0, -0.0]))
    assert len(vs) == 3
    assert vs.perms == spectral_polytope(np.array([2.0, 0.0, 0.0])).perms


def test_spectral_polytope_refuses_an_increasing_spectrum():
    with pytest.raises(ValueError, match="non-increasing"):
        spectral_polytope([1.0, 2.0, 2.0])

# ------------------------------------------------------------------- bfr_map

def test_bfr_frozen_2x2():
    npt.assert_allclose(bfr_map(np.array([[2.0, 1.0], [1.0, 2.0]])),
                        [2.0, 2.0], atol=1e-14)


def test_bfr_is_the_diagonal_in_reverse():
    # the image coordinates are exactly the diagonal entries of the matrix
    rng = np.random.default_rng(709)
    for _ in range(20):
        s = random_with_spectrum(np.array([4.0, 2.5, 1.0, -0.5]), rng)
        npt.assert_allclose(bfr_map(s), np.diag(s), atol=1e-10 * maxabs(s))


def test_bfr_sign_invariance_is_exact():
    # squaring kills eigenvector sign freedom bit for bit
    rng = np.random.default_rng(719)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        s = random_with_spectrum(np.sort(rng.uniform(-3, 3, n))[::-1]
                                 + np.arange(n)[::-1], rng)
        dec = spectral_decompose(s)
        base = dec.lam @ (dec.q * dec.q)
        for signs in itertools.product((1.0, -1.0), repeat=n):
            flipped = np.array(signs)[:, None] * dec.q
            assert np.array_equal(dec.lam @ (flipped * flipped), base)


def test_bfr_lands_in_the_polytope():
    rng = np.random.default_rng(727)
    lam = np.array([4.0, 2.0, 1.0, -1.0])
    for _ in range(25):
        s = random_with_spectrum(lam, rng)
        p = bfr_map(s)
        assert majorization_member(p, lam)
        assert hull_member(p, lam)


# ------------------------------------------------------------ accessibility

def test_golden_example_exact_vertex_set():
    s, lam, _ = golden_matrix()
    vs = accessible_vertices(s)
    assert set(vs.perms) == {(1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    want = {(2.0, 4.0, 1.0), (2.0, 1.0, 4.0), (1.0, 4.0, 2.0), (1.0, 2.0, 4.0)}
    for pt in vs.points:
        assert min(max(abs(pt - np.array(w))) for w in want) < 1e-12
    assert vs.affine_dim == 2
    assert len(vs) == 4 < math.factorial(3)


def test_jacobi_reaches_every_vertex():
    rng = np.random.default_rng(733)
    for n in (3, 4, 5):
        j = random_jacobi(n, rng)
        vs = accessible_vertices(j)
        assert len(vs) == math.factorial(n)
        assert vs.affine_dim == n - 1


def test_accessible_count_never_exceeds_factorial():
    rng = np.random.default_rng(739)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        s = random_with_spectrum(np.arange(n, 0.0, -1.0), rng)
        if not is_irreducible(s):
            continue
        vs = accessible_vertices(s)
        assert 1 <= len(vs) <= math.factorial(n)
        for perm, pt in zip(vs.perms, vs.points):
            npt.assert_array_equal(pt, vs.lam[list(perm)])


def prefix_loop_vertices(s):
    """Reference: factor the leading minor of every prefix of every permutation."""
    dec = spectral_decompose(s)
    q = dec.q
    n = q.shape[0]
    accepted, near = [], []
    for perm in itertools.permutations(range(n)):
        ok = True
        closest = math.inf
        for k in range(1, n):
            det = abs(np.linalg.det(q[np.ix_(perm[:k], range(k))]))
            closest = min(closest, det)
            if det <= polytope.MINOR_TOL:
                ok = False
                break
        if ok:
            accepted.append(perm)
            if closest < polytope.MINOR_TOL * 10.0:
                near.append(perm)
    points = np.array([dec.lam[list(p)] for p in accepted])
    return tuple(accepted), tuple(near), points


def small_component_matrix(n, col, value, rng):
    """Spectrum (n, ..., 1) with component ``col`` of eigenvector 1 set to
    ``value`` by rotating eigenvectors 0 and 1 into each other.  A zero
    component makes leading minors vanish: the 1 x 1 ones for col = 0, the
    (n-1) x (n-1) ones (by the complementary-minor identity) for col = n-1."""
    q = random_orthogonal(n, rng)
    radius = math.hypot(q[0, col], q[1, col])
    angle = math.atan2(q[1, col], q[0, col]) - math.asin(value / radius)
    c, sn = math.cos(angle), math.sin(angle)
    q[[0, 1]] = [c * q[0] + sn * q[1], -sn * q[0] + c * q[1]]
    return symmetrize((q.T * np.arange(n, 0.0, -1.0)) @ q)


def test_accessible_vertices_match_prefix_loop():
    rng = np.random.default_rng(745)
    cases = [golden_matrix()[0], small_component_matrix(4, 0, 5e-10, rng)]
    for n in (3, 4, 5, 6):
        for _ in range(3):
            cases.append(random_with_spectrum(np.arange(n, 0.0, -1.0)
                                              + rng.uniform(0.0, 0.5, n), rng))
            cases.append(random_jacobi(n, rng))
            cases.append(small_component_matrix(n, int(rng.choice([0, n - 1])), 0.0, rng))
    pruned = flagged = 0
    for s in cases:
        vs = accessible_vertices(s)
        perms, near, points = prefix_loop_vertices(s)
        assert vs.perms == perms
        assert vs.near_threshold == near
        assert np.array_equal(vs.points, points)
        pruned += len(vs) < math.factorial(len(vs.lam))
        flagged += len(near) > 0
    assert pruned >= 5 and flagged >= 1  # zero and near-zero minors exercised


def test_accessible_vertices_factors_each_row_set_once(monkeypatch):
    matrices = [0]
    det = np.linalg.det

    def counting_det(a):
        a = np.asarray(a)
        matrices[0] += math.prod(a.shape[:-2])
        return det(a)

    s = random_jacobi(6, np.random.default_rng(747))
    monkeypatch.setattr(np.linalg, "det", counting_det)
    assert len(accessible_vertices(s)) == math.factorial(6)
    assert 0 < matrices[0] <= 2 ** 6 - 2


def test_accessible_vertices_guards():
    block = np.zeros((4, 4))
    block[:2, :2] = [[1.0, 0.5], [0.5, 2.0]]
    block[2:, 2:] = [[4.0, 0.2], [0.2, 3.0]]
    with pytest.raises(NotIrreducible):
        accessible_vertices(block)
    rng = np.random.default_rng(743)
    with pytest.raises(TooLarge):
        accessible_vertices(random_jacobi(9, rng))


# ----------------------------------------------------------- hull membership

def test_membership_trivial_cases():
    lam = np.array([4.0, 2.0, 1.0])
    bary = np.full(3, lam.mean())
    for point, inside in [
        (lam, True),                      # a vertex
        (np.array([2.0, 4.0, 1.0]), True),  # another vertex
        (bary, True),                     # the barycenter
        (np.array([4.2, 1.9, 0.9]), False),  # outside, beyond the top vertex
        (np.array([4.0, 2.0, 2.0]), False),  # wrong coordinate sum
    ]:
        assert majorization_member(point, lam) is inside
        assert hull_member(point, lam) is inside


def test_membership_edge_and_near_vertex_points():
    lam = np.array([3.0, 1.0, 0.0])
    mid = 0.5 * (lam + np.array([1.0, 3.0, 0.0]))  # midpoint of an edge
    assert hull_member(mid, lam)
    assert majorization_member(mid, lam)
    bary = np.full(3, lam.mean())
    nudged_in = lam + 0.01 * (bary - lam)    # just inside the top vertex
    pushed_out = lam + 0.01 * (lam - bary)   # just past it
    assert hull_member(nudged_in, lam) and majorization_member(nudged_in, lam)
    assert not hull_member(pushed_out, lam)
    assert not majorization_member(pushed_out, lam)


@pytest.mark.parametrize("point, inside", [
    ([1e308, 1e308], True),
    ([1.5e308, 0.5e308], False),
])
def test_membership_at_the_top_of_the_double_range(point, inside):
    # the sums reach 2e308, past the largest double, unless taken of scaled vectors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert majorization_member(point, [1e308, 1e308]) is inside
        assert hull_member(point, [1e308, 1e308]) is inside


@pytest.mark.parametrize("point, lam", [
    ([math.nan, 2.0, 1.0], [3.0, 2.0, 1.0]),
    ([math.inf, 2.0, 1.0], [3.0, 2.0, 1.0]),
    ([2.0, 2.0, 2.0], [3.0, math.nan, 1.0]),
    ([2.0, 2.0], [3.0, 2.0, 1.0]),
    ([[2.0, 2.0, 2.0]], [3.0, 2.0, 1.0]),
])
def test_membership_routes_reject_the_same_bad_inputs(point, lam):
    for member in (hull_member, majorization_member):
        with pytest.raises(ValueError):
            member(point, lam)


def test_hull_and_majorization_agree_on_random_points():
    # two fully independent membership tests must give one answer
    rng = np.random.default_rng(751)
    total = 0
    disagreements = 0
    insides = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        lam = np.sort(rng.uniform(-2.0, 4.0, size=n))[::-1]
        while np.any(-np.diff(lam) < 1e-3):
            lam = np.sort(rng.uniform(-2.0, 4.0, size=n))[::-1]
        perms = [lam[list(p)] for p in itertools.permutations(range(n))]
        for _ in range(5):
            mode = rng.integers(3)
            if mode == 0:  # honest convex combination: inside
                coef = rng.dirichlet(np.ones(len(perms)))
                point = coef @ np.array(perms)
            elif mode == 1:  # random sum-matched point, either side
                point = rng.normal(size=n)
                point += (lam.sum() - point.sum()) / n
            else:           # pushed outward past the top vertex: outside
                point = lam + rng.uniform(0.1, 0.5) * (lam - lam.mean())
            a = hull_member(point, lam)
            b = majorization_member(point, lam)
            total += 1
            insides += int(a)
            disagreements += int(a != b)
    assert total >= 500
    assert disagreements == 0
    assert 0 < insides < total  # both answers actually exercised


def test_hull_member_takes_permuted_and_tied_spectra_as_majorization_does():
    # membership in conv{pi lam} depends on the multiset of lam alone
    # (Hardy-Littlewood-Polya); the LP used to refuse all but strictly
    # descending spectra
    rng = np.random.default_rng(811)
    answers = []
    for n in range(2, 9):
        for _ in range(15):
            values = rng.uniform(-2.0, 4.0, size=n)
            lam = values if rng.random() < 0.3 else rng.choice(values[:3], size=n)  # ties
            vertices = np.array([lam[rng.permutation(n)] for _ in range(4)])
            noise = rng.normal(size=n)
            for point in (rng.dirichlet(np.ones(4)) @ vertices,  # inside
                          noise + (lam.sum() - noise.sum()) / n,  # sum-matched, either side
                          vertices[0] + 0.2 * (vertices[0] - lam.mean())):  # a vertex pushed out
                a = hull_member(point, lam)
                assert a is majorization_member(point, lam)
                assert a is hull_member(point, np.sort(lam)[::-1])
                answers.append(a)
    assert 0 < sum(answers) < len(answers)


def test_schur_horn_diagonals_are_members():
    rng = np.random.default_rng(757)
    lam = np.array([3.0, 1.5, 0.5, -1.0])
    for _ in range(100):
        q = random_orthogonal(4, rng)
        diag = np.diag(symmetrize((q.T * lam) @ q))
        assert majorization_member(diag, lam)
        assert hull_member(diag, lam)


def test_vertex_caps_refuse_before_any_work(monkeypatch):
    calls = []
    for name in ("is_irreducible", "jacobi_unordered"):
        kernel = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a))
    with pytest.raises(TooLarge):
        accessible_vertices(random_jacobi(9, np.random.default_rng(743)))
    with pytest.raises(TooLarge):
        spectral_polytope(np.arange(9.0)[::-1])
    assert calls == []


def test_hull_member_guards():
    lam = np.array([2.0, 1.0])
    with pytest.raises(ValueError):
        hull_member(np.array([1.0, 1.0, 1.0]), lam)
    with pytest.raises(TooLarge):
        hull_member(np.zeros(17), np.arange(17.0)[::-1])


def test_hull_member_refuses_nonfinite_points():
    lam = np.array([3.0, 2.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            hull_member(np.array([bad, 2.0, 1.0]), lam)


def test_hull_lp_has_at_most_n_squared_columns(monkeypatch):
    shapes = []
    solve = polytope._phase1_residual

    def recording(A, b):
        shapes.append(A.shape)
        return solve(A, b)

    monkeypatch.setattr(polytope, "_phase1_residual", recording)
    lam = np.array([5.0, 4.0, 2.5, 1.0, -1.0])
    assert hull_member(np.full(5, lam.mean()), lam)
    assert shapes and all(cols <= 5 * 5 for _, cols in shapes)


def facet_point(lam, k, rng):
    """A point in the relative interior of the facet where the first k
    coordinates hold the k largest eigenvalues: random convex combinations
    of the permutations within each block."""
    def mix(values):
        perms = [rng.permutation(values) for _ in range(12)]
        return rng.dirichlet(np.ones(len(perms))) @ np.array(perms)
    return np.concatenate([mix(lam[:k]), mix(lam[k:])])


def test_hull_and_majorization_agree_at_n6_to_8():
    rng = np.random.default_rng(753)
    for n in (6, 7, 8):
        lam = descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3)
        span = lam[0] - lam[-1]
        points = [(bfr_map(random_with_spectrum(lam, rng)), True) for _ in range(3)]
        bary = np.full(n, lam.mean())
        points += [(lam + 1e-5 * (bary - lam), True), (lam + 1e-5 * (lam - bary), False)]
        for _ in range(4):
            k = int(rng.integers(1, n))
            order = rng.permutation(n)
            face = facet_point(lam, k, rng)
            normal = np.concatenate([np.full(k, 1.0 / k), np.full(n - k, -1.0 / (n - k))])
            for sign, inside in ((-1.0, True), (1.0, False)):
                point = np.empty(n)
                point[order] = face + sign * 1e-5 * span * normal
                points.append((point, inside))
        for point, inside in points:
            assert majorization_member(point, lam) is inside
            assert hull_member(point, lam) is inside


def edge_midpoints(lam, perm):
    """Midpoints of the permutohedron edges at the vertex lam[perm]: each
    swaps the places of two consecutive eigenvalues."""
    vertex = lam[perm]
    where = np.argsort(perm)  # lam[k] sits at vertex[where[k]]
    mids = []
    for k in range(len(lam) - 1):
        other = vertex.copy()
        other[[where[k], where[k + 1]]] = lam[k + 1], lam[k]
        mids.append(0.5 * (vertex + other))
    return mids


def highs_l1_residual(A, b):
    """The least sum_i |(D lam)_i - p_i| over doubly stochastic D, by HiGHS:
    hull_member's layout, one pair of opposite slacks per point row."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = A.shape[0] // 3
    slack = np.zeros((3 * n, 2 * n))
    slack[:n, :n], slack[:n, n:] = np.eye(n), -np.eye(n)
    cost = np.concatenate([np.zeros(A.shape[1]), np.ones(2 * n)])
    out = linprog(cost, A_eq=np.hstack([A, slack]), b_eq=b, bounds=(0.0, None),
                  method="highs-ds", options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})
    assert out.status == 0
    return out.fun


def test_hull_lp_optimum_matches_an_independent_solver(monkeypatch):
    rng = np.random.default_rng(769)
    calls = []
    for n in range(2, 9):
        lam = descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3)
        span = lam[0] - lam[-1]
        bary = np.full(n, lam.mean())
        calls += [(bfr_map(random_with_spectrum(lam, rng)), lam) for _ in range(2)]
        calls += [(lam + 0.3 * (lam - bary), lam), (lam + 1e-5 * (lam - bary), lam)]
        wild = rng.normal(size=n) * span
        calls += [(wild + (lam.sum() - wild.sum()) / n, lam), (wild, lam)]
        k = int(rng.integers(1, n))
        normal = np.concatenate([np.full(k, 1.0 / k), np.full(n - k, -1.0 / (n - k))])
        face = facet_point(lam, k, rng)
        calls += [(face + sign * 1e-5 * span * normal, lam) for sign in (-1.0, 1.0)]
    lps = []
    with monkeypatch.context() as patch:  # record what hull_member hands its LP
        patch.setattr(polytope, "_phase1_residual", lambda A, b: lps.append((A, b)) or 0.0)
        for point, lam in calls:
            hull_member(point, lam)
    residuals = [polytope._phase1_residual(A, b) for A, b in lps]
    for (A, b), ours in zip(lps, residuals):
        assert abs(ours - highs_l1_residual(A, b)) < 1e-9
    assert min(residuals) < polytope.FEASIBILITY_TOL < max(residuals)


@pytest.fixture
def bland_pivots(monkeypatch):
    """Record each entering column the simplex picks by Bland's rule."""
    pick = polytope._bland_entering
    picks = []

    def spy(reduced):
        picks.append(pick(reduced))
        return picks[-1]

    monkeypatch.setattr(polytope, "_bland_entering", spy)
    return picks


def test_hull_lp_on_degenerate_points(bland_pivots):
    rng = np.random.default_rng(773)
    for n in range(2, 6):
        for lam in (descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3),
                    np.arange(n, 0.0, -1.0)):
            for perm in itertools.permutations(range(n)):
                assert hull_member(lam[list(perm)], lam)
    # the vertices of an integer spectrum at n = 6 include LPs that stall for
    # 3n degenerate pivots in a row, so the simplex falls back to Bland's rule
    lam = np.arange(6, 0.0, -1.0)
    for perm in itertools.permutations(range(6)):
        assert hull_member(lam[list(perm)], lam)
    assert bland_pivots
    for n in (6, 7, 8):
        lam = descending_spectrum(n, rng, lo=-3.0, hi=3.0, min_gap=0.3)
        span = lam[0] - lam[-1]
        for _ in range(3):
            for mid in edge_midpoints(lam, rng.permutation(n)):
                assert hull_member(mid, lam)
        for k in range(1, n):
            face = facet_point(lam, k, rng)
            normal = np.concatenate([np.full(k, 1.0 / k), np.full(n - k, -1.0 / (n - k))])
            order = rng.permutation(n)
            for sign, inside in ((-1.0, True), (1.0, False)):
                point = np.empty(n)
                point[order] = face + sign * 1e-5 * span * normal
                assert hull_member(point, lam) is inside


def test_hull_member_past_the_cap_agrees_with_majorization():
    # past the vertex-listing cap of 8, up to the LP's own cap of 16
    rng = np.random.default_rng(787)
    for n in (12, 16):
        lam = -np.cumsum(rng.uniform(0.3, 1.0, size=n))
        lam -= lam.mean()  # strictly descending, gaps at least 0.3
        span = lam[0] - lam[-1]
        points = [(bfr_map(random_with_spectrum(lam, rng)), True) for _ in range(2)]
        for k in (1, n // 3, n - 1):
            face = facet_point(lam, k, rng)
            normal = np.concatenate([np.full(k, 1.0 / k), np.full(n - k, -1.0 / (n - k))])
            points += [(face - 1e-5 * span * normal, True), (face + 1e-5 * span * normal, False)]
        vertex = lam[rng.permutation(n)]
        bary = np.full(n, lam.mean())
        points += [(vertex + 1e-5 * (bary - vertex), True), (vertex + 1e-5 * (vertex - bary), False)]
        for point, inside in points:
            assert majorization_member(point, lam) is inside
            assert hull_member(point, lam) is inside


# ----------------------------------------------------- slice images & basis

def test_slice_points_fill_the_polytope_distinctly():
    rng = np.random.default_rng(761)
    lam = np.array([4.0, 2.6, 1.3, 0.2])
    j = random_jacobi(4, rng, spectrum=lam)
    points = []
    for _ in range(40):
        w = rng.uniform(0.05, 1.0, size=4)
        p = bfr_map(slice_point(j, w))
        assert hull_member(p, lam)
        points.append(p)
    points = np.array(points)
    dists = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 1e-8  # generic weights land on distinct points


def test_sum_zero_basis_is_orthonormal():
    for n in (2, 3, 5, 7):
        b = sum_zero_basis(n)
        assert b.shape == (n - 1, n)
        npt.assert_allclose(b @ b.T, np.eye(n - 1), atol=1e-14)
        npt.assert_allclose(b.sum(axis=1), np.zeros(n - 1), atol=1e-14)


def test_sum_zero_basis_needs_two_coordinates():
    with pytest.raises(ValueError, match="n >= 2"):
        sum_zero_basis(1)

def test_projection_preserves_distances():
    lam = np.array([3.0, 2.0, 1.0])
    vs = permutohedron_vertices(lam)
    flat = project_sum_zero(vs.points)
    assert flat.shape == (6, 2)
    for i in range(6):
        for k in range(6):
            d_orig = np.linalg.norm(vs.points[i] - vs.points[k])
            d_flat = np.linalg.norm(flat[i] - flat[k])
            assert abs(d_orig - d_flat) < 1e-12
