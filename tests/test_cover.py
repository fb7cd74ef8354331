import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

import sosreg.cover as cover
from sosreg.calculus import FunctionHandle
from sosreg.cover import (
    ControlDistanceParams,
    CoverCell,
    build_cover,
    build_partition,
    bump_profile,
    color_classes,
    control_distance_values,
    partition_derivative_report,
    verify_slowly_varying,
)
from sosreg.errors import CoverBudgetError, CoverageHoleError, DomainError
from sosreg.exprlang import parse_expression
from sosreg.geometry import Ball, ball_grid, ball_points, sphere_points

from oracles import fd_handle


def handle(src, variables=("x",), radius=3.0):
    return FunctionHandle.from_expr(
        parse_expression(src), variables, domain=Ball((0.0,) * len(variables), radius)
    )


class TestControlDistance:
    def test_zero_function(self):
        assert control_distance_values(handle("0"), [0.1], ControlDistanceParams(0.5))[0] == 0.0

    def test_parabola_at_origin(self):
        # terms {0, 2^(1/3), 0}
        v = control_distance_values(handle("x^2"), [0.0], ControlDistanceParams(0.5))[0]
        assert v == pytest.approx(2.0 ** (1.0 / 3.0))

    def test_quartic_at_one(self):
        # max{1^(1/5), 12^(1/3), 24^(1/1)} = 24 for delta = 1/2
        v = control_distance_values(handle("x^4"), [1.0], ControlDistanceParams(0.5))[0]
        assert v == pytest.approx(24.0)

    def test_full_dominates_reduced(self):
        f = handle("x^4 + x^2", radius=2.0)
        pts = np.linspace(-1, 1, 41).reshape(-1, 1)
        full = control_distance_values(f, pts, ControlDistanceParams(0.3))
        reduced = control_distance_values(f, pts, ControlDistanceParams(0.3, "reduced"))
        assert np.all(full >= reduced - 1e-12)

    def test_distance_to_zero_set_bound(self, flat_exp_sq):
        # rho(x) <= C * dist(x, {0}) for the flat profile, after the value
        # normalization that keeps the fourth-derivative term non-dominant
        pts = np.linspace(0.05, 1.0, 40).reshape(-1, 1)
        delta = 0.25
        c4 = float(np.max(
            flat_exp_sq.max_entry_values(pts, 4)
            / np.maximum(flat_exp_sq.values(pts), 1e-300) ** (delta / (2 + delta))
        ))
        g = flat_exp_sq.rescaled(c4 ** (-(2 + delta) / 2.0))
        rho = control_distance_values(g, pts, ControlDistanceParams(delta))
        ratio = rho / pts.ravel()
        assert np.all(np.isfinite(ratio))
        assert np.max(ratio) < 20.0

    def test_variant_validation(self):
        with pytest.raises(DomainError):
            ControlDistanceParams(0.25, "bogus")


class TestSlowVariation:
    def test_bound_constant(self):
        rep = verify_slowly_varying(handle("2"), ControlDistanceParams(0.5), Ball((0.0,), 1.0), 200)
        assert rep.bound == pytest.approx(0.5 ** (1.0 / 5.0))
        assert rep.worst_ratio == 0.0

    def test_normalized_quartic(self):
        rep = verify_slowly_varying(handle("x^4/24"), ControlDistanceParams(0.25), Ball((0.0,), 1.0), 1000)
        assert rep.passed

    def test_flat_profile_on_truncated_interval(self, flat_exp_sq):
        rep = verify_slowly_varying(
            flat_exp_sq, ControlDistanceParams(0.25), Ball((0.525,), 0.465), 1000
        )
        assert rep.passed
        assert rep.rescale >= 1.0

    def test_violation_with_exact_derivatives(self):
        # sin(1e6 x) has period 6.3e-6, shorter than the pair steps r(x)/200
        f = handle("x^2*(1 + 0.9*sin(1000000*x))")
        p, region = ControlDistanceParams(0.45), Ball((0.01,), 0.5)
        rep = verify_slowly_varying(f, p, region, 1500)
        assert not rep.passed and len(rep.violations) == 1
        assert rep.worst_ratio == pytest.approx(0.975, abs=5e-4) and rep.bound == pytest.approx(0.868, abs=5e-4)
        worst, violations, pairs = _slow_variation_loop(f, p, region, 1500)
        assert (rep.worst_ratio, rep.violations, rep.pairs) == (worst, violations, pairs)


def _slow_variation_loop(f, p, region, samples):
    """worst_ratio, violations and pairs of verify_slowly_varying by the
    per-sample loops it used before it was vectorised."""
    xs =ball_points(region, samples)
    g = f.rescaled(1.0 / max(1.0, 1.05 * float(np.max(f.max_entry_values(xs, 4)))))
    reduced = ControlDistanceParams(delta=p.delta, variant="reduced")
    rx = control_distance_values(g, xs, reduced)
    dirs = sphere_points(max(16, samples // 8), f.arity) if f.arity > 1 else np.array([[1.0], [-1.0]])
    fracs = np.linspace(0.1, 1.0, 7)
    bound = 0.5 ** (1.0 / (4.0 + 2.0 * p.delta))
    ys = np.array([x + fracs[k % 7] * (rx[k] / 200.0) * dirs[k % len(dirs)] for k, x in enumerate(xs)])
    ry = control_distance_values(g, ys, reduced)
    worst, violations, pairs = 0.0, [], 0
    for k in range(len(xs)):
        if rx[k] <= 0:
            continue
        pairs += 1
        ratio = abs(rx[k] - ry[k]) / rx[k]
        if ratio > worst:
            worst = ratio
        if ratio > bound * (1 + 1e-12):
            violations.append({"x": [float(v) for v in xs[k]], "y": [float(v) for v in ys[k]],
                               "ratio": float(ratio)})
    return worst, violations, pairs


@pytest.mark.parametrize("fn, arity, delta, violates", [
    (lambda X: X[:, 0] ** 2 * (1 + 0.9 * np.sin(1e4 * X[:, 0])), 1, 0.45, True),
    (lambda X: X[:, 0] ** 4 / 24 + X[:, 1] ** 2, 2, 0.25, False),
])
def test_slow_variation_matches_loop(fn, arity, delta, violates):
    # finite differences on purpose: with exact derivatives the first case
    # reads no violation (worst ratio 0.152); its violations come from the
    # 1e-3 step, longer than the 6.3e-4 period of sin(1e4 x)
    f = fd_handle(fn, arity, domain=Ball((0.0,) * arity, 3.0), vectorized=True)
    region = Ball((0.01,) * arity, 0.5)
    rep = verify_slowly_varying(f, ControlDistanceParams(delta), region, 1500)
    worst, violations, pairs = _slow_variation_loop(f, ControlDistanceParams(delta), region, 1500)
    assert rep.worst_ratio == worst
    assert rep.violations == violations
    assert rep.pairs == pairs
    assert bool(violations) == violates


class TestCover:
    def test_constant_function_cover(self):
        f = handle("1")
        cells = build_cover(f, ControlDistanceParams(0.1), Ball((0.0,), 1.0))
        assert cells
        # rho == 1 so every radius equals the cell scale
        assert all(c.radius == pytest.approx(1.0 / 200.0) for c in cells)
        # count comparable to the covering number at radius s
        assert 200 <= len(cells) <= 800

    def test_empty_below_floor(self):
        f = handle("0")
        cells = build_cover(f, ControlDistanceParams(0.25), Ball((0.0,), 1.0), floor=0.5)
        assert cells == []

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            build_cover(handle("1"), ControlDistanceParams(0.25), Ball((0.0,), 1.0), s=0.01)

    def test_matches_spatial_hash_loop(self, isotropic_covers):
        for cells, (src, variables, radius) in zip(isotropic_covers, _ISOTROPIC):
            ref = _cover_reference(handle(src, variables), ControlDistanceParams(0.25),
                                   Ball((0.0,) * len(variables), radius))
            assert [(c.nu, c.center, c.radius) for c in cells] == \
                [(c.nu, c.center, c.radius) for c in ref]

    @pytest.mark.parametrize("src, variables, center, radius, variant", [
        ("x^4", ("x",), (0.5,), 0.45, "reduced"),  # radii from 1.2e-3 to 1.3e-2
        ("x^4 + y^4", ("x", "y"), (0.1, 0.0), 0.03, "reduced"),
        ("x^2 + y^2 + z^2", ("x", "y", "z"), (3e-4, -2e-4, 1e-4), 0.015, "full"),
    ])
    def test_batches_accept_as_one_pass(self, monkeypatch, src, variables, center, radius, variant):
        # budget 1 makes every batch one candidate; under 37 the 1-D batches grow
        # from 1 member to 7 as the lattice half-width falls from 11 to 2 along
        # the order; at half-width 2 the 2-D and 3-D boxes hold 25 and 125
        # lattice points, so 300 gives them batches of 12 and 2 members
        f, p, region = handle(src, variables), ControlDistanceParams(0.25, variant), Ball(center, radius)
        expected = [(c.nu, c.center, c.radius) for c in _cover_brute(f, p, region)]
        for budget in (1, 37, 300, cover._BLOCK_PAIRS):
            monkeypatch.setattr(cover, "_BLOCK_PAIRS", budget)
            assert [(c.nu, c.center, c.radius) for c in build_cover(f, p, region)] == expected

    def test_batches_match_the_spatial_hash_loop(self, monkeypatch):
        # the default budget is test_matches_spatial_hash_loop's
        for src, variables, radius in _ISOTROPIC:
            f, p, region = handle(src, variables), ControlDistanceParams(0.25), Ball((0.0,) * len(variables), radius)
            expected = [(c.nu, c.center, c.radius) for c in _cover_reference(f, p, region)]
            for budget in (1, 37, 300):
                monkeypatch.setattr(cover, "_BLOCK_PAIRS", budget)
                assert [(c.nu, c.center, c.radius) for c in build_cover(f, p, region)] == expected

    @pytest.mark.parametrize("budget", [1, 37, None])
    def test_cell_budget_counts_one_cell_past_it(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(cover, "_BLOCK_PAIRS", budget)
        f, p, region = handle("x^4"), ControlDistanceParams(0.25, "reduced"), Ball((0.5,), 0.45)
        total = len(build_cover(f, p, region))
        for k in (0, 1, 2, total // 2, total - 1):
            with pytest.raises(CoverBudgetError, match=f"cover exceeded {k} cells") as err:
                build_cover(f, p, region, max_cells=k)
            assert err.value.count == k + 1
        assert len(build_cover(f, p, region, max_cells=total)) == total

    def test_one_cell_wider_than_the_region(self):
        # unnormalised, rho = 576 gives cells of radius 2.88 over a ball of radius 0.06
        region = Ball((0.0, 0.0), 0.06)
        cells = build_cover(handle("x^2 + y^4", ("x", "y")), ControlDistanceParams(0.25), region)
        assert len(cells) == 1 and cells[0].radius == pytest.approx(2.88)
        assert build_partition(cells, region).check_unity(ball_points(region, 500)) < 1e-10

    def test_parabola_cover_covers_region(self):
        f = handle("x^2")
        region = Ball((0.0,), 1.0)
        cells = build_cover(f, ControlDistanceParams(0.25), region, floor=0.1)
        part = build_partition(cells, region)
        grid = np.linspace(-0.995, 0.995, 1001).reshape(-1, 1)
        assert part.check_unity(grid) < 1e-10


class TestPartition:
    def test_single_cell_inner_plateau(self):
        cells = [CoverCell(nu=0, center=(0.0,), radius=1.0)]
        part = build_partition(cells)
        inner = np.linspace(-0.45, 0.45, 101).reshape(-1, 1)
        assert np.allclose(part.phi(0, inner), 1.0)

    def test_two_overlapping_cells_unity(self):
        cells = [
            CoverCell(nu=0, center=(0.0,), radius=1.0),
            CoverCell(nu=1, center=(0.6,), radius=1.0),
        ]
        part = build_partition(cells)
        grid = np.linspace(-0.3, 0.9, 1000).reshape(-1, 1)
        total = part.phi(0, grid) ** 2 + part.phi(1, grid) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_coverage_hole_detected(self):
        cells = [CoverCell(nu=0, center=(0.0,), radius=0.5)]
        part = build_partition(cells)
        with pytest.raises(CoverageHoleError):
            part.check_unity(np.array([[0.9]]))

    def test_derivative_bounds_scale_with_radius(self):
        # doubling every radius halves the scaled first-derivative sup
        def scaled_sup(radius):
            cells = [
                CoverCell(nu=i, center=(i * radius,), radius=radius)
                for i in range(6)
            ]
            part = build_partition(cells)
            rep = partition_derivative_report(part, per_cell_samples=64, max_cells=6)
            return rep["scaled_sup_order1"] / radius

        small = scaled_sup(0.5)
        large = scaled_sup(1.0)
        assert large == pytest.approx(small / 2.0, rel=0.1)

    @pytest.mark.parametrize("case", ["chain_1d", "isotropic_2d"])
    def test_exact_sups_match_central_differences(self, case, isotropic_covers):
        # central differences err by O(h^2): 1e-4 r suffices on the 1-D chain,
        # while on the 2-D cover it leaves 4.6e-6, so that case steps at 1e-5 r
        if case == "chain_1d":
            cells, h_frac = [CoverCell(nu=i, center=(i * 0.5,), radius=0.5) for i in range(6)], 1e-4
        else:
            cells, h_frac = isotropic_covers[1], 1e-5
        part = build_partition(cells)
        rep = partition_derivative_report(part, per_cell_samples=48, max_cells=12)
        fd = _fd_partition_sups(part, 48, 12, h_frac)
        assert rep["scaled_sup_order1"] == pytest.approx(fd[1], rel=1e-6)
        # the exact order-2 sup also covers the mixed entries
        assert rep["scaled_sup_order2"] >= fd[2] * (1.0 - 1e-4)

    def test_sum_chi_sq_is_float_on_every_batch(self, isotropic_covers):
        # np.bincount with no weighted hits returns integers
        single = build_partition([CoverCell(nu=0, center=(0.0,), radius=1.0)])
        for X, want in (([[5.0]], [0.0]), (np.empty((0, 1)), []), ([[5.0], [0.2], [-7.0]], [0.0, 1.0, 0.0])):
            tot = single.sum_chi_sq(X)
            assert tot.dtype == np.float64 and np.array_equal(tot, want)
        part = build_partition(isotropic_covers[1])
        X = ball_points(Ball((0.0, 0.0), 0.13), 400)
        pairs = part.chi_pairs(X)
        want = np.bincount(pairs.idx, weights=pairs.chi**2, minlength=len(X))
        assert np.any(want == 0.0) and np.any(want > 0.0)
        assert part.sum_chi_sq(X).tobytes() == want.tobytes()

    def test_batch_readers_on_empty_uncovered_and_covered_batches(self, isotropic_covers):
        single = build_partition([CoverCell(nu=0, center=(0.0,), radius=1.0)])
        empty = np.empty((0, 1))
        assert single.check_unity(empty) == 0.0 and single.observe_overlap(empty) == 0
        assert single.sum_chi_sq(empty).shape == (0,)
        # a point that no bump reaches
        with pytest.raises(CoverageHoleError, match=r"\[5\.0\]"):
            single.check_unity([[0.2], [5.0]])
        assert single.observe_overlap([[5.0]]) == 0 and single.sum_chi_sq([[5.0]]).tolist() == [0.0]
        # a covered batch keeps the bits of one bincount per sum
        part = build_partition(isotropic_covers[1])
        X = ball_points(Ball((0.0, 0.0), 0.1), 400)
        pairs = part.chi_pairs(X)
        tot = np.bincount(pairs.idx, weights=pairs.chi**2, minlength=len(X))
        acc = np.bincount(pairs.idx, weights=pairs.chi**2 / tot[pairs.idx], minlength=len(X))
        assert part.check_unity(X) == float(np.max(np.abs(acc - 1.0))) < 1e-10
        assert part.observe_overlap(X) == np.bincount(pairs.idx).max() > 1
        assert part.sum_chi_sq(X).tobytes() == tot.tobytes()

    def test_empty_cover_rejected(self):
        with pytest.raises(DomainError):
            build_partition([])


_ISOTROPIC = (("x^2 + y^2 + z^2", ("x", "y", "z"), 0.015), ("x^2 + y^2", ("x", "y"), 0.12))


@pytest.fixture(scope="module")
def isotropic_covers():
    """The top-level covers of x^2+y^2+z^2 on B(0, 0.015) (213 cells) and of
    x^2+y^2 on B(0, 0.12) (1,896 cells)."""
    return [
        build_cover(handle(src, variables), ControlDistanceParams(0.25), Ball((0.0,) * len(variables), radius))
        for src, variables, radius in _ISOTROPIC
    ]


def _cover_candidates(f, p, region, s, floor):
    """build_cover's candidates in acceptance order with their rho, and the
    largest rho of its probe."""
    rho_probe = control_distance_values(f, ball_points(region, 512), p)
    live = rho_probe[rho_probe >= floor]
    spacing = min(s * max(float(np.min(live)), floor) / 2.0, region.radius)
    per_axis = int(np.ceil(2.0 * region.radius / spacing)) + 1
    c = np.asarray(region.center)
    mesh = np.meshgrid(*[np.linspace(ci - region.radius, ci + region.radius, per_axis) for ci in c], indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)
    cand = cand[np.linalg.norm(cand - c, axis=1) <= region.radius]
    rho = control_distance_values(f, cand, p)
    cand, rho = cand[rho >= floor], rho[rho >= floor]
    order = np.lexsort(tuple(cand[:, i] for i in range(region.dim)) + (-rho,))
    return cand[order], rho[order], float(np.max(rho_probe))


def _cover_reference(f, p, region, s=1.0 / 200.0, floor=1e-3):
    """build_cover's cells by the spatial-hash loop over every candidate it replaced."""
    n = region.dim
    cand, rho, rho_max = _cover_candidates(f, p, region, s, floor)
    cell_size = s * rho_max / 2.0
    buckets, centers, radii, cells = {}, [], [], []
    for x, rx in zip(cand, rho):
        key = tuple(int(np.floor(v / cell_size)) for v in x)
        covered = any(
            np.linalg.norm(x - centers[j]) <= radii[j] / 2.0
            for offs in np.ndindex(*((3,) * n))
            for j in buckets.get(tuple(k + o - 1 for k, o in zip(key, offs)), ())
        )
        if covered:
            continue
        r = s * float(rx)
        buckets.setdefault(key, []).append(len(centers))
        centers.append(x)
        radii.append(r)
        cells.append(CoverCell(nu=len(cells), center=tuple(x), radius=r))
    return cells


def _fd_partition_sups(part, per_cell_samples, max_cells, h_frac):
    """Order-1 and pure order-2 sups of partition_derivative_report by central
    differences of Partition.phi at step h_frac * r, as it was computed before
    reading the exact bump jets."""
    out = {1: 0.0, 2: 0.0}
    for nu in range(0, len(part.cells), max(1, len(part.cells) // max_cells))[:max_cells]:
        r = part.radii[nu]
        h = h_frac * r
        pts = ball_points(Ball(center=tuple(part.centers[nu]), radius=0.98 * r), per_cell_samples)
        for axis in range(part.dim):
            e = np.zeros(part.dim)
            e[axis] = h
            plus, mid, minus = part.phi(nu, pts + e), part.phi(nu, pts), part.phi(nu, pts - e)
            out[1] = max(out[1], float(np.max(np.abs(plus - minus) / (2 * h))) * r)
            out[2] = max(out[2], float(np.max(np.abs(plus - 2 * mid + minus) / h**2)) * r**2)
    return out


def _color_reference(cells):
    """color_classes by the per-pair loop it replaced."""
    centers = np.array([c.center for c in cells])
    radii = np.array([c.radius for c in cells])
    tree = cKDTree(centers)
    neighbor_lists = tree.query_ball_tree(tree, 6.0 * float(np.max(radii)))
    colors = [c.color for c in cells]
    for i in range(len(cells)):
        used = set()
        for j in neighbor_lists[i]:
            if j == i or colors[j] is None:
                continue
            if np.linalg.norm(centers[i] - centers[j]) < 3.0 * (radii[i] + radii[j]):
                used.add(colors[j])
        color = 0
        while color in used:
            color += 1
        colors[i] = color
    return colors


class TestColorClasses:
    def test_matches_per_pair_loop(self, isotropic_covers):
        for cells in isotropic_covers:
            cells = [replace(c, color=None) for c in cells]
            expected = _color_reference(cells)  # before color_classes sets the colors it reads
            assert [c.color for c in color_classes(cells)] == expected

    def test_colors_set_before_the_call_are_ignored(self, isotropic_covers):
        cells = [replace(c, color=None) for c in isotropic_covers[0]]
        expected = _color_reference(cells)
        assert [c.color for c in color_classes([replace(c, color=c.nu % 5) for c in cells])] == expected

    def test_disjoint_cells_single_class(self):
        cells = [CoverCell(nu=i, center=(10.0 * i,), radius=0.1) for i in range(5)]
        cells = color_classes(cells)
        assert len({c.color for c in cells}) == 1

    def test_single_cell(self):
        cells = color_classes([CoverCell(nu=0, center=(0.0,), radius=1.0)])
        assert cells[0].color == 0

    def test_chain_of_equal_cells(self):
        # triples of radius 3r at spacing r intersect out to distance 6r
        cells = [CoverCell(nu=i, center=(0.01 * i,), radius=0.01) for i in range(100)]
        cells = color_classes(cells)
        n_colors = len({c.color for c in cells})
        assert n_colors == 7

    def test_pair_budget_stops_the_colouring(self, monkeypatch):
        # every cell's reach 3 (r + r_max) = 0.06 holds every centre, so the
        # bucket index lists exactly 5 x 5 candidate pairs
        cells = [CoverCell(nu=i, center=(0.001 * i, 0.0), radius=0.01) for i in range(5)]
        monkeypatch.setattr(cover, "MAX_PAIRS", 25)
        color_classes(cells)
        monkeypatch.setattr(cover, "MAX_PAIRS", 24)
        with pytest.raises(CoverBudgetError, match="raise floor or shrink the region") as err:
            color_classes(cells)
        assert err.value.count == 25

    @pytest.mark.parametrize("budget", [1, 500])
    def test_blocks_color_as_one_pass(self, monkeypatch, isotropic_covers, budget):
        # every cell of these covers has 60 to 575 candidates: budget 1 makes
        # each cell a block, 500 blocks of 1 to 8 cells
        covers = [[replace(c, color=None) for c in cells] for cells in isotropic_covers]
        covers += [_dyadic_cells(dim, 60, seed=20 + dim) for dim in (1, 2, 3)]
        blocks, listing = [], cover._Buckets.pairs
        monkeypatch.setattr(cover._Buckets, "pairs", lambda index, X: blocks.append(len(X)) or listing(index, X))
        monkeypatch.setattr(cover, "_BLOCK_PAIRS", budget)
        for cells in covers:
            expected, blocks[:] = _color_reference(cells), []
            assert [c.color for c in color_classes(cells)] == expected
            assert len(blocks) >= 7 and sum(blocks) == len(cells)
            assert max(blocks) == 1 if budget == 1 else max(blocks) > 1

    def test_memory_is_one_blocks(self, isotropic_covers):
        # all 839,594 candidate pairs of the x^2+y^2 cover listed at once peak at 22.7 MB
        cells = [replace(c, color=None) for c in isotropic_covers[1]]
        tracemalloc.start()
        color_classes(cells)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 6_000_000

    def test_within_class_triples_disjoint(self):
        f = handle("1")
        cells = color_classes(build_cover(f, ControlDistanceParams(0.25), Ball((0.0,), 0.5)))
        by_color = {}
        for c in cells:
            by_color.setdefault(c.color, []).append(c)
        for group in by_color.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    d = abs(a.center[0] - b.center[0])
                    assert d >= 3.0 * (a.radius + b.radius) - 1e-12


class TestObservedOverlap:
    def test_bounded_multiplicity(self):
        f = handle("x^2 + y^2", ("x", "y"))
        region = Ball((0.0, 0.0), 0.12)
        cells = build_cover(f, ControlDistanceParams(0.25), region)
        part = build_partition(cells, region)
        grid = ball_grid(Ball((0.0, 0.0), 0.115), 40)
        overlap = part.observe_overlap(grid)
        assert 1 <= overlap <= 30


class TestChiPairs:
    def test_matches_per_cell_loop(self):
        f = handle("x^2 + y^2", ("x", "y"))
        region = Ball((0.01, -0.02), 0.1)
        part = build_partition(build_cover(f, ControlDistanceParams(0.25), region, floor=1e-3), region)
        X = ball_points(region, 3000)
        pairs = part.chi_pairs(X)
        tot = np.zeros(len(X))
        for nu, (idxs, chi) in enumerate(pairs):
            u = np.linalg.norm(X - part.centers[nu], axis=1) / part.radii[nu]
            ref = np.flatnonzero(u <= 1.0)
            assert np.array_equal(idxs, ref)
            assert np.array_equal(chi, part.chi(nu, X[ref]))
            np.add.at(tot, idxs, chi**2)
        assert np.array_equal(part.sum_chi_sq(X, pairs), tot)

    @pytest.mark.parametrize("count", [255, 256, 257, 65535, 65536, 65537])
    def test_cell_sort_across_the_small_index_types(self, count):
        # cells shuffled along a line, so the bucket index lists each point's cells out of
        # cell order, and one point near every center, so the sort moves hits over all indices
        rng = np.random.default_rng(count)
        centers = rng.permutation(count) * 0.5
        part = build_partition([CoverCell(nu=k, center=(c,), radius=0.6) for k, c in enumerate(centers)])
        X = (centers + rng.uniform(-0.6, 0.6, size=count))[:, None]
        pairs = part.chi_pairs(X)
        idx, cell = part.index.pairs(X)
        u = np.linalg.norm(X[idx] - part.centers[cell], axis=1) / part.radii[cell]
        inside = np.flatnonzero(u <= 1.0)
        order = inside[np.lexsort((idx[inside], cell[inside]))]
        assert np.array_equal(pairs.idx, idx[order]) and np.array_equal(pairs.cell, cell[order])
        assert np.array_equal(pairs.chi, bump_profile(u[order]))
        assert np.array_equal(pairs.starts, np.searchsorted(cell[order], np.arange(count + 1)))
        assert np.all(np.diff(pairs.starts) > 0) and len(pairs.idx) > 2 * count


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
def test_distances_are_the_norm_bit_for_bit(dim):
    # rows of magnitudes from 1e-8 to 1e8, so a sum in another order would round differently
    rng = np.random.default_rng(dim)
    A = rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-8, 9, size=(60, dim))
    B = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-8, 9, size=(40, dim))
    a, b = rng.integers(0, 60, size=5000), rng.integers(0, 40, size=5000)
    got = cover._distances(A, a, B, b)
    assert got.shape == (5000,) and np.array_equal(got, np.linalg.norm(A[a] - B[b], axis=1))


def _chi_pairs_brute(part, X):
    """(idx, cell, chi) of chi_pairs from every (cell, point) pair at once."""
    u = np.linalg.norm(X[None, :, :] - part.centers[:, None, :], axis=2) / part.radii[:, None]
    cell, idx = np.nonzero(u <= 1.0)
    return idx, cell, bump_profile(u[cell, idx])


def _cover_brute(f, p, region, s=1.0 / 200.0, floor=1e-3):
    """build_cover's cells by testing each candidate against every accepted cell."""
    cand, rho, _ = _cover_candidates(f, p, region, s, floor)
    centers, radii = np.empty((0, region.dim)), np.empty(0)
    for x, rx in zip(cand, rho):
        if not np.any(np.linalg.norm(centers - x, axis=1) <= radii / 2.0):
            centers, radii = np.vstack([centers, x]), np.append(radii, s * float(rx))
    return [CoverCell(nu=k, center=tuple(c), radius=float(r)) for k, (c, r) in
            enumerate(zip(centers, radii))]


def _dyadic_cells(dim, count, seed):
    """Cells with centers on a 1/64 grid and radii from 1/16 to 5/8 (a factor of 10), so a
    center plus its radius along an axis is exact: such a point lies at distance r exactly."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(-64, 64, size=(count, dim)) / 64.0
    radii = rng.choice([1 / 16, 1 / 8, 3 / 16, 1 / 4, 3 / 8, 1 / 2, 5 / 8], size=count)
    radii[:2] = 1 / 16, 5 / 8
    return [CoverCell(nu=k, center=tuple(c), radius=float(r))
            for k, (c, r) in enumerate(zip(centers, radii))]


def _probe_points(part, seed):
    """Random points over and beyond the cover's bounding box, points on the faces of the
    partition's buckets, and points at distance exactly r_nu from a center along each axis."""
    rng = np.random.default_rng(seed)
    n = part.dim
    lo, hi = np.min(part.centers, axis=0) - 1.5, np.max(part.centers, axis=0) + 1.5
    scattered = rng.uniform(lo, hi, size=(400, n))
    side = part.index.side
    on_faces = np.floor(rng.uniform(lo, hi, size=(200, n)) / side) * side
    axis_steps = np.concatenate([np.eye(n), -np.eye(n)])
    at_radius = (part.centers[:, None, :] + part.radii[:, None, None] * axis_steps[None]).reshape(-1, n)
    return np.concatenate([scattered, on_faces, at_radius])


class TestBucketIndex:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chi_pairs_match_all_pairs(self, dim):
        part = build_partition(_dyadic_cells(dim, 40, seed=dim))
        X = _probe_points(part, seed=10 + dim)
        pairs = part.chi_pairs(X)
        idx, cell, chi = _chi_pairs_brute(part, X)
        assert np.array_equal(pairs.idx, idx)
        assert np.array_equal(pairs.cell, cell)
        assert np.array_equal(pairs.chi, chi)
        # the exact-distance points are hits with chi = 0 on the boundary
        assert np.any(chi == 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_empty_batch_and_single_cell(self, dim):
        part = build_partition(_dyadic_cells(dim, 12, seed=dim))
        pairs = part.chi_pairs(np.empty((0, dim)))
        assert len(pairs.idx) == len(pairs.cell) == len(pairs.chi) == 0
        assert len(pairs) == 12
        single = build_partition([CoverCell(nu=0, center=(0.25,) * dim, radius=0.5)])
        X = _probe_points(single, seed=dim)
        pairs = single.chi_pairs(X)
        for got, want in zip((pairs.idx, pairs.cell, pairs.chi), _chi_pairs_brute(single, X)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_colors_match_per_pair_loop(self, dim):
        cells = _dyadic_cells(dim, 60, seed=20 + dim)
        expected = _color_reference(cells)
        assert [c.color for c in color_classes(cells)] == expected

    @pytest.mark.parametrize("src, variables, center, radius, variant", [
        ("x^4", ("x",), (0.5,), 0.45, "reduced"),  # radii from 1.2e-3 to 1.3e-2
        ("x^4 + y^4", ("x", "y"), (0.1, 0.0), 0.03, "reduced"),
        ("x^2 + y^2 + z^2", ("x", "y", "z"), (3e-4, -2e-4, 1e-4), 0.015, "full"),
    ])
    def test_cover_matches_all_pairs(self, src, variables, center, radius, variant):
        f, p, region = handle(src, variables), ControlDistanceParams(0.25, variant), Ball(center, radius)
        cells = build_cover(f, p, region)
        assert [(c.center, c.radius) for c in cells] == [(c.center, c.radius) for c in _cover_brute(f, p, region)]

    def test_memory_and_keys_stay_small_over_a_wide_extent(self):
        # 1-D: cells 10^7 bucket sides apart; 3-D: a cube corner to corner, where a
        # key over the whole bounding box would need (10^7)^3 > 2^63 values
        wide = [[CoverCell(nu=k, center=(1e5 * k,), radius=0.01) for k in range(11)],
                [CoverCell(nu=k, center=tuple(1e5 * np.array(corner)), radius=0.01)
                 for k, corner in enumerate(np.ndindex(2, 2, 2))]]
        for cells in wide:
            tracemalloc.start()
            part = build_partition(cells)
            X = np.concatenate([part.centers + 0.005, part.centers + 0.02, [[5e4] * part.dim]])
            pairs = part.chi_pairs(X)
            colors = [c.color for c in color_classes(cells)]
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1_000_000
            assert 0 <= part.index.keys[0] and part.index.keys[-1] < (4 * len(cells)) ** part.dim
            for got, want in zip((pairs.idx, pairs.cell, pairs.chi), _chi_pairs_brute(part, X)):
                assert np.array_equal(got, want)
            assert np.array_equal(pairs.idx, np.arange(len(cells)))
            assert colors == [0] * len(cells)

    def test_keys_fold_where_they_could_overflow(self):
        # 8-D cells with distinct coordinates on every axis: a key mixed from the
        # coordinates' ranks would need about 240^8 > 2^62 values, so it is folded
        rng = np.random.default_rng(8)
        cells = [CoverCell(nu=k, center=tuple(c), radius=0.01)
                 for k, c in enumerate(rng.uniform(-1e3, 1e3, size=(80, 8)))]
        part = build_partition(cells)
        assert any(folded is not None for _, folded in part.index.tables)
        X = np.concatenate([part.centers + 0.003, rng.uniform(-1e3, 1e3, size=(50, 8))])
        pairs = part.chi_pairs(X)
        for got, want in zip((pairs.idx, pairs.cell, pairs.chi), _chi_pairs_brute(part, X)):
            assert np.array_equal(got, want)
        assert np.array_equal(pairs.idx, np.arange(len(cells)))

    def test_budget_fires_before_the_candidate_grid(self):
        # rho = 1 on a 3-D ball of radius 100: a grid of 80,001^3 candidates
        tracemalloc.start()
        with pytest.raises(CoverBudgetError):
            build_cover(handle("1", ("x", "y", "z")), ControlDistanceParams(0.25), Ball((0.0,) * 3, 100.0))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 10_000_000
