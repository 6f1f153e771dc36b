import math

import numpy as np
import pytest

from sphgreen.geometry import (
    HyperPoint,
    embed,
    geodesic_distance,
    separation_angle,
    volume_weight,
)
from sphgreen.oracle import box_volume, hypersphere_volume, random_hyperpoint


class TestHyperPointValidation:
    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            HyperPoint(1, 1.0, 0.5, ())

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            HyperPoint(2, 0.0, 0.5, (0.0,))

    def test_rejects_infinite_radius(self):
        # geodesic_distance would be nan and embed all inf
        with pytest.raises(ValueError, match="radius must be finite"):
            HyperPoint(3, math.inf, 0.5, (1.0, 1.0))

    def test_rejects_polar_out_of_range(self):
        with pytest.raises(ValueError):
            HyperPoint(2, 1.0, -0.1, (0.0,))

    def test_rejects_wrong_direction_count(self):
        with pytest.raises(ValueError):
            HyperPoint(3, 1.0, 0.5, (0.0,))

    def test_rejects_azimuth_out_of_range(self):
        with pytest.raises(ValueError):
            HyperPoint(2, 1.0, 0.5, (7.0,))

    def test_rejects_direction_angle_out_of_range(self):
        with pytest.raises(ValueError):
            HyperPoint(3, 1.0, 0.5, (0.0, 3.5))

    def test_rejects_float_dimension(self):
        with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
            HyperPoint(3.0, 1.0, 0.5, (0.1, 0.2))

    def test_fields_are_converted_and_printed(self):
        p = HyperPoint(3, 1, 0, [0, 1])
        assert [type(v) for v in p] == [int, float, float, tuple]
        assert [type(a) for a in p.direction] == [float, float]
        assert repr(HyperPoint(3, 1, 0.5, (0.1, 0.2))) == (
            "HyperPoint(dimension=3, radius=1.0, polar=0.5, direction=(0.1, 0.2))")

    def test_fields_are_immutable_and_replace_checks(self):
        p = HyperPoint(3, 1.0, 0.5, (0.1, 0.2))
        for name in p._fields:
            with pytest.raises(AttributeError):
                setattr(p, name, getattr(p, name))
        assert p._replace(polar=1.0) == (3, 1.0, 1.0, (0.1, 0.2))
        with pytest.raises(ValueError, match="polar angle"):
            p._replace(polar=4.0)
        with pytest.raises(ValueError, match="azimuth"):
            p._replace(direction=(7.0, 0.2))

    def test_post_init_runs_once_per_construction(self, monkeypatch):
        # the benchmark tracer counts points through this hook
        seen = []
        checks = HyperPoint.__post_init__

        def counted(point):
            seen.append(point)
            checks(point)

        monkeypatch.setattr(HyperPoint, "__post_init__", counted)
        points = [HyperPoint(3, 1.0, 0.5, (0.1, 0.2)), HyperPoint(2, 2.0, 1.0, (0.3,))]
        points.append(points[0]._replace(polar=0.7))
        assert seen == points
        with pytest.raises(ValueError, match="azimuth"):
            HyperPoint(2, 1.0, 0.5, (7.0,))
        assert len(seen) == 4


class TestEmbed:
    def test_origin(self):
        for d in (2, 3, 5):
            p = HyperPoint(d, 2.0, 0.0, (0.3,) + (0.7,) * (d - 2))
            x = embed(p)
            assert x[0] == pytest.approx(2.0)
            np.testing.assert_allclose(x[1:], 0.0, atol=1e-15)

    def test_equator_point_d2(self):
        x = embed(HyperPoint(2, 1.0, math.pi / 2.0, (0.0,)))
        np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-15)

    def test_rows_match_scalar_embed(self):
        from sphgreen.geometry import _embed_rows

        rng = np.random.default_rng(11)
        for d in range(2, 8):
            points = [random_hyperpoint(rng, d, rng.uniform(0.5, 4.0)) for _ in range(100)]
            rows = _embed_rows(np.array([p.radius for p in points]),
                               np.array([p.polar for p in points]),
                               np.array([p.direction for p in points]))
            for row, p in zip(rows, points):
                want = embed(p)
                assert np.all(np.abs(row - want) <= np.spacing(np.abs(want)))

    def test_direction_is_the_unit_block(self):
        # at theta = pi/2 and R = 1 the block after x0 is the direction's unit vector,
        # so two blocks meet at the directions' separation angle
        u, v = (0.4, 1.1, 2.0), (2.5, 0.3, 1.2)
        xu, xv = (embed(HyperPoint(4, 1.0, math.pi / 2.0, w))[1:] for w in (u, v))
        assert float(np.linalg.norm(xu)) == pytest.approx(1.0, rel=1e-15)
        assert math.acos(float(xu @ xv)) == pytest.approx(separation_angle(u, v), rel=1e-12)

    def test_norm_is_radius(self):
        rng = np.random.default_rng(7)
        for d in range(2, 7):
            for _ in range(1000):
                p = random_hyperpoint(rng, d, rng.uniform(0.5, 4.0))
                norm = float(np.linalg.norm(embed(p)))
                assert abs(norm - p.radius) / p.radius <= 1e-12


class TestSeparationAngle:
    def test_identical_directions(self):
        assert separation_angle((0.4, 1.1, 2.0), (0.4, 1.1, 2.0)) == pytest.approx(0.0, abs=1e-7)

    def test_circle_case(self):
        for phi, phip in ((0.3, 1.7), (5.0, 0.2)):
            got = separation_angle((phi,), (phip,))
            assert got == pytest.approx(math.acos(math.cos(phi - phip)), rel=1e-12)

    def test_matches_ambient_dot_product(self):
        rng = np.random.default_rng(11)
        for d in range(2, 7):
            for _ in range(200):
                a = random_hyperpoint(rng, d, 1.0)
                b = random_hyperpoint(rng, d, 1.0)
                gamma = separation_angle(a.direction, b.direction)
                ua = embed(HyperPoint(d, 1.0, math.pi / 2.0, a.direction))[1:]
                ub = embed(HyperPoint(d, 1.0, math.pi / 2.0, b.direction))[1:]
                oracle = math.acos(min(1.0, max(-1.0, float(ua @ ub))))
                assert abs(gamma - oracle) <= 1e-12

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            separation_angle((0.1,), (0.1, 0.2))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_angle_rejected(self, which, position):
        # clamping a NaN cosine to -1 would report the directions as antipodal
        pair = [[0.3, 1.1, 2.0], [0.7, 0.4, 1.5]]
        pair[which][position] = math.nan
        with pytest.raises(ValueError, match="direction angles must be finite, got .*nan"):
            separation_angle(tuple(pair[0]), tuple(pair[1]))
        if position == 0:
            with pytest.raises(ValueError, match="must be finite"):
                separation_angle((pair[0][0],), (pair[1][0],))

    @pytest.mark.parametrize("angle", [math.inf, -math.inf])
    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("position", [0, 2])
    def test_infinite_angle_rejected_naming_both_tuples(self, angle, which, position):
        # math.cos(inf) raises "math domain error", which names neither input
        pair = [[0.3, 1.1, 2.0], [0.7, 0.4, 1.5]]
        pair[which][position] = angle
        u, v = tuple(pair[0]), tuple(pair[1])
        with pytest.raises(ValueError) as caught:
            separation_angle(u, v)
        assert str(caught.value) == f"direction angles must be finite, got {u} and {v}"
        if position == 0:
            u, v = (pair[0][0],), (pair[1][0],)
            with pytest.raises(ValueError) as caught:
                separation_angle(u, v)
            assert str(caught.value) == f"direction angles must be finite, got {u} and {v}"


class TestGeodesicDistance:
    def test_coincident_points(self):
        p = HyperPoint(3, 2.0, 0.8, (1.0, 0.5))
        assert geodesic_distance(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_antipodal_points(self):
        a = HyperPoint(2, 1.5, 0.3, (1.0,))
        b = HyperPoint(2, 1.5, math.pi - 0.3, (1.0 + math.pi,))
        assert geodesic_distance(a, b) == pytest.approx(1.5 * math.pi, rel=1e-12)

    def test_quarter_turn(self):
        a = HyperPoint(3, 2.0, math.pi / 2.0, (0.0, math.pi / 2.0))
        b = HyperPoint(3, 2.0, math.pi / 2.0, (math.pi / 2.0, math.pi / 2.0))
        assert geodesic_distance(a, b) == pytest.approx(math.pi, rel=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(2, 6))
            radius = rng.uniform(0.5, 3.0)
            a = random_hyperpoint(rng, d, radius)
            b = random_hyperpoint(rng, d, radius)
            dist = geodesic_distance(a, b)
            assert geodesic_distance(b, a) == dist
            assert 0.0 <= dist <= math.pi * radius + 1e-12

    def test_polar_form_matches_embedding(self):
        rng = np.random.default_rng(17)
        for d in range(2, 7):
            for _ in range(200):
                radius = rng.uniform(0.5, 3.0)
                a = random_hyperpoint(rng, d, radius)
                b = random_hyperpoint(rng, d, radius)
                inner = float(embed(a) @ embed(b)) / radius**2
                oracle = radius * math.acos(min(1.0, max(-1.0, inner)))
                assert abs(geodesic_distance(a, b) - oracle) <= 1e-10

    def test_mixed_spheres_rejected(self):
        a = HyperPoint(2, 1.0, 0.5, (0.0,))
        with pytest.raises(ValueError):
            geodesic_distance(a, HyperPoint(3, 1.0, 0.5, (0.0, 0.5)))
        with pytest.raises(ValueError):
            geodesic_distance(a, HyperPoint(2, 2.0, 0.5, (0.0,)))


class TestVolumeWeight:
    def test_circle_weight(self):
        for theta in (0.3, 1.2, 2.5):
            p = HyperPoint(2, 1.0, theta, (0.0,))
            assert volume_weight(p) == pytest.approx(math.sin(theta), rel=1e-15)

    def test_vanishes_at_pole(self):
        assert volume_weight(HyperPoint(4, 1.0, 0.0, (0.1, 0.2, 0.3))) == 0.0

    def test_three_sphere_radius_two(self):
        p = HyperPoint(3, 2.0, 0.7, (0.3, 1.1))
        expected = 8.0 * math.sin(0.7) ** 2 * math.sin(1.1)
        assert volume_weight(p) == pytest.approx(expected, rel=1e-14)
        total = box_volume(3, 2.0)
        assert total == pytest.approx(2.0 * math.pi**2 * 8.0, rel=1e-9)

    def test_weight_past_double_range(self):
        # R^d alone overflows a double at d = 400, R = 10
        from mpmath import mp, mpf

        p = HyperPoint(400, 10.0, 0.3, (0.0,) + (math.pi / 2,) * 398)
        with mp.workdps(40):
            want = mpf(10) ** 400 * mp.sin(mpf(0.3)) ** 399
            for k, ang in enumerate(p.direction[1:], start=2):
                want *= mp.sin(mpf(ang)) ** (k - 1)
        assert abs(volume_weight(p) / want - 1) <= 1e-12

    def test_box_volume_past_double_range(self):
        from mpmath import mp, mpf

        with mp.workdps(40):
            half = mpf(401) / 2
            want = 2 * mp.pi**half * mpf(10) ** 400 / mp.gamma(half)
        assert abs(box_volume(400, 10.0) / want - 1) <= 1e-9

    def test_box_integral_matches_known_volumes(self):
        for d in (2, 3, 4):
            total = box_volume(d, 1.0)
            expected = hypersphere_volume(d, 1.0)
            assert abs(total - expected) / expected <= 1e-6
