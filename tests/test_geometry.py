import math
import operator
import random

import pytest

from sphgreen.geometry import (
    HyperPoint,
    embed,
    geodesic_distance,
    separation_angle,
)
from sphgreen.oracle import box_volume, hypersphere_volume, random_hyperpoint


def dot(x, y):
    return math.fsum(map(operator.mul, x, y))


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
            assert type(x) is tuple and len(x) == d + 1
            assert x[0] == pytest.approx(2.0)
            assert all(abs(v) <= 1e-15 for v in x[1:])

    def test_equator_point_d2(self):
        x = embed(HyperPoint(2, 1.0, math.pi / 2.0, (0.0,)))
        assert x == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_rows_match_scalar_embed(self):
        # each coordinate against a 40-digit embedding of the same angles, within
        # 4 ulp of R (measured: 1.4 ulp)
        from mpmath import mp, mpf

        rng = random.Random(11)
        for d in range(2, 8):
            for _ in range(100):
                p = random_hyperpoint(rng, d, rng.uniform(0.5, 4.0))
                with mp.workdps(40):
                    sin_prod = mpf(p.radius) * mp.sin(p.polar)
                    want = [mpf(p.radius) * mp.cos(p.polar)]
                    for angle in reversed(p.direction[1:]):
                        want.append(sin_prod * mp.cos(angle))
                        sin_prod *= mp.sin(angle)
                    want += [sin_prod * mp.cos(p.direction[0]), sin_prod * mp.sin(p.direction[0])]
                    assert all(abs(got - x) <= 4 * math.ulp(p.radius)
                               for got, x in zip(embed(p), want, strict=True)), p

    def test_direction_is_the_unit_block(self):
        # at theta = pi/2 and R = 1 the block after x0 is the direction's unit vector,
        # so two blocks meet at the directions' separation angle
        u, v = (0.4, 1.1, 2.0), (2.5, 0.3, 1.2)
        xu, xv = (embed(HyperPoint(4, 1.0, math.pi / 2.0, w))[1:] for w in (u, v))
        assert math.hypot(*xu) == pytest.approx(1.0, rel=1e-15)
        assert math.acos(dot(xu, xv)) == pytest.approx(separation_angle(u, v), rel=1e-12)

    def test_norm_is_radius(self):
        rng = random.Random(7)
        for d in range(2, 7):
            for _ in range(1000):
                p = random_hyperpoint(rng, d, rng.uniform(0.5, 4.0))
                norm = math.hypot(*embed(p))
                assert abs(norm - p.radius) / p.radius <= 1e-12


class TestSeparationAngle:
    def test_identical_directions(self):
        assert separation_angle((0.4, 1.1, 2.0), (0.4, 1.1, 2.0)) == pytest.approx(0.0, abs=1e-7)

    def test_circle_case(self):
        for phi, phip in ((0.3, 1.7), (5.0, 0.2)):
            got = separation_angle((phi,), (phip,))
            assert got == pytest.approx(math.acos(math.cos(phi - phip)), rel=1e-12)

    def test_matches_ambient_dot_product(self):
        rng = random.Random(11)
        for d in range(2, 7):
            for _ in range(200):
                a = random_hyperpoint(rng, d, 1.0)
                b = random_hyperpoint(rng, d, 1.0)
                gamma = separation_angle(a.direction, b.direction)
                ua = embed(HyperPoint(d, 1.0, math.pi / 2.0, a.direction))[1:]
                ub = embed(HyperPoint(d, 1.0, math.pi / 2.0, b.direction))[1:]
                oracle = math.acos(min(1.0, max(-1.0, dot(ua, ub))))
                assert abs(gamma - oracle) <= 1e-12

    def test_no_angles_rejected(self):
        with pytest.raises(ValueError, match="^need at least the azimuth angle$"):
            separation_angle((), ())

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
        rng = random.Random(13)
        for _ in range(300):
            d = rng.randint(2, 5)
            radius = rng.uniform(0.5, 3.0)
            a = random_hyperpoint(rng, d, radius)
            b = random_hyperpoint(rng, d, radius)
            dist = geodesic_distance(a, b)
            assert geodesic_distance(b, a) == dist
            assert 0.0 <= dist <= math.pi * radius + 1e-12

    def test_polar_form_matches_embedding(self):
        rng = random.Random(17)
        for d in range(2, 7):
            for _ in range(200):
                radius = rng.uniform(0.5, 3.0)
                a = random_hyperpoint(rng, d, radius)
                b = random_hyperpoint(rng, d, radius)
                inner = dot(embed(a), embed(b)) / radius**2
                oracle = radius * math.acos(min(1.0, max(-1.0, inner)))
                assert abs(geodesic_distance(a, b) - oracle) <= 1e-10

    def test_mixed_spheres_rejected(self):
        a = HyperPoint(2, 1.0, 0.5, (0.0,))
        with pytest.raises(ValueError):
            geodesic_distance(a, HyperPoint(3, 1.0, 0.5, (0.0, 0.5)))
        with pytest.raises(ValueError):
            geodesic_distance(a, HyperPoint(2, 2.0, 0.5, (0.0,)))


class TestVolumeWeight:
    """The volume measure summed over the coordinate box (``box_volume``)."""

    def test_three_sphere_radius_two(self):
        total = box_volume(3, 2.0)
        assert total == pytest.approx(2.0 * math.pi**2 * 8.0, rel=1e-9)

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
