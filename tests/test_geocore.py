import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streetcrop.errors import DataValidationError
from streetcrop.geocore import (
    METERS_PER_DEGREE,
    BoundingBox,
    GeoPoint,
    Heading,
    ShiftParams,
    UnsupportedLatitudeError,
    geo_distance,
    make_sampling_grid,
    offset_point,
    shift_to_parcel,
)

M = METERS_PER_DEGREE


def deg_for_meters(meters, lat=0.0):
    """Degree spans that correspond to a metric extent, test-side oracle."""
    return meters / M, meters / (M * math.cos(math.radians(lat)))


class TestGeoPoint:
    def test_valid(self):
        GeoPoint(45.0, -120.0)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181)])
    def test_out_of_range(self, lat, lon):
        with pytest.raises(DataValidationError):
            GeoPoint(lat, lon)


class TestOffsetPoint:
    def test_one_degree_east_at_equator(self):
        q = offset_point(GeoPoint(0.0, 0.0), Heading.EAST, 111320.0)
        assert q.lat_deg == 0.0
        assert q.lon_deg == pytest.approx(1.0, abs=1e-12)

    def test_zero_displacement(self):
        p = GeoPoint(45.0, 10.0)
        assert offset_point(p, Heading.NORTH, 0.0) == p

    def test_cos_doubles_longitude_step(self):
        # cos(60 deg) = 0.5, so 55660 m east spans a full degree
        q = offset_point(GeoPoint(60.0, 0.0), Heading.EAST, 55660.0)
        assert q.lon_deg == pytest.approx(1.0, rel=1e-12)
        assert q.lat_deg == 60.0

    def test_only_matching_axis_changes(self):
        p = GeoPoint(10.0, 20.0)
        assert offset_point(p, Heading.NORTH, 100).lon_deg == p.lon_deg
        assert offset_point(p, Heading.SOUTH, 100).lon_deg == p.lon_deg
        assert offset_point(p, Heading.EAST, 100).lat_deg == p.lat_deg
        assert offset_point(p, Heading.WEST, 100).lat_deg == p.lat_deg

    def test_polar_latitudes_rejected(self):
        with pytest.raises(UnsupportedLatitudeError):
            offset_point(GeoPoint(86.0, 0.0), Heading.EAST, 10.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(DataValidationError):
            offset_point(GeoPoint(0.0, 0.0), Heading.EAST, -1.0)


class TestGeoDistance:
    def test_identity(self):
        p = GeoPoint(12.0, 34.0)
        assert geo_distance(p, p) == 0.0

    def test_one_degree_longitude_at_equator(self):
        assert geo_distance(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(111320.0)

    def test_offset_round_trip(self):
        p = GeoPoint(35.5, -119.3)
        q = offset_point(p, Heading.EAST, 500.0)
        assert geo_distance(p, q) == pytest.approx(500.0, abs=0.01)


@given(
    lat=st.floats(-70, 70),
    lon=st.floats(-179, 179),
    heading=st.sampled_from(list(Heading)),
    d=st.floats(0, 1000),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(lat, lon, heading, d):
    p = GeoPoint(lat, lon)
    q = offset_point(p, heading, d)
    assert geo_distance(p, q) == pytest.approx(d, rel=1e-6, abs=1e-6)


@given(
    lat=st.floats(-70, 70),
    lon=st.floats(-179, 179),
    heading=st.sampled_from(list(Heading)),
    d=st.floats(0, 1000),
)
@settings(max_examples=200, deadline=None)
def test_inverse_headings_cancel(lat, lon, heading, d):
    opposite = {
        Heading.NORTH: Heading.SOUTH,
        Heading.SOUTH: Heading.NORTH,
        Heading.EAST: Heading.WEST,
        Heading.WEST: Heading.EAST,
    }[heading]
    p = GeoPoint(lat, lon)
    back = offset_point(offset_point(p, heading, d), opposite, d)
    assert back.lat_deg == pytest.approx(p.lat_deg, abs=1e-9)
    assert back.lon_deg == pytest.approx(p.lon_deg, abs=1e-9)


class TestShiftToParcel:
    def test_half_road_plus_pixel(self):
        p = GeoPoint(0.0, 0.0)
        sp = ShiftParams(road_width_y_m=12.0, pixel_size_x_m=30.0)
        q = shift_to_parcel(p, Heading.EAST, sp)
        assert geo_distance(p, q) == pytest.approx(0.5 * 12 + 30, abs=1e-2)

    def test_extra_steps_walk_further(self):
        p = GeoPoint(0.0, 0.0)
        sp = ShiftParams(12.0, 30.0, extra_steps=2)
        assert geo_distance(p, shift_to_parcel(p, Heading.NORTH, sp)) == pytest.approx(
            96.0, abs=1e-2
        )

    def test_zero_road_width(self):
        p = GeoPoint(0.0, 0.0)
        sp = ShiftParams(0.0, 10.0)
        assert geo_distance(p, shift_to_parcel(p, Heading.SOUTH, sp)) == pytest.approx(
            10.0, abs=1e-2
        )

    def test_displacement_strictly_monotone_in_extra_steps(self):
        p = GeoPoint(5.0, 5.0)
        distances = [
            geo_distance(p, shift_to_parcel(p, Heading.WEST, ShiftParams(12, 30, k)))
            for k in range(5)
        ]
        assert all(b > a for a, b in zip(distances, distances[1:]))

    def test_bad_params_rejected(self):
        with pytest.raises(DataValidationError):
            ShiftParams(-1.0, 30.0)
        with pytest.raises(DataValidationError):
            ShiftParams(12.0, 0.0)


class TestSamplingGrid:
    def test_minimal_grid_is_four_corners(self):
        dlat, dlon = deg_for_meters(30.0)
        bbox = BoundingBox(0.0, dlat, 0.0, dlon)
        points = make_sampling_grid(bbox, 30.0)
        assert len(points) == 4

    def test_count_matches_floor_rule(self):
        # 90 m x 90 m at 30 m spacing: floor(90/30)+1 = 4 per axis
        dlat, dlon = deg_for_meters(90.0)
        bbox = BoundingBox(0.0, dlat, 0.0, dlon)
        assert len(make_sampling_grid(bbox, 30.0)) == 16

    def test_doubling_spacing_halves_each_axis(self):
        dlat, dlon = deg_for_meters(300.0)
        bbox = BoundingBox(0.0, dlat, 0.0, dlon)
        n30 = round(math.sqrt(len(make_sampling_grid(bbox, 30.0))))
        n60 = round(math.sqrt(len(make_sampling_grid(bbox, 60.0))))
        assert abs(n30 - 2 * n60) <= 1

    def test_row_major_from_north_west(self):
        dlat, dlon = deg_for_meters(60.0)
        bbox = BoundingBox(0.0, dlat, 0.0, dlon)
        points = make_sampling_grid(bbox, 30.0)
        assert points[0].lat_deg == pytest.approx(bbox.max_lat_deg)
        assert points[0].lon_deg == pytest.approx(bbox.min_lon_deg)
        assert points[1].lat_deg == points[0].lat_deg
        assert points[1].lon_deg > points[0].lon_deg
        assert points[3].lat_deg < points[0].lat_deg

    def test_all_points_inside_bbox(self):
        bbox = BoundingBox(35.0, 35.013, -119.0, -118.985)
        for p in make_sampling_grid(bbox, 47.0):
            assert bbox.min_lat_deg <= p.lat_deg <= bbox.max_lat_deg
            assert bbox.min_lon_deg <= p.lon_deg <= bbox.max_lon_deg

    def test_adjacent_spacing_matches(self):
        bbox = BoundingBox(35.0, 35.01, -119.0, -118.99)
        points = make_sampling_grid(bbox, 50.0)
        ncols = len({p.lon_deg for p in points})
        # column step, converted at the grid's own reference latitude
        cos_mid = math.cos(math.radians(bbox.mid_lat_deg))
        east_m = (points[1].lon_deg - points[0].lon_deg) * M * cos_mid
        assert east_m == pytest.approx(50.0, rel=1e-6)
        assert geo_distance(points[0], points[ncols]) == pytest.approx(50.0, rel=1e-6)

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(DataValidationError):
            BoundingBox(1.0, 1.0, 0.0, 1.0)

    def test_spacing_bounds(self):
        bbox = BoundingBox(0.0, 0.01, 0.0, 0.01)
        with pytest.raises(DataValidationError):
            make_sampling_grid(bbox, 0.5)
        with pytest.raises(DataValidationError):
            make_sampling_grid(bbox, 20000.0)
