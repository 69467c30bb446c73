import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsdeploy import synth
from emsdeploy.errors import ConfigError, DataError, OutOfBoundsError
from emsdeploy.geogrid import (
    MatrixProvider,
    SyntheticSpeedProvider,
    assign_cell,
    assign_cells,
    build_grid,
    derive_adjacency,
    derive_coverage,
    derive_region_ball,
    haversine_km,
    load_grid,
    load_travel_matrix,
    save_grid,
    save_travel_matrix,
    synthetic_travel_time,
)
from oracles import haversine_km_alt, reference_assign_cell

BOUNDS = (30.0, 30.5, -97.9, -97.4)


def test_single_cell_grid():
    g = build_grid(BOUNDS, 1, 1, SyntheticSpeedProvider(40.0))
    assert g.n_cells == 1
    assert g.travel_time_s.shape == (1, 1)
    assert g.travel_time_s[0, 0] == 0.0
    assert g.cell_centers[0] == (30.25, -97.65)


def test_2x2_travel_matches_hand_haversine():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(60.0))
    t = g.travel_time_s
    assert np.allclose(t, t.T)
    assert np.all(np.diag(t) == 0.0)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            la, lo = g.cell_centers[a]
            lb, lob = g.cell_centers[b]
            expect = haversine_km_alt(la, lo, lb, lob) / 60.0 * 3600.0
            assert t[a, b] == pytest.approx(expect, rel=1e-9)


def test_degenerate_bounds_rejected():
    with pytest.raises(ConfigError):
        build_grid((30.0, 30.0, -97.9, -97.4), 2, 2, SyntheticSpeedProvider(40.0))
    with pytest.raises(ConfigError):
        build_grid((30.0, 30.5, -97.4, -97.4), 2, 2, SyntheticSpeedProvider(40.0))


@pytest.mark.parametrize("bounds", [
    (1, 2), (30.0, 30.5, -97.9), (30.0, 30.5, -97.9, -97.4, 0.0), 5, ("30", 30.5, -97.9, -97.4),
    (True, 30.5, -97.9, -97.4), (math.nan, 30.5, -97.9, -97.4), (30.0, math.inf, -97.9, -97.4),
    (30.5, 30.0, -97.9, -97.4), (30.0, 30.5, -97.4, -97.4),
])
def test_load_grid_refuses_bounds_that_are_not_four_ordered_finite_numbers(tmp_path, bounds):
    path = tmp_path / "grid.json"
    save_grid(build_grid(BOUNDS, 1, 2, SyntheticSpeedProvider(40.0)), path)
    doc = json.loads(path.read_text())
    doc["bounds"] = bounds  # json writes nan and inf as NaN and Infinity, and reads them back
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="grid.json: not a grid file"):
        load_grid(path)


def test_build_grid_refuses_non_finite_bounds():
    with pytest.raises(ConfigError, match="four finite numbers"):
        build_grid((30.0, math.nan, -97.9, -97.4), 2, 2, SyntheticSpeedProvider(40.0))


def test_synthetic_travel_time_basics():
    a = (0.0, 0.0)
    assert synthetic_travel_time(a, a, 60.0) == 0.0
    # one km east along the equator
    b = (0.0, math.degrees(1.0 / 6371.0))
    assert synthetic_travel_time(a, b, 60.0) == pytest.approx(60.0, rel=1e-9)
    with pytest.raises(ConfigError):
        synthetic_travel_time(a, b, 0.0)


def test_haversine_against_alternative_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lat1, lat2 = rng.uniform(-80, 80, 2)
        lon1, lon2 = rng.uniform(-179, 179, 2)
        ours = haversine_km((lat1, lon1), (lat2, lon2))
        theirs = haversine_km_alt(lat1, lon1, lat2, lon2)
        assert ours == pytest.approx(theirs, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("n", [6, 12])
def test_synthetic_matrix_is_per_pair_travel_time(n):
    cfg = synth.SynthConfig(n_rows=n, n_cols=n)
    grid = synth.synth_grid(cfg)
    c = grid.cell_centers
    want = np.array([[synthetic_travel_time(a, b, cfg.speed_kmh) for b in c] for a in c])
    assert np.array_equal(grid.travel_time_s, want)


def test_assign_cell_centers_map_to_self():
    g = build_grid(BOUNDS, 4, 5, SyntheticSpeedProvider(40.0))
    for j, (lat, lon) in enumerate(g.cell_centers):
        assert assign_cell(g, lat, lon) == j


def test_assign_cell_corner_tie_goes_to_larger_indices():
    g = build_grid((0.0, 2.0, 0.0, 2.0), 2, 2, SyntheticSpeedProvider(40.0))
    # the shared interior corner of all four cells
    assert assign_cell(g, 1.0, 1.0) == g.cell_index(1, 1)
    # outer max corner clamps to the last cell
    assert assign_cell(g, 2.0, 2.0) == g.cell_index(1, 1)


def test_assign_cell_matches_chebyshev_nearest_center():
    g = build_grid(BOUNDS, 5, 4, SyntheticSpeedProvider(40.0))
    h, w = g.cell_height_deg, g.cell_width_deg
    rng = np.random.default_rng(11)
    for _ in range(200):
        lat = rng.uniform(BOUNDS[0], BOUNDS[1])
        lon = rng.uniform(BOUNDS[2], BOUNDS[3])
        got = assign_cell(g, lat, lon)
        dists = [
            max(abs(lat - clat) / h, abs(lon - clon) / w)
            for clat, clon in g.cell_centers
        ]
        assert got == int(np.argmin(dists))


def test_assign_cell_snap_and_out_of_bounds():
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0))
    below = BOUNDS[0] - 0.5 * g.cell_height_deg
    assert assign_cell(g, below, -97.5, snap_cells=1.0) == assign_cell(g, BOUNDS[0], -97.5)
    with pytest.raises(OutOfBoundsError):
        assign_cell(g, below, -97.5, snap_cells=0.0)


@pytest.mark.parametrize("lat, lon", [
    (math.nan, -97.5), (30.2, math.nan), (math.inf, -97.5), (30.2, -math.inf),
])
def test_assign_cell_non_finite_is_out_of_bounds(lat, lon):
    g = build_grid(BOUNDS, 2, 2, SyntheticSpeedProvider(40.0))
    with pytest.raises(OutOfBoundsError, match="beyond snap tolerance"):
        assign_cell(g, lat, lon, snap_cells=1.0)
    cells, inside = assign_cells(g, [lat, 30.2], [lon, -97.5], snap_cells=1.0)
    assert inside.tolist() == [False, True]
    assert cells.tolist() == [-1, assign_cell(g, 30.2, -97.5)]


@st.composite
def grids_and_points(draw):
    """A small grid and points on its edges: interior boundaries, the max
    bounds, the snap band, beyond it, and non-finite coordinates."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    min_lat = draw(st.floats(-60, 60))
    min_lon = draw(st.floats(-170, 170))
    bounds = (min_lat, min_lat + draw(st.floats(0.01, 2.0)), min_lon, min_lon + draw(st.floats(0.01, 2.0)))
    g = build_grid(bounds, n_rows, n_cols, MatrixProvider(np.zeros((n_rows * n_cols,) * 2)))
    snap = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))

    def coord(lo, hi, n):
        step = (hi - lo) / n
        return st.one_of(
            st.floats(lo - 3 * step, hi + 3 * step),  # inside, in the snap band, or beyond
            st.integers(0, n).map(lambda k: lo + k * step),  # an interior boundary or a bound
            st.sampled_from([lo, hi, lo - snap * step, hi + snap * step]),  # exactly on an edge
            st.sampled_from([math.nan, math.inf, -math.inf]),
        )

    lat = coord(bounds[0], bounds[1], n_rows)
    lon = coord(bounds[2], bounds[3], n_cols)
    points = draw(st.lists(st.tuples(lat, lon), min_size=1, max_size=30))
    return g, snap, points


@settings(max_examples=300, deadline=None)
@given(grids_and_points())
def test_assign_cells_matches_assign_cell(case):
    g, snap, points = case
    cells, inside = assign_cells(g, [p[0] for p in points], [p[1] for p in points], snap)
    for (lat, lon), cell, ok in zip(points, cells.tolist(), inside.tolist()):
        expected = reference_assign_cell(g, lat, lon, snap)
        assert ok == (expected is not None)
        if ok:
            assert cell == expected == assign_cell(g, lat, lon, snap)
        else:
            assert cell == -1
            with pytest.raises(OutOfBoundsError):
                assign_cell(g, lat, lon, snap)


def test_travel_matrix_roundtrip(tmp_path):
    g = build_grid(BOUNDS, 3, 3, SyntheticSpeedProvider(45.0))
    path = tmp_path / "travel.csv"
    save_travel_matrix(g.travel_time_s, path)
    loaded = load_travel_matrix(path)
    assert np.array_equal(loaded, g.travel_time_s)


def test_travel_matrix_parse_errors(tmp_path):
    one = tmp_path / "one.csv"
    one.write_text("0\n")
    assert load_travel_matrix(one).tolist() == [[0.0]]

    neg = tmp_path / "neg.csv"
    neg.write_text("0,5\n-1,0\n")
    with pytest.raises(DataError, match="row 1, col 0"):
        load_travel_matrix(neg)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1\n1,0,2\n")
    with pytest.raises(DataError, match="not square"):
        load_travel_matrix(ragged)

    words = tmp_path / "words.csv"
    words.write_text("0,abc\n1,0\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_travel_matrix(words)


def test_matrix_provider_dimension_check():
    provider = MatrixProvider(np.zeros((2, 2)))
    with pytest.raises(DataError):
        build_grid(BOUNDS, 2, 2, provider)


def test_grid_json_roundtrip(tmp_path):
    g = build_grid(BOUNDS, 2, 3, SyntheticSpeedProvider(40.0), station_cells=[1, 4], hospital_cells=[2])
    path = tmp_path / "grid.json"
    save_grid(g, path)
    loaded = load_grid(path)
    assert loaded.n_rows == 2 and loaded.n_cols == 3
    assert loaded.station_cells == [1, 4]
    assert loaded.hospital_cells == [2]
    assert np.array_equal(loaded.travel_time_s, g.travel_time_s)
    assert loaded.cell_centers == g.cell_centers


def test_adjacency_lattice_structure():
    g = build_grid(BOUNDS, 3, 3, SyntheticSpeedProvider(40.0))
    adj = derive_adjacency(g)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj))
    center = g.cell_index(1, 1)
    assert adj[center].sum() == 9  # all cells including itself
    corner = g.cell_index(0, 0)
    assert adj[corner].sum() == 4  # itself + 3 neighbors


def test_adjacency_matches_center_distance_bruteforce():
    for rows, cols in [(1, 1), (2, 3), (4, 4), (5, 5)]:
        g = build_grid(BOUNDS, rows, cols, SyntheticSpeedProvider(40.0))
        adj = derive_adjacency(g)
        h, w = g.cell_height_deg, g.cell_width_deg
        for a in range(g.n_cells):
            for b in range(g.n_cells):
                la, lo = g.cell_centers[a]
                lb, lob = g.cell_centers[b]
                near = abs(la - lb) <= 1.5 * h and abs(lo - lob) <= 1.5 * w
                assert adj[a, b] == near


def test_coverage_thresholds():
    g = build_grid(BOUNDS, 1, 1, SyntheticSpeedProvider(40.0), station_cells=[0])
    cov = derive_coverage(g, 600.0)
    assert cov.tolist() == [[True]]

    g3 = build_grid(BOUNDS, 3, 3, SyntheticSpeedProvider(40.0), station_cells=[4])
    zero = derive_coverage(g3, 0.0)
    assert zero.sum() == 1 and zero[0, 4]


def test_coverage_monotone_in_threshold():
    g = build_grid(BOUNDS, 3, 3, SyntheticSpeedProvider(40.0), station_cells=[0, 4])
    small = derive_coverage(g, 200.0)
    big = derive_coverage(g, 900.0)
    assert np.all(small <= big)


def test_region_ball_contains_self():
    g = build_grid(BOUNDS, 3, 3, SyntheticSpeedProvider(40.0))
    ball = derive_region_ball(g, 300.0)
    assert np.all(np.diag(ball))
