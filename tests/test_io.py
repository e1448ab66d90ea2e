"""Ensemble and density serialization round trips."""
import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from skewdiff import DriftSpec, SimConfig, TimeGrid, density_grid, simulate, \
    simulate_bivariate_censoring, simulate_mixture, constant_skew_family, \
    constant_skew_tpd
from skewdiff import _floatfmt
from skewdiff.densities import DensityGrid
from skewdiff.sde import PathEnsemble
from skewdiff.io import (_HEADER, _csv_rows, columns_to_csv, density_grid_summary,
                         density_grid_to_csv, ensemble_from_binary,
                         ensemble_to_binary, ensemble_to_csv, write_json)

ZERO = DriftSpec(mu_fn=lambda x, t: np.zeros_like(x))


@pytest.fixture()
def small_ensemble():
    return simulate(ZERO, 0.5, TimeGrid(0.0, 1.0, 20),
                    SimConfig(n_paths=13, seed=17, record_stride=4))


@pytest.fixture()
def labeled_ensemble():
    return simulate_mixture(DriftSpec(family=constant_skew_family(1.0, +1)), 0.5, 0.0,
                            TimeGrid(0.0, 1.0, 20),
                            SimConfig(n_paths=10, seed=19, record_stride=4))


class TestBinaryRoundTrip:
    def test_values_exact(self, small_ensemble, tmp_path):
        p = tmp_path / "ens.skdf"
        ensemble_to_binary(small_ensemble, p)
        back = ensemble_from_binary(p)
        assert np.array_equal(back.values, small_ensemble.values)
        assert back.seed == small_ensemble.seed
        assert back.record_stride == small_ensemble.record_stride
        assert np.array_equal(back.times, small_ensemble.times)
        assert back.labels is None

    def test_labels_preserved(self, labeled_ensemble, tmp_path):
        p = tmp_path / "ens.skdf"
        ensemble_to_binary(labeled_ensemble, p)
        back = ensemble_from_binary(p)
        assert np.array_equal(back.labels, labeled_ensemble.labels)

    def test_magic_guard(self, tmp_path):
        p = tmp_path / "junk.skdf"
        p.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ValueError):
            ensemble_from_binary(p)

    def test_wrong_version_rejected(self, small_ensemble, tmp_path):
        p = tmp_path / "ens.skdf"
        ensemble_to_binary(small_ensemble, p)
        raw = bytearray(p.read_bytes())
        raw[4:6] = (2).to_bytes(2, "little")    # the u16 after the magic
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported ensemble version 2"):
            ensemble_from_binary(p)

    def test_times_off_the_header_grid_rejected(self, small_ensemble, tmp_path):
        p = tmp_path / "ens.skdf"
        ensemble_to_binary(small_ensemble, p)
        raw = bytearray(p.read_bytes())
        # the stored times follow the header; move the second one by 1e-9
        at = _HEADER.size + 8
        stored = np.frombuffer(raw, "<f8", count=1, offset=at)[0]
        raw[at:at + 8] = np.array([stored + 1e-9], "<f8").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="inconsistent time grid in binary file"):
            ensemble_from_binary(p)

    @pytest.mark.parametrize("labels", [False, True])
    def test_truncated_file_names_itself(self, small_ensemble, labeled_ensemble,
                                         tmp_path, labels):
        # shorter than the header, then shorter than the payload it declares
        p = tmp_path / "ens.skdf"
        ensemble_to_binary(labeled_ensemble if labels else small_ensemble, p)
        raw = p.read_bytes()
        for size, what in ((10, "header"), (len(raw) - 8, "declares"), (len(raw) - 1, "declares")):
            p.write_bytes(raw[:size])
            with pytest.raises(ValueError, match=what) as err:
                ensemble_from_binary(p)
            assert str(p) in str(err.value)

    def test_cut_ensemble(self, tmp_path):
        # a run stopped at step 12 of 20 holds 4 of the grid's 6 recorded times
        ens, _ = simulate_bivariate_censoring(0.5, TimeGrid(0.0, 1.0, 20),
                                              SimConfig(n_paths=13, seed=23, record_stride=4),
                                              n_steps=12)
        assert ens.values.shape == (13, 4) and len(ens.times) == 4
        p = tmp_path / "cut.skdf"
        ensemble_to_binary(ens, p)
        back = ensemble_from_binary(p)
        assert back.values.tobytes() == ens.values.tobytes()
        assert back.times.tobytes() == ens.times.tobytes()
        assert (back.seed, back.grid, back.record_stride) == \
            (ens.seed, ens.grid, ens.record_stride)

    def test_byte_identical_rewrites(self, small_ensemble, tmp_path):
        p1, p2 = tmp_path / "a.skdf", tmp_path / "b.skdf"
        ensemble_to_binary(small_ensemble, p1)
        ensemble_to_binary(small_ensemble, p2)
        assert p1.read_bytes() == p2.read_bytes()


@st.composite
def _ensembles(draw):
    """Any v1-representable ensemble: stride a divisor of n_steps, a grid
    that starts at or after 0, any int64 seed, any float64 values."""
    n_steps = draw(st.integers(1, 64))
    stride = draw(st.sampled_from([d for d in range(1, n_steps + 1) if n_steps % d == 0]))
    t_start = draw(st.floats(0.0, 10.0))
    span = draw(st.floats(1e-3, 10.0))
    eps = draw(st.floats(0.0, 0.9 * span))
    grid = TimeGrid(t_start, t_start + span, n_steps, eps)
    n_paths = draw(st.integers(1, 12))
    values = draw(hnp.arrays(np.float64, (n_paths, n_steps // stride + 1)))
    labels = draw(st.none() | hnp.arrays(np.int8, n_paths))
    seed = draw(st.integers(-2**63, 2**63 - 1))
    return PathEnsemble(grid=grid, values=values, seed=seed, labels=labels,
                        record_stride=stride)


class TestBinaryRoundTripProperty:
    def test_round_trip(self, tmp_path):
        @settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @given(ens=_ensembles())
        def check(ens):
            p = tmp_path / "ens.skdf"
            ensemble_to_binary(ens, p)
            back = ensemble_from_binary(p)
            assert back.values.tobytes() == ens.values.tobytes()
            assert back.times.tobytes() == ens.times.tobytes()
            assert (back.seed, back.grid, back.record_stride) == \
                (ens.seed, ens.grid, ens.record_stride)
            if ens.labels is None:
                assert back.labels is None
            else:
                assert back.labels.tobytes() == ens.labels.tobytes()

        check()


class TestCsv:
    def test_header_and_shape(self, labeled_ensemble, tmp_path):
        p = tmp_path / "ens.csv"
        ensemble_to_csv(labeled_ensemble, p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# skewdiff-ensemble seed=19")
        header = lines[1].split(",")
        assert header[:2] == ["path", "label"]
        assert len(lines) == 2 + labeled_ensemble.n_paths
        first = lines[2].split(",")
        assert float(first[2]) == 0.0   # x0 column

    def test_round_trip_precision(self, small_ensemble, tmp_path):
        p = tmp_path / "ens.csv"
        ensemble_to_csv(small_ensemble, p)
        lines = p.read_text().splitlines()[2:]
        parsed = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines])
        assert np.array_equal(parsed, small_ensemble.values)

    def test_deterministic_bytes(self, small_ensemble, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ensemble_to_csv(small_ensemble, p1)
        ensemble_to_csv(small_ensemble, p2)
        assert p1.read_bytes() == p2.read_bytes()


# sha256 of the bytes the row-at-a-time writers produced; the CSV layout
# is a contract, so these must not move.  The ensemble's values were
# re-recorded when mills took its exp/ndtr branch (they moved by at most
# 2.2e-16; header and layout unchanged)
DENSITY_CSV_SHA256 = \
    "014bb4999a35a21d65ddec9a035ef87a476401a2a8517cebd7bc0ff9087733b9"
ENSEMBLE_CSV_SHA256 = \
    "19ae40f9c67e012ef92e5761bef2257ad00efd968a59cf00b9eef642c99d7378"
# sha256 of the unlabelled ensemble's CSV and SKDF (its header has a nonzero
# t_start and epsilon), and of the labelled ensemble's SKDF
UNLABELED_CSV_SHA256 = \
    "73d0630d4d7f7debeb06ffcf81df4730f059ebfae2aaf363bfeebf4eec0337a6"
UNLABELED_SKDF_SHA256 = \
    "e358b93ad830231fa88ca38185f275ecbf1e3689112d921584983fed6984d5e9"
LABELED_SKDF_SHA256 = \
    "3673c5e73ed00f1a250ade69ea0edd4c7e3f692177d838aa977c0f0a6dd66642"

def _special_grid():
    x = np.array([-1e300, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300])
    t = np.array([0.0, 0.25, 1e-7])
    v = np.array([[-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300],
                  [0.1, 0.2, 0.30000000000000004, 1e-310, 2.5e-16, 123456789.0],
                  [1.0, -1.0, 1e22, 1e16, 9.999999999999999e-5, 0.0]])
    with np.errstate(all="ignore"):
        return DensityGrid(x, t, v)


class TestPinnedBytes:
    def test_density_csv_with_special_values(self, tmp_path):
        p = tmp_path / "d.csv"
        density_grid_to_csv(_special_grid(), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == DENSITY_CSV_SHA256
        assert p.read_text().splitlines()[2] == "-0.0,0.0,nan"

    def test_labeled_ensemble_csv(self, labeled_ensemble, tmp_path):
        p = tmp_path / "e.csv"
        ensemble_to_csv(labeled_ensemble, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == ENSEMBLE_CSV_SHA256

    def test_unlabeled_ensemble_csv_and_binary(self, tmp_path):
        ens = simulate(ZERO, -0.25, TimeGrid(0.1, 1.3, 24, terminal_cutoff_epsilon=1e-05),
                       SimConfig(n_paths=11, seed=23, record_stride=6))
        ensemble_to_csv(ens, tmp_path / "e.csv")
        ensemble_to_binary(ens, tmp_path / "e.skdf")
        assert hashlib.sha256((tmp_path / "e.csv").read_bytes()).hexdigest() \
            == UNLABELED_CSV_SHA256
        assert hashlib.sha256((tmp_path / "e.skdf").read_bytes()).hexdigest() \
            == UNLABELED_SKDF_SHA256

    def test_labeled_ensemble_binary(self, labeled_ensemble, tmp_path):
        p = tmp_path / "e.skdf"
        ensemble_to_binary(labeled_ensemble, p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == LABELED_SKDF_SHA256


class TestDensityExports:
    def test_csv_layout(self, tmp_path):
        grid = density_grid(lambda x, t: constant_skew_tpd(x, t, 1.0, +1),
                            np.linspace(-2, 2, 5), [0.5, 1.0])
        p = tmp_path / "d.csv"
        density_grid_to_csv(grid, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "x,t,q"
        assert len(lines) == 1 + 2 * 5
        x, t, q = (float(v) for v in lines[1].split(","))
        assert (x, t) == (-2.0, 0.5)
        assert q == grid.values[0, 0]

    def test_summary_moments(self):
        grid = density_grid(lambda x, t: constant_skew_tpd(x, t, 1.0, +1),
                            np.linspace(-9, 10, 4001), [1.0])
        s = density_grid_summary(grid)
        assert abs(s["mass"][0] - 1.0) < 1e-8
        assert s["skewness"][0] > 0


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    got = _floatfmt.reprs(values).tolist()
    want = [repr(float(v)).encode() for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    assert len(got) == len(want)


class TestFloatFormatter:
    """The vectorized formatter against repr(float(v)), the reference."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20240611)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
        _assert_reprs(bits.view(np.float64))

    def test_any_byte_order(self):
        values = np.random.default_rng(3).standard_normal(1000) * 1e-5
        assert np.array_equal(_floatfmt.reprs(values.astype(">f8")),
                              _floatfmt.reprs(values.astype("<f8")))

    def test_powers_of_two_and_neighbours(self):
        p2 = np.ldexp(1.0, np.arange(-1074, 1024))
        _assert_reprs(np.concatenate([p2, np.nextafter(p2, 0.0),
                                      np.nextafter(p2, np.inf), -p2]))

    def test_first_subnormals(self):
        _assert_reprs(np.arange(1, 2**16 + 1, dtype=np.uint64).view(np.float64))

    def test_integers_near_2_53(self):
        _assert_reprs(np.concatenate([2.0**53 + np.arange(-3000, 3000),
                                      2.0**52 + np.arange(-3000, 3000),
                                      -np.arange(0, 3000) * 1e10]))

    def test_layout_switches(self):
        cells = [b"9.999999999999999e-05", b"0.0001", b"9999999999999998.0", b"1e+16",
                 b"1e-05", b"0.00012", b"123456789012345.6", b"1.5e+300", b"1e-308",
                 b"5e-324", b"1.7976931348623157e+308", b"100.0", b"-0.001"]
        assert _floatfmt.reprs([float(c) for c in cells]).tolist() == cells

    def test_special_values(self):
        values = [0.0, -0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf]
        assert _floatfmt.reprs(values).tolist() == \
            [b"0.0", b"-0.0", b"nan", b"nan", b"inf", b"-inf"]

    def test_empty(self):
        assert _floatfmt.reprs(np.empty(0)).shape == (0,)
        assert _floatfmt.cells([]).shape == (0, _floatfmt.WIDTH)

    def test_cells_keep_the_input_shape(self):
        # one trailing axis of WIDTH bytes, also for a strided or 0-d input
        values = np.arange(24.0).reshape(2, 3, 4)[:, ::2].transpose(2, 0, 1) / 7.0
        got = _floatfmt.cells(values)
        assert got.shape == (*values.shape, _floatfmt.WIDTH)
        assert np.array_equal(got.reshape(-1, _floatfmt.WIDTH),
                              _floatfmt.cells(values.reshape(-1)))
        assert _floatfmt.cells(0.5).shape == (_floatfmt.WIDTH,)
        assert _floatfmt.cells(0.5).tobytes().rstrip(b"\0") == b"0.5"

    def test_any_float(self):
        @settings(max_examples=500, derandomize=True, deadline=None, database=None)
        @given(values=st.lists(st.floats(), max_size=40))
        def check(values):
            _assert_reprs(values)

        check()

    def test_tables_are_built_on_first_use(self):
        code = ("import skewdiff.cli, skewdiff._floatfmt as f; "
                "assert f._tables.cache_info().currsize == 0; f.reprs([0.5]); "
                "assert f._tables.cache_info().currsize == 1")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr


# The per-slice and per-row repr writers that the vectorized ones replaced,
# kept as the reference for their bytes
def _reference_density_csv(grid):
    xs = [repr(x) for x in grid.x_nodes.tolist()]
    out = ["x,t,q\n"]
    for t, row in zip(grid.t_nodes.tolist(), grid.values):
        out += [f"{x},{t!r},{q!r}\n" for x, q in zip(xs, row.tolist())]
    return "".join(out).encode()


def _reference_ensemble_csv(ens):
    """Everything after the leading comment line."""
    labels = None if ens.labels is None else ens.labels.tolist()
    rows = [",".join(["path"] + (["label"] if labels is not None else [])
                     + [f"t={t!r}" for t in ens.times.tolist()]) + "\n"]
    for i, row in enumerate(ens.values.tolist()):
        head = f"{i}," if labels is None else f"{i},{labels[i]},"
        rows.append(head + ",".join(repr(v) for v in row) + "\n")
    return "".join(rows).encode()


class TestWritersAcrossBlocks:
    """Grids and ensembles larger than one formatter block, with row widths
    that do not divide it, against the reference writers."""

    def test_density_grid(self, tmp_path):
        rng = np.random.default_rng(8)
        x = np.linspace(-7.0, 11.0, 1003)
        t = np.linspace(0.01, 2.0, 37)
        values = rng.standard_normal((37, 1003)) * 10.0 ** rng.integers(-320, 300, (37, 1003))
        values[3, :5] = [np.nan, -np.inf, -0.0, 5e-324, 1e16]
        grid = DensityGrid(x, t, values)
        assert values.size > _floatfmt.CHUNK and _floatfmt.CHUNK % len(x)
        p = tmp_path / "d.csv"
        density_grid_to_csv(grid, p)
        assert p.read_bytes() == _reference_density_csv(grid)

    @pytest.mark.parametrize("labels", [False, True])
    def test_ensemble(self, tmp_path, labels):
        rng = np.random.default_rng(9)
        n_paths, n_steps = 700, 60
        values = rng.standard_normal((n_paths, n_steps + 1))
        ens = PathEnsemble(grid=TimeGrid(0.0, 1.0, n_steps), values=values, seed=4,
                           labels=rng.choice(np.array([-1, 1], np.int8), n_paths)
                           if labels else None)
        assert values.size > _floatfmt.CHUNK and _floatfmt.CHUNK % values.shape[1]
        p = tmp_path / "e.csv"
        ensemble_to_csv(ens, p)
        assert p.read_bytes().split(b"\n", 1)[1] == _reference_ensemble_csv(ens)

    def test_columns(self, tmp_path):
        rng = np.random.default_rng(10)
        a, b, c = (rng.standard_normal(9000) for _ in range(3))
        p = tmp_path / "c.csv"
        columns_to_csv(p, ("a", "b", "c"), a, list(b), c)
        want = "a,b,c\n" + "".join(f"{u!r},{v!r},{w!r}\n" for u, v, w in
                                     zip(a.tolist(), b.tolist(), c.tolist()))
        assert p.read_bytes() == want.encode()


class TestWritersAcrossThreadCounts:
    """The shared pool formats the blocks: the bytes at 1, 2 and 3 workers
    equal each other and the serial reference."""

    @staticmethod
    def _each_thread_count(monkeypatch, tmp_path, write):
        out = []
        for n in ("1", "2", "3"):
            monkeypatch.setenv("SKEWDIFF_THREADS", n)
            p = tmp_path / f"{n}.csv"
            write(p)
            out.append(p.read_bytes())
        return out

    # 37 slices of 1003 nodes: three blocks, the last partial; 5: one block
    @pytest.mark.parametrize("n_t", [37, 5])
    def test_density_grid(self, tmp_path, monkeypatch, n_t):
        rng = np.random.default_rng(12)
        x = np.linspace(-7.0, 11.0, 1003)
        values = rng.standard_normal((n_t, 1003))
        # one infinity per slice, so its trapezoid mass is no inf - inf
        values[-1, :3] = [np.nan, np.inf, -0.0]
        values[0, -3:] = [-0.0, -np.inf, np.nan]
        grid = DensityGrid(x, np.linspace(0.01, 2.0, n_t), values)
        assert (n_t * len(x) > _floatfmt.CHUNK) == (n_t == 37)
        serial = b"x,t,q\n" + _csv_rows(_floatfmt.cells(x)[:, None],
                                        _floatfmt.cells(grid.t_nodes)[:, None, None],
                                        _floatfmt.cells(values[:, :, None])).tobytes()
        assert serial == _reference_density_csv(grid)
        got = self._each_thread_count(monkeypatch, tmp_path,
                                      lambda p: density_grid_to_csv(grid, p))
        assert got == [serial] * 3

    def test_labeled_ensemble(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        values = rng.standard_normal((1500, 41))
        values[7, :3] = [np.nan, -np.inf, -0.0]
        ens = PathEnsemble(grid=TimeGrid(0.0, 1.0, 40), values=values, seed=4,
                           labels=rng.choice(np.array([-1, 1], np.int8), 1500))
        assert values.size > 2 * _floatfmt.CHUNK
        got = self._each_thread_count(monkeypatch, tmp_path,
                                      lambda p: ensemble_to_csv(ens, p))
        assert got[0].split(b"\n", 1)[1] == _reference_ensemble_csv(ens)
        assert got == [got[0]] * 3


class TestWriteJson:
    def test_a_value_that_is_not_finite_is_refused_by_name(self, tmp_path):
        p = tmp_path / "r.json"
        obj = {"checks": [{"ks": 0.1}, {"ks": np.float64(np.nan)}], "mean": -math.inf}
        with pytest.raises(FloatingPointError, match=r"checks\[1\]\.ks, mean"):
            write_json(p, obj)
        assert not p.exists()

    def test_loose_writes_the_tokens_as_strings(self, tmp_path):
        p = tmp_path / "d.json"
        write_json(p, {"a": (math.nan, 1.5), "b": {"c": -math.inf}}, strict=False)
        assert p.read_text() == ('{\n  "a": [\n    "NaN",\n    1.5\n  ],\n'
                                 '  "b": {\n    "c": "-Infinity"\n  }\n}\n')
