"""Grids, parameter validation, the RNG reproducibility contract, and the block runner."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvol as rv
from conftest import iter_blocks
from roughvol import BLOCK_SIZE, sim_core


NAN, INF = float("nan"), float("inf")


def test_grid_basic():
    g = rv.make_time_grid(2.0, 8)
    assert g.N == 8
    assert g.dt == pytest.approx(0.25)
    assert g.nodes.shape == (9,)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert not g.nodes.flags.writeable


@pytest.mark.parametrize(
    "T,N", [(0.0, 10), (-1.0, 10), (1.0, 1), (1.0, 2.5), (1.0, NAN), (1.0, INF)]
)
def test_grid_rejects_bad_inputs(T, N):
    # a named range error, not int()'s own on NaN or infinity
    with pytest.raises(ValueError, match="must be"):
        rv.make_time_grid(T, N)


def test_grid_equality_is_structural():
    a = rv.make_time_grid(1.0, 100)
    b = rv.make_time_grid(1, 100)
    c = rv.make_time_grid(1.0, 50)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c
    # grids of equal (T, N) are one dict key
    seen = {a: "first", c: "coarse"}
    seen[b] = "second"
    assert len(seen) == 2 and seen[a] == "second"


def test_params_derived_fields(table1):
    assert table1.alpha == pytest.approx(0.07 - 0.5)
    assert table1.sigma == pytest.approx(1.9 * np.sqrt(2 * 0.07))
    # derived, so they cannot be passed (and silently overwritten)
    base = {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9}
    for derived in ("alpha", "sigma"):
        with pytest.raises(TypeError):
            rv.ModelParams(**base, **{derived: 3.0})


@pytest.mark.parametrize(
    "kw",
    [
        {"xi0": 0.0},
        {"xi0": -1.0},
        {"eta": 0.0},
        {"H": 0.0},
        {"H": 0.5},
        {"H": 0.7},
        {"rho": -1.5},
    ],
)
def test_params_validation(kw):
    base = {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9}
    base.update(kw)
    with pytest.raises(ValueError):
        rv.ModelParams(**base)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"xi0": 0.0}, "xi0 must be positive, got 0.0"),
        ({"eta": float("inf")}, "eta must be positive, got inf"),
        ({"H": 0.5}, "H must lie in (0, 1/2), got 0.5"),
        ({"rho": float("nan")}, "rho must lie in [-1, 1], got nan"),
        # the first parameter outside its domain, in DOMAINS order
        ({"xi0": -1.0, "H": 0.7, "rho": 2.0}, "xi0 must be positive, got -1.0"),
    ],
)
def test_params_name_the_first_domain_broken(kw, message):
    base = {"xi0": 0.026, "eta": 1.9, "H": 0.07, "rho": -0.9}
    with pytest.raises(ValueError) as err:
        rv.ModelParams(**{**base, **kw})
    assert str(err.value) == message


def _two_factor(**over):
    base = {
        "omega": 2.0, "theta": 0.3, "kappa_X": 8.0, "kappa_Y": 0.5,
        "rho_SX": -0.7, "rho_SY": -0.6, "rho_XY": 0.2,
    }
    return rv.TwoFactorParams(**{**base, **over})


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: rv.ModelParams(0.026, 1.9, 0.07, NAN), id="rho-nan"),
        pytest.param(lambda: rv.ModelParams(INF, 1.9, 0.07, -0.9), id="xi0-inf"),
        pytest.param(lambda: rv.ModelParams(0.026, INF, 0.07, -0.9), id="eta-inf"),
        pytest.param(
            lambda: rv.sample_correlated_increments(rv.make_time_grid(1.0, 4), NAN, 8, 0),
            id="increments-rho-nan",
        ),
        pytest.param(lambda: _two_factor(omega=NAN), id="omega-nan"),
        pytest.param(lambda: _two_factor(rho_SX=NAN), id="rho_SX-nan"),
        pytest.param(lambda: _two_factor(kappa_X=INF), id="kappa_X-inf"),
        pytest.param(lambda: rv.make_time_grid(INF, 10), id="grid-T-inf"),
    ],
)
def test_non_finite_inputs_are_rejected(build):
    # NaN fails every comparison, so a range check must pass only inside its
    # range (not (lo <= x <= hi)) to reject it; infinity is outside every range
    with pytest.raises(ValueError):
        build()


def test_increment_shapes_and_moments():
    g = rv.make_time_grid(1.0, 64)
    inc = rv.sample_correlated_increments(g, -0.9, 4000, 7)
    for a in (inc.dW, inc.dB, inc.dU):
        assert a.shape == (4000, 64)
        assert not a.flags.writeable
    assert np.var(inc.dW) == pytest.approx(g.dt, rel=0.02)
    assert np.var(inc.dB) == pytest.approx(g.dt, rel=0.02)
    assert np.var(inc.dU) == pytest.approx(g.dt, rel=0.02)
    c = np.corrcoef(inc.dW.ravel(), inc.dB.ravel())[0, 1]
    assert c == pytest.approx(-0.9, abs=0.01)
    # the auxiliary stream is orthogonal to both
    assert abs(np.corrcoef(inc.dW.ravel(), inc.dU.ravel())[0, 1]) < 0.01
    assert abs(np.corrcoef(inc.dB.ravel(), inc.dU.ravel())[0, 1]) < 0.01


def test_rho_one_collapses_streams_bitwise():
    g = rv.make_time_grid(1.0, 16)
    inc = rv.sample_correlated_increments(g, 1.0, 100, 3)
    assert np.array_equal(inc.dW, inc.dB)


def test_determinism_same_inputs():
    g = rv.make_time_grid(1.0, 10)
    a = rv.sample_correlated_increments(g, -0.5, 33, 123)
    b = rv.sample_correlated_increments(g, -0.5, 33, 123)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.dB, b.dB)
    assert np.array_equal(a.dU, b.dU)


def test_prefix_property_within_block():
    g = rv.make_time_grid(1.0, 12)
    small = rv.sample_correlated_increments(g, -0.5, 50, 11)
    big = rv.sample_correlated_increments(g, -0.5, 700, 11)
    assert np.array_equal(small.dW, big.dW[:50])
    assert np.array_equal(small.dB, big.dB[:50])
    assert np.array_equal(small.dU, big.dU[:50])


def test_prefix_property_across_block_boundary():
    # path index BLOCK_SIZE lives in the second RNG block; crossing the
    # boundary must not disturb the first block's draws
    g = rv.make_time_grid(1.0, 4)
    small = rv.sample_correlated_increments(g, 0.3, BLOCK_SIZE + 5, 2)
    big = rv.sample_correlated_increments(g, 0.3, BLOCK_SIZE + 200, 2)
    assert np.array_equal(small.dW, big.dW[: BLOCK_SIZE + 5])
    assert np.array_equal(small.dU, big.dU[: BLOCK_SIZE + 5])


def test_iter_blocks_yields_views_of_the_parent_in_row_order():
    g = rv.make_time_grid(1.0, 3)
    inc = rv.sample_correlated_increments(g, -0.7, 2 * BLOCK_SIZE + 9, 5)
    blocks = list(iter_blocks(inc))
    B = BLOCK_SIZE
    assert [(rows.start, rows.stop) for rows, _ in blocks] == [
        (0, B), (B, 2 * B), (2 * B, 2 * B + 9),
    ]
    for rows, blk in blocks:
        assert blk.n_paths == rows.stop - rows.start
        for name in ("dW", "dB", "dU"):
            part, whole = getattr(blk, name), getattr(inc, name)
            assert np.shares_memory(part, whole)
            assert np.array_equal(part, whole[rows])
        assert (blk.grid, blk.rho, blk.seed) == (inc.grid, inc.rho, inc.seed)
    # fewer paths than a block: one short block covering them all
    (rows, blk), = iter_blocks(rv.sample_correlated_increments(g, 0.0, 7, 5))
    assert (rows.start, rows.stop, blk.n_paths) == (0, 7, 7)

def test_seed_and_rho_sensitivity():
    g = rv.make_time_grid(1.0, 8)
    a = rv.sample_correlated_increments(g, -0.9, 10, 0)
    b = rv.sample_correlated_increments(g, -0.9, 10, 1)
    assert not np.array_equal(a.dW, b.dW)
    c = rv.sample_correlated_increments(g, 0.9, 10, 0)
    # dW is built from the first Gaussian stream only; rho affects dB alone
    assert np.array_equal(a.dW, c.dW)
    assert not np.array_equal(a.dB, c.dB)


def test_increment_validation():
    g = rv.make_time_grid(1.0, 8)
    with pytest.raises(ValueError):
        rv.sample_correlated_increments(g, -1.5, 10, 0)
    with pytest.raises(ValueError):
        rv.sample_correlated_increments(g, 0.0, 0, 0)
    with pytest.raises(ValueError):
        rv.sample_correlated_increments(g, 0.0, 2.5, 0)
    # a fractional seed must not pass for the integer seed below it
    with pytest.raises(ValueError, match="seed must be an integer"):
        rv.sample_correlated_increments(g, 0.0, 10, 1.5)
    with pytest.raises(ValueError, match="seed must be an integer"):
        rv.sample_terminal_brownian(g, 10, 1.5)
    params = rv.ModelParams(0.026, 1.9, 0.07, -0.9)
    with pytest.raises(ValueError, match="seed must be an integer"):
        rv.simulate_terminal([(1.0, None)], params, 8, 10, 1.5)


@given(
    n1=st.integers(1, 40),
    extra=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    N=st.integers(2, 10),
)
@settings(max_examples=25, deadline=None)
def test_prefix_property_holds_generally(n1, extra, seed, N):
    g = rv.make_time_grid(1.0, N)
    a = rv.sample_correlated_increments(g, -0.7, n1, seed)
    b = rv.sample_correlated_increments(g, -0.7, n1 + extra, seed)
    assert np.array_equal(a.dW, b.dW[:n1])
    assert np.array_equal(a.dB, b.dB[:n1])
    assert np.array_equal(a.dU, b.dU[:n1])


THREAD_ROWS = [1, 1023, 1025, 16 * BLOCK_SIZE + 5, 48 * BLOCK_SIZE + 7]


@pytest.mark.parametrize("n_paths", THREAD_ROWS)
def test_increments_do_not_depend_on_the_thread_count(n_paths, monkeypatch):
    g = rv.make_time_grid(1.0, 7)
    runs = []
    for width in (1, 2):
        monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
        runs.append(rv.sample_correlated_increments(g, -0.9, n_paths, 5))
    one, two = runs
    assert np.array_equal(one.dW, two.dW)
    assert np.array_equal(one.dB, two.dB)
    assert np.array_equal(one.dU, two.dU)


# a single path, then a partial block after one, four, sixteen and
# thirty-two full blocks: from four on, each of two workers runs several
CHAIN_ROWS = [
    1,
    BLOCK_SIZE + 3,
    4 * BLOCK_SIZE + 3,
    16 * BLOCK_SIZE + 5,
    32 * BLOCK_SIZE + 7,
]


def _full_tile(seed, block, N):
    """A block's full (3, BLOCK_SIZE, N) tile: its half-tile, expanded by pairs.

    Half-plane p is the first (BLOCK_SIZE/2, N) draw of its own SFC64
    stream, seeded by SeedSequence((seed, block, p)); row 2j of a plane is
    half-row j, row 2j+1 its negation.
    """
    half = [
        np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block, p))))
        .standard_normal((BLOCK_SIZE // 2, N))
        for p in range(3)
    ]
    return _pairs(np.stack(half), BLOCK_SIZE)


def _pairs(half, m):
    """The first m rows of the planes whose half-rows (axis -2) are half."""
    paired = np.stack([half, -half], axis=-2)
    return paired.reshape(*half.shape[:-2], -1, half.shape[-1])[..., :m, :]


def _whole_array_increments(grid, rho, n_paths, seed):
    """dW, dB, dU from every block's full tile, row-sliced, on whole arrays."""
    tiles = [_full_tile(seed, b, grid.N) for b in range(-(-n_paths // BLOCK_SIZE))]
    z = np.concatenate(tiles, axis=1)[:, :n_paths]
    sq_dt = np.sqrt(grid.dt)
    dW = z[0] * sq_dt
    dB = z[1] * sq_dt * np.sqrt(1.0 - rho * rho) + dW * rho
    return dW, dB, z[2] * sq_dt


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_paths", CHAIN_ROWS)
def test_increments_equal_the_whole_array_formulas(n_paths, width, monkeypatch):
    # the half-planes are scaled into the even rows of dW, dB, dU and negated
    # into the odd ones; a partial block draws a prefix of each plane's
    # stream, so it is a row-slice of the full tile
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 7)
    inc = rv.sample_correlated_increments(g, -0.9, n_paths, 3)
    want = _whole_array_increments(g, -0.9, n_paths, 3)
    for name, plane in zip(("dW", "dB", "dU"), want):
        assert np.array_equal(getattr(inc, name), plane), name


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n_paths", [1, BLOCK_SIZE + 3, 4 * BLOCK_SIZE + 3])
def test_the_lazy_first_cell_plane_keeps_its_bits(n_paths, width, monkeypatch):
    # dU is drawn on its first read, from plane 2's streams alone; an odd
    # count leaves its last row unpaired.  It is the whole-array formula's
    # plane and a prefix of a larger run's, and simulate_volterra, which
    # draws it once from the calling thread, gives the same field whether
    # or not dU was read before
    monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
    g = rv.make_time_grid(1.0, 7)
    inc = rv.sample_correlated_increments(g, -0.9, n_paths, 3)
    assert "dU" not in vars(inc)
    assert np.array_equal(inc.dU, _whole_array_increments(g, -0.9, n_paths, 3)[2])
    big = rv.sample_correlated_increments(g, -0.9, 5 * BLOCK_SIZE, 3)
    assert np.array_equal(inc.dU, big.dU[:n_paths])
    callers = []
    real = sim_core.run_chunks

    def spy(*args):
        callers.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(sim_core, "run_chunks", spy)
    plan = rv.make_hybrid_plan(g, -0.43)
    fresh = rv.sample_correlated_increments(g, -0.9, n_paths, 3)
    callers.clear()
    X = rv.simulate_volterra(plan, fresh).values
    assert callers == [True]  # one draw of dU, run from the calling thread
    assert np.array_equal(X, rv.simulate_volterra(plan, inc).values)


@pytest.mark.parametrize(
    "planes", [(0,), (2,), (0, 1, 2), (2, 0)], ids=["0", "2", "012", "20"]
)
@pytest.mark.parametrize("m", [5, BLOCK_SIZE - 1, BLOCK_SIZE])
def test_a_subset_of_planes_draws_the_same_values(m, planes):
    # a plane's stream depends on (seed, block, plane) alone: drawing {0},
    # {2} or all three planes, in any order, gives each the half-rows of the
    # full tile, so leaving out the dW plane does not move dB or dU
    N, h = 6, (m + 1) // 2
    half_tile = _full_tile(9, 1, N)[:, ::2]
    for p, gen in zip(planes, sim_core._block_streams(9, 1, planes), strict=True):
        assert np.array_equal(gen.standard_normal((h, N)), half_tile[p, :h]), p


@pytest.mark.parametrize("n_paths", [1, 2, 7, 16 * BLOCK_SIZE + 5])
def test_odd_rows_are_the_exact_negations_of_the_even_rows(n_paths):
    # antithetic pairs: every Gaussian plane, and so dW, dB, dU and the
    # Brownian sums, holds (z, -z) in rows (2j, 2j+1), bit for bit; an odd
    # count's last row has no partner
    g = rv.make_time_grid(1.3, 9)
    inc = rv.sample_correlated_increments(g, -0.9, n_paths, 8)
    W_T = sim_core.sample_terminal_brownian(g, n_paths, 8)
    pairs = n_paths // 2
    for a in (inc.dW, inc.dB, inc.dU, W_T):
        assert np.array_equal(a[1 : 2 * pairs : 2], -a[0 : 2 * pairs : 2])
        assert np.all(a != 0)
    if pairs >= 2:  # the pairs themselves are not alike
        assert not np.array_equal(inc.dW[2], inc.dW[0])


@pytest.mark.parametrize(
    "n1,n2",
    [
        (1, 2), (7, 8), (7, 300),
        (16 * BLOCK_SIZE + 3, 16 * BLOCK_SIZE + 4),
        (16 * BLOCK_SIZE - 1, 32 * BLOCK_SIZE + 1),
    ],
)
def test_odd_path_counts_keep_the_prefix_property(n1, n2):
    # an odd count keeps the first row of its last pair: the same row the
    # larger run draws there
    g = rv.make_time_grid(1.0, 5)
    small = rv.sample_correlated_increments(g, -0.7, n1, 12)
    big = rv.sample_correlated_increments(g, -0.7, n2, 12)
    for name in ("dW", "dB", "dU"):
        assert np.array_equal(getattr(small, name), getattr(big, name)[:n1]), name
    assert np.array_equal(
        sim_core.sample_terminal_brownian(g, n1, 12),
        sim_core.sample_terminal_brownian(g, n2, 12)[:n1],
    )


@pytest.mark.parametrize(
    "N,n_paths", [(100, 20_000), (8, 16 * BLOCK_SIZE + 5), (200, 1)]
)
def test_terminal_brownian_sums_the_full_draws_dW(N, n_paths, monkeypatch):
    g = rv.make_time_grid(1.3, N)
    want = rv.sample_correlated_increments(g, -0.9, n_paths, 5).dW.sum(axis=1)
    for width in (1, 2):
        monkeypatch.setattr(sim_core, "_pool_width", lambda: width)
        got = sim_core.sample_terminal_brownian(g, n_paths, 5)
        assert np.array_equal(got, want), f"width {width}"


def test_run_chunks_gives_each_worker_its_own_buffer(monkeypatch):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: 3)
    seen = {}
    made = []

    def work(rows, buf):
        buf.append((rows.start, rows.stop))
        seen[rows.start] = threading.get_ident()

    def scratch(height):
        assert height == BLOCK_SIZE
        made.append([])
        return made[-1]

    # 8 full blocks and a short last one of 3 rows
    B = BLOCK_SIZE
    sim_core.run_chunks(8 * B + 3, work, scratch)
    assert sorted(seen) == list(range(0, 9 * B, B))
    # worker s takes blocks s, s + 3, ...
    assert made == [
        [(0, B), (3 * B, 4 * B), (6 * B, 7 * B)],
        [(B, 2 * B), (4 * B, 5 * B), (7 * B, 8 * B)],
        [(2 * B, 3 * B), (5 * B, 6 * B), (8 * B, 8 * B + 3)],
    ]
    assert threading.get_ident() not in seen.values()


def test_run_chunks_runs_a_single_chunk_inline(monkeypatch):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: 2)
    calls = []

    def work(rows, buf):
        calls.append((rows, threading.get_ident()))

    heights = []
    sim_core.run_chunks(BLOCK_SIZE - 3, work, heights.append)
    assert calls == [(slice(0, BLOCK_SIZE - 3), threading.get_ident())]
    assert heights == [BLOCK_SIZE - 3]  # the worker's buffer fits the one block


def test_run_chunks_reraises_a_worker_error(monkeypatch):
    monkeypatch.setattr(sim_core, "_pool_width", lambda: 2)

    def work(rows, buf):
        if rows.start == 3 * BLOCK_SIZE:
            raise RuntimeError(f"rows {rows.start} failed")

    with pytest.raises(RuntimeError, match=f"rows {3 * BLOCK_SIZE}"):
        sim_core.run_chunks(4 * BLOCK_SIZE, work, lambda height: None)


@pytest.mark.parametrize(
    "omp,want", [("1", 1), ("64", 2), ("0", 2), ("sentinel", 2), (None, 2)]
)
def test_pool_width_is_capped_by_omp_num_threads(omp, want, monkeypatch):
    monkeypatch.setattr(sim_core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    if omp is None:
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OMP_NUM_THREADS", omp)
    assert sim_core._pool_width() == want
