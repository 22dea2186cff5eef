"""Time grids and reproducible correlated Brownian increments.

Everything downstream (the Volterra simulator, both variance models, the
smile pipeline) consumes increments produced here, so this module owns the
reproducibility story: each Gaussian plane (dW, dB, dU) of each
fixed-size path block draws from its own SFC64 stream, seeded by
SeedSequence((seed, block, plane)) (``_block_streams``).  That makes the
output independent of scheduling and of which planes a caller draws (dU
is drawn later, on its first read, with the same bits), and lets two runs
with different ``n_paths`` agree on their common prefix.
Paths come in antithetic pairs: rows 2j and 2j+1 of every Gaussian plane
are z and -z, bit for bit, so a block draws half of its normals
(``_negate_pairs``), and whatever is odd in the Gaussians (the increments,
the Volterra field, the Brownian sums) is computed on the even rows and
negated, and so is every convolution of exactly paired rows
(``hybrid_scheme``).  Every sampler, ``models.simulate_terminal`` too,
draws a block's half-rows through one primitive, ``_block_normals``, which
alone maps a block's rows to its streams.

Because no block depends on another, the module also owns the one runner
that spreads the BLOCK_SIZE-row blocks of a task over threads
(``run_chunks``).  One block is the unit of everything that walks the paths:
it is seeded as one block here, it is one pool task of every step of the
public chain (the increments here, ``hybrid_scheme.simulate_volterra``,
``models.abergomi_driver``, the variance and log-price steps) and
of ``models.simulate_terminal``, and it is the row count of every worker's
scratch.  numpy's RNG fill and ``np.fft`` release the interpreter lock, so
threads can overlap, but the gain depends on the host: in-process on 2
shared vCPUs, ``models.simulate_terminal`` (20 000 paths, N = 100, five
maturities) took a median 0.160 s at width 1 and 0.112 s at width 2 in
one measurement, and the same at both widths in another.  The pool width
is the usable-CPU count, capped by ``OMP_NUM_THREADS`` when that variable
holds an integer >= 1 (the CLI's ``--threads`` sets it, and a value
inherited from the environment caps it just the same).  The width follows
the affinity mask, not a cgroup CPU quota.  Worker s takes blocks s, s +
width, ..., and every block is computed by the same operations in the same
order at any width, so results are bit-identical whatever the thread count.

Every large buffer, the outputs and each worker's scratch, is allocated in
the calling thread, and workers fill them through ``out=`` arguments.
Memory that worker threads allocate and free lands in glibc's per-thread
malloc arenas, which keep it, so allocating inside the workers raises peak
memory even though the arrays are freed.  The scratch grows with the width.
Only numpy's iterator buffers for ufuncs on row-strided views are made in
the workers, briefly: up to 64 KB per operand in ``_negate_pairs``, the
even-row scaling and ``hybrid_scheme._run_paired``'s pairing test.

Each step of the public chain writes straight into the array it returns,
so a chain holds its inputs, its outputs and its workers' scratch, and no
whole-size temporary.  A sample_correlated_increments worker draws a
block's dW and dB half-planes into a stage of at most (2, BLOCK_SIZE/2,
N) and scales them into the even rows of dW and dB.  The auxiliary plane
dU is drawn only when it is first read (PathIncrements), the same way
through a (1, BLOCK_SIZE/2, N) stage, so a chain that never reads it (the
rescaled one) neither draws nor holds it.  A simulate_volterra
or abergomi_driver worker holds the FFT buffers for one
block (the pairing test and simulate_volterra's first cell take their
scratch from the idle signal buffer), an rbergomi_log_price worker two
(BLOCK_SIZE, N) planes, and the variance steps none.  A simulate_terminal worker holds, for one
block, its 128 half-rows of each of the three planes in a (3, 128, N)
stage, three increment planes, one (256, N+1) path array and the FFT
buffers: about 2.2 MB at N = 100, so its peak memory is set by one block.

Measured with two threads: the benchmark's markov_smile chain (20 000
paths, N = 200) takes a median 0.20 s and peaks at 161.9 MB RSS, and
``roughvol skew`` (20 000 paths, N = 100, five maturities) at 42.3 MB.  Timings and peak memory have been
measured on 2 CPUs only.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "TimeGrid",
    "PathIncrements",
    "ModelParams",
    "make_time_grid",
    "sample_correlated_increments",
    "sample_terminal_brownian",
    "BLOCK_SIZE",
]

# Paths per RNG block, per pool task and per worker buffer.  Fixed (not
# tunable) so that every run of the same seed draws the same Gaussians for
# path p, and puts each row through the same calls, regardless of how many
# paths the caller asked for or how the work is scheduled; even, so that a
# block holds whole antithetic pairs.
BLOCK_SIZE = 256


def _pool_width() -> int:
    """Usable CPUs, capped by OMP_NUM_THREADS when it holds an integer >= 1."""
    try:
        width = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        width = os.cpu_count() or 1
    try:
        cap = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        cap = 0
    return min(width, cap) if cap >= 1 else width


def run_chunks(n_rows: int, work: Callable, scratch: Callable) -> None:
    """Call work(rows, buf) for each BLOCK_SIZE-row block of range(n_rows) on a pool.

    rows is slice(lo, min(lo + BLOCK_SIZE, n_rows)), so the last block may
    be shorter; it is block rows.start // BLOCK_SIZE.  scratch(height) makes
    one worker's buffer for blocks of at most height = min(n_rows,
    BLOCK_SIZE) rows; it is called once per worker, in the calling thread.
    Worker s takes blocks s, s + width, ..., so buf is never shared between
    threads; work must write only to its own rows of the outputs.  A single
    block, or a width of 1, runs inline.
    """
    width = max(1, min(_pool_width(), -(-n_rows // BLOCK_SIZE)))
    bufs = [scratch(min(n_rows, BLOCK_SIZE)) for _ in range(width)]

    def lane(s: int) -> None:
        for lo in range(s * BLOCK_SIZE, n_rows, width * BLOCK_SIZE):
            work(slice(lo, min(lo + BLOCK_SIZE, n_rows)), bufs[s])

    if width <= 1:
        lane(0)
        return
    with ThreadPoolExecutor(width) as pool:
        list(pool.map(lane, range(width)))  # re-raises a worker's exception


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _check_int(name: str, value, lo: int) -> int:
    """value as an int; a ValueError naming it unless it is an integer >= lo."""
    if not (lo <= value < np.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {lo}, got {value}")
    return int(value)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt, j = 0..N, with t_N = T; compared on (T, N, dt)."""

    T: float
    N: int
    dt: float
    nodes: np.ndarray = field(compare=False)


def make_time_grid(T: float, N: int) -> TimeGrid:
    """Build the uniform grid on [0, T] with N steps (N >= 2); T/N must not underflow."""
    _require(_positive, T=T)
    N = _check_int("step count N", N, 2)
    _require(_positive, **{"T/N": T / N})
    nodes = np.linspace(0.0, T, N + 1)
    return TimeGrid(T=float(T), N=N, dt=T / N, nodes=_readonly(nodes))


@dataclass(frozen=True, eq=False)
class PathIncrements:
    """A batch of correlated Gaussian increments on a shared grid.

    dW drives the price, dB the variance, with corr(dW_j, dB_j) = rho.
    dU is an auxiliary stream orthogonal to both, read only by the
    exact-first-cell Volterra simulator.  A dU passed in is kept as given;
    otherwise it is drawn from plane 2's streams on its first read and
    cached (_draw_dU), so a chain that never reads it neither draws nor
    holds it.  The draw runs on the pool, so read dU first in the calling
    thread, as simulate_volterra does: a first read in a pool worker would
    nest the pool, and cached_property takes no lock from Python 3.12 on.
    """

    n_paths: int
    dW: np.ndarray
    dB: np.ndarray
    rho: float
    seed: int
    grid: TimeGrid
    dU: InitVar[np.ndarray | None] = None

    def __post_init__(self, dU):
        if dU is not None:
            self.__dict__["dU"] = dU  # shadows the lazy draw

    def _draw_dU(self) -> np.ndarray:
        """dU = z2*sqrt(dt), with z2 the Gaussian plane 2 of each block.

        Each BLOCK_SIZE-path block is one run_chunks task, which draws the
        block's ceil(m/2) half-rows of plane 2 into the worker's (1,
        ceil(m/2), N) stage, scales them into the even rows and negates
        those into the odd ones (antithetic pairs, see _block_streams).
        """
        n, N = self.n_paths, self.grid.N
        dU = np.empty((n, N))
        sq_dt = np.sqrt(self.grid.dt)

        def draw(rows: slice, stage: np.ndarray) -> None:
            [z2] = _block_normals(self.seed, rows, stage, (2,))
            np.multiply(z2, sq_dt, out=dU[rows][::2])
            _negate_pairs(dU[rows])

        run_chunks(n, draw, lambda height: np.empty((1, (height + 1) // 2, N)))
        return _readonly(dU)


# The dataclass has taken the InitVar's default (None) from the class body;
# the class attribute dU now becomes the cached lazy draw.
PathIncrements.dU = cached_property(PathIncrements._draw_dU)
PathIncrements.dU.__set_name__(PathIncrements, "dU")


def _number(x) -> bool:
    """A finite real number: NaN, +-Infinity and booleans are not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) < np.inf


def _positive(v, _) -> str | None:
    return None if 0 < v < np.inf else "must be positive"


def _correlation(v, _) -> str | None:
    return None if -1 <= v <= 1 else "must lie in [-1, 1]"


def _hurst(v, _) -> str | None:
    if not 0 < v < 0.5:
        return "must lie in (0, 1/2)"
    if v - 0.5 == -0.5:  # every H in (0, 2^-55]
        return "must exceed 2^-55, below which H - 1/2 rounds to -1/2"


def _vol_of_vol(v, values) -> str | None:
    # the compensator takes eta^2/2
    return _positive(v, values) or (None if v * v < np.inf else "must have a finite square")


def _require(rule, **values) -> None:
    """Raise ValueError "{name} {why}, got {value}" for the first value rule rejects.

    rule is a DOMAINS rule; values are checked in the order given.
    """
    for name, v in values.items():
        if why := rule(v, values):
            raise ValueError(f"{name} {why}, got {v}")


def _check_domains(params) -> None:
    """Raise ValueError for the first parameter outside its DOMAINS rule."""
    values = {name: getattr(params, name) for name in params.DOMAINS}
    for name, rule in params.DOMAINS.items():
        if why := rule(values[name], values):
            raise ValueError(f"{name} {why}, got {values[name]}")


@dataclass(frozen=True, eq=False)
class ModelParams:
    """rBergomi parameters with the derived exponent and vol scale.

    alpha = H - 1/2 and sigma = eta*sqrt(2*alpha + 1) are computed, not
    passed.  DOMAINS maps each parameter to rule(value, values): why value
    lies outside its domain, given the parameters before it, or None; NaN
    lies outside every domain.  The CLI's config schema reads DOMAINS too.
    """

    xi0: float
    eta: float
    H: float
    rho: float
    alpha: float = field(init=False)
    sigma: float = field(init=False)
    DOMAINS = {
        "xi0": _positive,
        "eta": _vol_of_vol,
        "H": _hurst,
        "rho": _correlation,
    }

    def __post_init__(self):
        _check_domains(self)
        object.__setattr__(self, "alpha", self.H - 0.5)
        object.__setattr__(self, "sigma", self.eta * np.sqrt(2 * self.H))


def _block_streams(seed: int, block: int, planes=(0, 1, 2)) -> list[np.random.Generator]:
    """The Gaussian generators of one block's planes (0: dW, 1: dB, 2: dU).

    Plane p of block b is seeded by SeedSequence((seed, b, p)) alone, so
    drawing a subset of the planes gives each the same values, in any
    order.  A block's Gaussians come in antithetic pairs: row 2j of a plane
    is the plane's j-th draw of N values, and row 2j+1 its exact negation
    (_negate_pairs), so m rows draw ceil(m/2) half-rows per plane, and a
    partial block is a row-slice of the full one (prefix property; an odd
    m keeps the first row of its last pair).  Sampling method: numpy's
    ziggurat via Generator.standard_normal, an exact-distribution sampler,
    on the SFC64 bit stream; the seeding, not the bit generator, makes the
    streams independent of one another and of the schedule.
    """
    return [
        np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, block, p))))
        for p in planes
    ]


def _block_normals(seed: int, rows: slice, stage: np.ndarray, planes=(0, 1, 2)) -> np.ndarray:
    """Draw the half-rows of block rows' planes into stage and return them.

    rows is a run_chunks block of m rows; stage is a worker's (len(planes),
    >= ceil(m/2), N) buffer.  The result is stage[:, :ceil(m/2)], whose
    i-th half-plane is drawn from the stream of plane planes[i]
    (_block_streams); row j of a half-plane is row 2j of the block's plane.
    """
    z = stage[:, : (rows.stop - rows.start + 1) // 2]
    for gen, half in zip(_block_streams(seed, rows.start // BLOCK_SIZE, planes), z):
        gen.standard_normal(out=half)
    return z


def _negate_pairs(a: np.ndarray) -> None:
    """a[2j+1] = -a[2j] along axis 0, for every whole pair of a's rows."""
    np.negative(a[: a.shape[0] - 1 : 2], out=a[1::2])


def _scale_increments(z, dt, rho, dW, dB, tmp) -> None:
    """Fill dW and dB from one block's standard normals z0 = z[0], z1 = z[1].

    dW = z0*sqrt(dt) and dB = rho*dW + sqrt(1-rho^2)*(z1*sqrt(dt)), in that
    order of operations, with rho*dW held in tmp on the way.  The outputs
    must not alias z; tmp may be z[0], which is read before tmp is written
    (otherwise z is only read: one half-tile may be scaled for several
    grids).  Every step is odd in z, so the negated half-rows scale to the
    exact negations.
    """
    sq_dt = np.sqrt(dt)
    np.multiply(z[0], sq_dt, out=dW)
    np.multiply(z[1], sq_dt, out=dB)
    np.multiply(dB, np.sqrt(1.0 - rho * rho), out=dB)
    np.multiply(dW, rho, out=tmp)
    np.add(dB, tmp, out=dB)


def sample_correlated_increments(
    grid: TimeGrid, rho: float, n_paths: int, seed: int
) -> PathIncrements:
    """Sample dW and dB = rho*dW + sqrt(1-rho^2)*dZ; dU is drawn when read.

    All three have per-column variance dt.  Identical (seed, grid, rho,
    n_paths) gives bit-identical output on any machine/thread count; the
    first m paths agree between runs with different n_paths.  Rows 2j+1
    are the exact negations of rows 2j (antithetic pairs; see
    _block_streams).  Each BLOCK_SIZE-path block is one task of
    run_chunks, which draws the block's ceil(m/2) half-rows of planes 0
    and 1 from their streams into the worker's (2, ceil(m/2), N) stage,
    scales them straight into the even rows of dW and dB, and negates
    those into the odd rows: scaling is odd in z, so each pair is exactly
    (dW, -dW) and so on, as if the paired tile had been scaled whole.  The
    auxiliary dU (plane 2) is drawn on its first read
    (PathIncrements._draw_dU), so a caller that never reads it draws
    2*ceil(m/2)*N normals per block.
    """
    _require(_correlation, rho=rho)
    n_paths = _check_int("n_paths", n_paths, 1)
    seed = _check_int("seed", seed, 0)

    N = grid.N
    dW = np.empty((n_paths, N))
    dB = np.empty((n_paths, N))

    def draw(rows: slice, stage: np.ndarray) -> None:
        z = _block_normals(seed, rows, stage, (0, 1))
        planes = dW[rows], dB[rows]
        _scale_increments(z, grid.dt, rho, *(p[::2] for p in planes), z[0])
        for p in planes:
            _negate_pairs(p)

    run_chunks(n_paths, draw, lambda height: np.empty((2, (height + 1) // 2, N)))
    return PathIncrements(
        n_paths=n_paths,
        dW=_readonly(dW),
        dB=_readonly(dB),
        rho=float(rho),
        seed=seed,
        grid=grid,
    )


def sample_terminal_brownian(grid: TimeGrid, n_paths: int, seed: int) -> np.ndarray:
    """W_T per path: the row sums of sample_correlated_increments(...).dW.

    Only a block's ceil(m/2) half-rows of plane 0 are drawn, into a
    worker's (1, ceil(m/2), N) stage: plane 0 has its own stream, so they
    are the half-rows the full draw gives.  They are scaled and
    summed into the even rows of W_T, and the odd rows take their
    negations; scaling and summing are odd in z, so the sums equal, bit
    for bit, those of the dW that the full draw gives (at any rho).
    """
    n_paths = _check_int("n_paths", n_paths, 1)
    seed = _check_int("seed", seed, 0)
    W = np.empty(n_paths)

    def draw(rows: slice, stage: np.ndarray) -> None:
        [dW] = _block_normals(seed, rows, stage, (0,))
        np.multiply(dW, np.sqrt(grid.dt), out=dW)
        np.sum(dW, axis=1, out=W[rows][::2])
        _negate_pairs(W[rows])

    run_chunks(n_paths, draw, lambda height: np.empty((1, (height + 1) // 2, grid.N)))
    return W
