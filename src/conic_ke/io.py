"""Serialization: CSV tables with full double precision, JSON manifests.

Numbers print exactly as FMT = %.17g prints them, so re-reading reproduces
the exact doubles and byte-identical reruns are possible.  A table is
handed over as columns, and all its number columns are formatted at once by
a numpy kernel, `_format_column`: it scales |x| by a power of ten in long
double, rounds to 17 digits where the rounding error provably cannot move
the result, and lays the digits out from lookup tables built on first use.
Every other cell (NaN, infinities, zeros, near ties, a carry to the next
decade, every cell where long double is no wider than double) goes through
FMT itself, so FMT stays the one specification.  The node column of a
potential profile is formatted once per grid and then reused.
"""

from __future__ import annotations

import json
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from .geometry import Grid, RadialKahlerPotential

FMT = "%.17g"


def format_number(x) -> str:
    return FMT % float(x)


_WIDTH = 24                  # longest FMT cell: -2.2250738585072014e-308
_PAD = 0xFF                  # fills each cell to _WIDTH; no UTF-8 text holds it
_E_MIN, _E_MAX = -324, 308   # decimal exponents of the nonzero finite doubles

# The unit in the last place of a long double 1.  The long-double product y
# of `_format_block` lies within half its last place, so within y _LD_EPS / 2,
# of the exact |x| 10^(16-e) when the power of ten is exact, and within
# 2 y _LD_EPS when the power is rounded too (two roundings, with margin).
_LD_EPS = float(np.finfo(np.longdouble).eps)

# Each cell is laid out from a 28-byte row of uint32 words: sign and leading
# digit, four words of four digits, the exponent text, then constant bytes.
_SIGN, _LEAD, _EXP, _DOT, _ZERO, _BLANK, _E = 0, 3, 20, 24, 25, 26, 27
_ROW = 28
_BLOCK = 4096                # most cells per pass of `_format_block`


@lru_cache(maxsize=1)
def _tables():
    """The powers of ten, their error factors and the digit and layout tables
    of `_format_column`, built on its first call."""
    k = np.arange(16 - _E_MAX, 17 - _E_MIN)
    pow10 = np.array([f"1e{i}" for i in k.tolist()], dtype=np.longdouble)
    exact = (k >= 0) & (5.0 ** np.maximum(k, 0) < 2.0 ** (np.finfo(np.longdouble).nmant + 1))
    slack = np.where(exact, 0.5, 2.0)
    digits = np.arange(ord("0"), ord("9") + 1)
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)       # the text of 0000 to 9999
    for i in range(4):
        quads[..., i] = digits.reshape((10,) + (1,) * (3 - i))
    quads = quads.reshape(10000, 4)
    trailing = np.zeros(10000, np.intp)                     # its trailing zeros
    run = np.ones(10000, bool)
    for i in (3, 2, 1, 0):
        run &= quads[:, i] == ord("0")
        trailing += run
    # the first word of a row: sign, two blanks and the leading digit
    lead = np.frombuffer(b"".join(sign + b"\xff\xff" + bytes([c]) for sign in (b"\xff", b"-")
                                  for c in b"0123456789"), np.uint32)
    exps = np.frombuffer(b"".join((b"%+03d" % e).ljust(4, b"\xff")
                                  for e in range(_E_MIN, _E_MAX + 1)), np.uint32)
    const = np.frombuffer(b".0\xffe", np.uint32)[0]       # _DOT, _ZERO, _BLANK, _E

    # the source of body position b (cell column b + 1) for e = -5 and 17
    # (scientific), 0 <= e <= 16 and -4 <= e <= -1 (fixed, "0.000ddd")
    e = np.arange(-5, 18)[:, None]
    b = np.arange(_WIDTH - 1)
    sci = (e < -4) | (e > 16)
    small = (e < 0) & ~sci
    point = np.where(sci, 0, e) + 1         # body position of "." unless small
    shift = 1 - e                           # body position of digit 0 if small
    digit = np.where(small, b - shift, np.where(b < point, b, b - 1))
    is_digit = np.where(small, (b >= shift) & (b <= shift + 16), (b != point) & (b <= 17))
    is_dot = np.where(small, b == 1, b == point)
    src = np.select([is_digit, is_dot, small & (b < shift), sci & (b == 18), sci & (b > 18)],
                    [_LEAD + digit, _DOT, _ZERO, _E, _EXP + b - 19], _BLANK)
    # a fraction digit after the last nonzero one, and then a bare ".", go
    drop = np.select([is_digit & (small | (b > point)), is_dot & ~small], [digit, point], -1)
    layout = np.full((e.size, 17, _WIDTH), _SIGN, np.uint8)
    layout[:, :, 1:] = np.where(drop[:, None, :] > np.arange(17)[:, None], _BLANK, src[:, None, :])
    return (pow10, slack, quads.view(np.uint32).ravel(), trailing, lead, exps, const,
            layout.reshape(-1, _WIDTH))


def _format_column(x: np.ndarray) -> np.ndarray:
    """Each cell `FMT % v` of the float64 array `x`, as the rows of an
    (n, _WIDTH) uint8 array padded with _PAD.  It is formatted in equal
    blocks of at most `_BLOCK` cells, so that the work arrays stay in cache."""
    cells = np.empty((x.size, _WIDTH), np.uint8)
    blocks = max(1, -(-x.size // _BLOCK))
    bounds = [x.size * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _format_block(x[lo:hi], cells[lo:hi])
    return cells


def _format_block(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the cells `FMT % v` of the float64 array `x` into `cells`.

    With e = floor(log10|x|), y = |x| 10^(16-e) is formed in long double.
    Its distance to the exact product is below y `_LD_EPS` times the power's
    error factor, so the 17-digit integer nearest the exact product is the
    one nearest y whenever y lies farther than that from a half-integer.
    Lanes that cannot be decided so, and a carry to 10^17, go through FMT.
    """
    pow10, slack, quads, trailing, lead, exps, const, layout = _tables()
    n = x.size
    a = np.abs(x)
    live = (a > 0) & (a < np.inf)
    a[~live] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    a = a.astype(np.longdouble)
    y = a * pow10[_E_MAX - e]
    off = np.flatnonzero((y < 1e16) | (y >= 1e17))     # log10 missed the decade
    if off.size:
        e[off] = np.clip(e[off] + np.where(y[off] < 1e16, -1, 1), _E_MIN, _E_MAX)
        y[off] = a[off] * pow10[_E_MAX - e[off]]
    d = y.astype(np.int64)
    # y - d - 0.5 is exact; as a double it keeps its sign, and its value
    # wherever it is near the bound (a small multiple of y's last place)
    half = (y - d - 0.5).astype(np.float64)
    ok = live & (np.abs(half) > y.astype(np.float64) * (_LD_EPS * slack[_E_MAX - e]))
    d += half > 0
    ok &= (d >= 10**16) & (d < 10**17)

    first = d // 10**16
    rest = d - first * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g0 = high // 10**4
    g2 = low // 10**4
    groups = (g0, high - g0 * 10**4, g2, low - g2 * 10**4)
    row = np.empty((n, _ROW // 4), np.uint32)
    row[:, 0] = lead.take(first + 10 * np.signbit(x), mode="clip")
    for i, g in enumerate(groups):
        row[:, 1 + i] = quads[g]
    row[:, 5] = exps[e - _E_MIN]
    row[:, 6] = const
    zeros = trailing[groups[3]]
    for j in (1, 2, 3):                 # past a group of 0000, count on in the next
        z = zeros == 4 * j
        zeros[z] += trailing[groups[3 - j][z]]
    key = (np.clip(e, -5, 17) + 5) * 17 + (16 - zeros)
    np.take(row.view(np.uint8).ravel(), layout[key] + np.arange(0, n * _ROW, _ROW)[:, None],
            out=cells)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = b"".join((FMT % v).encode().ljust(_WIDTH, b"\xff") for v in x[bad].tolist())
        cells[bad] = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)


def _text_column(col) -> np.ndarray:
    """The UTF-8 bytes of each string of `col` as the rows of a uint8 array
    padded with _PAD."""
    enc = [s.encode() for s in col]
    lengths = np.array([len(s) for s in enc], dtype=np.intp)
    cells = np.full((len(enc), lengths.max(initial=0)), _PAD, np.uint8)
    cells[np.arange(cells.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(enc), np.uint8)
    return cells


def _cells_or_numbers(path: Path, i: int, col) -> np.ndarray:
    """Column `i` as cells (a 2-D uint8 array) or as float64 numbers."""
    if isinstance(col, np.ndarray) and col.ndim == 2:      # from `_format_column`
        return col
    if isinstance(col, np.ndarray) and col.dtype.kind in "biuf":
        return np.asarray(col, dtype=np.float64)
    text = len(col) > 0 and isinstance(col[0], str)
    if any(isinstance(v, str) != text for v in col):
        raise TypeError(f"{path}: column {i} mixes text and numbers")
    return _text_column(col) if text else np.fromiter(map(float, col), np.float64, len(col))


def write_csv(path, header: list[str], columns) -> None:
    """One line per row: strings as given, numbers as FMT prints them.

    Each of `columns` is a numpy array of numbers, a sequence of numbers, a
    sequence of strings (a column whose first cell is a `str`) or cells
    already formatted by `_format_column`.  Columns of unequal length, a
    text column with a cell that is not a `str` and a number column with a
    `str` cell raise TypeError instead of being written in another format.
    The number columns are formatted together, by one `_format_column`.
    """
    path = Path(path)
    cols = [_cells_or_numbers(path, i, col) for i, col in enumerate(columns)]
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise TypeError(f"{path}: columns of unequal lengths {sorted(lengths)}")
    n = lengths.pop() if cols else 0
    numbers = [c for c in cols if c.ndim == 1]
    if numbers:
        formatted = iter(_format_column(np.concatenate(numbers)).reshape(len(numbers), n, _WIDTH))
        cols = [next(formatted) if c.ndim == 1 else c for c in cols]
    table = np.empty((n, sum(c.shape[1] + 1 for c in cols)), np.uint8)
    at = 0
    for c in cols:
        table[:, at:at + c.shape[1]] = c
        table[:, at + c.shape[1]] = ord(",")
        at += c.shape[1] + 1
    if cols:
        table[:, -1] = ord("\n")
    path.write_bytes((",".join(header) + "\n").encode()
                     + table.tobytes().translate(None, b"\xff"))


@lru_cache(maxsize=1)
def _node_column(grid: Grid) -> np.ndarray:
    """The grid nodes as `_format_column` cells, kept for the last grid written."""
    cells = _format_column(grid.t)
    cells.setflags(write=False)
    return cells


POTENTIAL_HEADER = ["t", "phi_prime", "phi_doubleprime"]


def potential_table(pot: RadialKahlerPotential) -> tuple[list[str], list]:
    """A profile as (header, columns) for `write_csv`."""
    return POTENTIAL_HEADER, [_node_column(pot.grid), pot.phi_prime, pot.phi_doubleprime]


def read_potential_csv(path) -> RadialKahlerPotential:
    """A `potential_table` CSV as a profile: base offset 0, cone fractions 1."""
    path = Path(path)
    with warnings.catch_warnings():      # an empty table is reported below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3 or data.shape[0] < 3:
        raise ValueError(f"{path}: expected columns t,phi_prime,phi_doubleprime "
                         f"and at least 3 rows, got a {data.shape[0]}x{data.shape[1]} table")
    t = data[:, 0]
    n = t.size
    grid = Grid(float(t[0]), float(t[-1]), n)
    if not np.allclose(grid.t, t, rtol=0, atol=1e-12):
        raise ValueError(f"{path}: nodes are not a uniform symmetric grid")
    return RadialKahlerPotential(grid, data[:, 1], data[:, 2])


def potential_manifest(pot: RadialKahlerPotential) -> dict:
    """The potential's manifest keys; its grid is the manifest's own `grid`."""
    return {"base_offset": pot.base_offset, "cone_angle": pot.cone.beta}


def write_manifest(path, command: str, config: dict, outputs: list[str],
                   grid: Grid | None = None, wall_clock: float | None = None,
                   extra: dict | None = None) -> None:
    """Run manifest: config echo, version, outputs, timing.

    The wall clock is the run's duration in seconds, informational and
    null when not given; reproducibility comparisons cover the data files
    listed under "outputs".
    """
    from . import __version__
    doc = {
        "command": command,
        "config": config,
        "version": __version__,
        "outputs": sorted(outputs),
        "wall_clock_seconds": wall_clock,
    }
    if grid is not None:
        doc["grid"] = {"t_min": grid.t_min, "t_max": grid.t_max, "n_nodes": grid.n_nodes}
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
