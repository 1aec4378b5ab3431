"""Deterministic toy ML layer: linear models over small tabular datasets.

Everything here is exactly reproducible. Training solves the normal
equations with Gaussian elimination (no BLAS, no platform variance),
fine-tuning runs full-batch gradient descent, and the synthetic data
generator draws from a fixed 64-bit linear congruential stream using
only additions and multiplications, so the bytes of a generated dataset
are identical on every platform. Serialized assets format floats with 9
significant digits; 9-digit decimals round-trip exactly through IEEE
doubles, which makes content addresses of serialized assets stable.

A ``TabularDataset`` holds a tuple per feature column and one of
targets, built once (``from_csv_bytes`` passes each cell through one
``float()``). ``train``, ``evaluate``, ``mse_gradient`` and each
``fine_tune`` step read those columns in place, but add up in the order
a row-by-row loop would: each prediction starts at 0.0 and adds
``w * x`` feature by feature, then the bias, then minus the target; each
sum starts at 0.0 and adds the rows in order. No sum goes through the
builtin ``sum()`` (its float algorithm changed in CPython 3.12),
``math.fsum`` (exactly rounded, so other bits) or ``math.sumprod`` (not
in 3.10). ``to_csv_bytes`` renders each row with one ``%.9g`` template,
the very text ``format_float`` gives for each value.

Synthetic room data
-------------------
``make_synthetic_room`` lays feature values on a deterministic symmetric
quantile grid with a heavy polynomial tail::

    x_i = 0.1 * (u + 10 * u**9),  u = 2*(i + 0.5)/n - 1

Most mass sits in a narrow bulk around zero with sparse large
excursions, like a sensor with a quiet baseline and occasional spikes.
A handful of rows therefore rarely pins down behaviour in the tails,
which is what makes warm-starting from a model fitted on plentiful data
genuinely better than refitting from scratch on a few rows. Only the
target noise consumes random draws (12 uniforms per row, summed and
centered: mean 0, variance 1, bounded by ±6, no transcendentals). The
grid depends on the row count alone, so it is computed once per count
and kept in a small bounded cache.

The draws of up to 256 rows come from one big-int multiply-add: lane
``k`` (128 bits wide) of the multiplier and the increment holds
``M**(k+1)`` and its jump-ahead increment mod 2**64, so lane ``k`` of
``state * mult + inc`` stays below 2**128 (no carry into the next) and
its low 64 bits are the ``k + 1``-th next state. One AND keeps each
state's top 53 bits in place; a little-endian ``struct`` unpack reads
them as ints, each exactly a float and 2**64 times its draw. A row's 12
are added left to right (``reduce(add, ...)``) and the sum scaled by
2**-64. That gives the loop's bits: every partial sum is a multiple of
2**11 below 12 * 2**64, so a power-of-two scale commutes with each
rounding. The lane tables too are kept per block size in a small cache.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import islice, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    FeatureMismatch,
    ParseError,
    RankDeficient,
    TooFewRows,
)

TARGET_COLUMN = "target"

MODEL_HEADER = "islmodel v1"


def format_float(value: float) -> str:
    """Canonical 9-significant-digit rendering used in all serialized assets."""
    return format(float(value), ".9g")


def quantize(value: float) -> float:
    """The float that the canonical rendering parses back to."""
    return float(format_float(value))


class RoomProfile(NamedTuple):
    slope: float
    intercept: float
    noise_scale: float


@dataclass(frozen=True, init=False)
class TabularDataset:
    feature_names: tuple[str, ...]
    columns: tuple[tuple[float, ...], ...]  # one per feature, each in row order
    targets: tuple[float, ...]

    def __init__(self, feature_names: tuple[str, ...], rows) -> None:
        """The dataset of ``rows``, each a (features, target) pair."""
        if not feature_names:
            raise DimensionMismatch("dataset needs at least one feature")
        for features, _ in rows:
            if len(features) != len(feature_names):
                raise DimensionMismatch(
                    f"row has {len(features)} features, schema has {len(feature_names)}"
                )
        columns = tuple(zip(*[features for features, _ in rows])) or ((),) * len(feature_names)
        self.__dict__.update(feature_names=feature_names, columns=columns,  # past frozen __setattr__
                             targets=tuple(target for _, target in rows))

    @classmethod
    def _of(cls, feature_names: tuple[str, ...], columns: tuple, targets: tuple) -> "TabularDataset":
        """The dataset of these columns, kept as given; each must be as long as ``targets``."""
        d = cls.__new__(cls)
        d.__dict__.update(feature_names=feature_names, columns=columns, targets=targets)
        return d

    @property
    def rows(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        return tuple(zip(zip(*self.columns), self.targets))

    @property
    def n_rows(self) -> int:
        return len(self.targets)

    def to_csv_bytes(self) -> bytes:
        columns = self.feature_names + (TARGET_COLUMN,)
        row = ",".join(["%.9g"] * len(columns)) + "\n"  # format_float's rendering, one row at a time
        lines = [row % values for values in zip(*self.columns, self.targets)]
        return (",".join(columns) + "\n" + "".join(lines)).encode("ascii")

    @classmethod
    def from_csv_bytes(cls, data: bytes) -> "TabularDataset":
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"dataset is not ASCII CSV: {exc}") from None
        lines = [ln for ln in text.split("\n") if ln]
        if not lines:
            raise ParseError("dataset file is empty")
        header = lines[0].split(",")
        width = len(header)
        if width < 2 or header[-1] != TARGET_COLUMN:
            raise ParseError(f"bad dataset header {lines[0]!r}")
        try:  # every line's column count (the header's is right), then each cell through one float()
            if {line.count(",") for line in lines} - {width - 1}:
                raise ValueError("a line has another column count")
            body = ",".join(islice(lines, 1, None))
            del lines  # from here on the body's text alone holds the cells
            cells = list(map(float, body.split(","))) if body else []
        except ValueError:  # refuse the first bad line, as a row-by-row parse would
            for lineno, line in enumerate([ln for ln in text.split("\n") if ln][1:], start=2):
                if line.count(",") != width - 1:
                    raise ParseError(f"line {lineno}: expected {width} columns") from None
                try:
                    list(map(float, line.split(",")))
                except ValueError:
                    raise ParseError(f"line {lineno}: non-numeric cell") from None
        columns = tuple(tuple(cells[j::width]) for j in range(width - 1))
        return cls._of(tuple(header[:-1]), columns, tuple(cells[width - 1::width]))


@dataclass(frozen=True)
class LinearModel:
    weights: tuple[float, ...]
    bias: float
    input_features: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.input_features):
            raise DimensionMismatch(
                f"{len(self.weights)} weights for {len(self.input_features)} features"
            )

    def to_bytes(self) -> bytes:
        lines = [MODEL_HEADER]
        for name, weight in zip(self.input_features, self.weights):
            lines.append(f"{name},{format_float(weight)}")
        lines.append(f"bias,{format_float(self.bias)}")
        return ("\n".join(lines) + "\n").encode("ascii")

    @classmethod
    def from_bytes(cls, data: bytes) -> "LinearModel":
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"model file is not ASCII: {exc}") from None
        lines = [ln for ln in text.split("\n") if ln]
        if not lines or lines[0] != MODEL_HEADER:
            raise ParseError("missing model header")
        if len(lines) < 3 or not lines[-1].startswith("bias,"):
            raise ParseError("model file must end with a bias line")
        names = []
        weights = []
        for line in lines[1:-1]:
            name, sep, value = line.partition(",")
            if not sep:
                raise ParseError(f"bad coefficient line {line!r}")
            try:
                weights.append(float(value))
            except ValueError:
                raise ParseError(f"bad weight in line {line!r}") from None
            names.append(name)
        try:
            bias = float(lines[-1].split(",", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad bias line {lines[-1]!r}") from None
        return cls(tuple(weights), bias, tuple(names))


# ---------------------------------------------------------------- training

def train(d: TabularDataset) -> LinearModel:
    """Ordinary least squares via the normal equations.

    The (features + bias) x (features + bias) system is solved with
    Gaussian elimination under partial pivoting; a vanishing pivot means
    the bias-augmented design matrix is rank deficient.
    """
    p = len(d.feature_names)
    n = d.n_rows
    if n < p + 1:
        raise TooFewRows(f"{n} rows cannot determine {p + 1} coefficients")

    dim = p + 1  # weights plus bias, bias column is the constant 1
    aug = (*d.columns, (1.0,) * n)
    ata = [[0.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            ata[i][j] = ata[j][i] = _dot(aug[i], aug[j])
    solution = _solve(ata, [_dot(column, d.targets) for column in aug])
    return LinearModel(tuple(solution[:p]), solution[p], d.feature_names)


def _dot(a, b) -> float:
    """The sum of ``a[k] * b[k]``, from 0.0 and in the order of ``k``."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    scale = max(abs(v) for row in matrix for v in row)
    tolerance = 1e-12 * max(scale, 1.0)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot_row][col]) <= tolerance:
            raise RankDeficient("design matrix has no unique least-squares solution")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / pivot
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    out = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n]
        for j in range(i + 1, n):
            acc -= a[i][j] * out[j]
        out[i] = acc / a[i][i]
    return out


def mse_gradient(m: LinearModel, d: TabularDataset) -> tuple[tuple[float, ...], float]:
    """Analytic gradient of mean squared error w.r.t. (weights, bias)."""
    _check_features(m, d)
    *lead, w = m.weights
    grad_lead, grad_w, grad_b = _gradient(lead, w, m.bias, *_columns(d))
    return (*grad_lead, grad_w), grad_b


def _columns(d: TabularDataset) -> tuple[list, tuple, tuple, list[float]]:
    """What :func:`_gradient` and :func:`evaluate` read of ``d``: the feature columns
    but the last, the last one, the targets, and a 0.0 per row."""
    if not d.targets:
        raise EmptyDataset("gradient of an empty dataset is undefined")
    *head, last = d.columns
    return head, last, d.targets, [0.0] * len(last)


def _gradient(lead, w: float, bias: float, head, last, targets, preds) -> tuple[list[float], float, float]:
    """The gradient of MSE w.r.t. the ``lead`` weights of the ``head`` columns, the
    weight ``w`` of the ``last`` column and the bias, adding up in the order the
    module docstring fixes; ``preds`` is a 0.0 per row."""
    for v, column in zip(lead, head):
        preds = [acc + v * x for acc, x in zip(preds, column)]
    grad_b = grad_w = 0.0
    for acc, x, target in zip(preds, last, targets):
        err = acc + w * x + bias - target  # the last feature's term, the bias and the target end it
        grad_b += err
        grad_w += err * x
    scale = 2.0 / len(targets)
    grad_lead = []
    if head:  # each other column's sum reads every error once more
        errs = [acc + w * x + bias - target for acc, x, target in zip(preds, last, targets)]
        grad_lead = [scale * _dot(errs, column) for column in head]
    return grad_lead, scale * grad_w, scale * grad_b


def require_schedule(steps: int, rate: float) -> None:
    """Refuse a schedule of ``steps`` and learning ``rate`` that ``fine_tune`` does not run."""
    if type(steps) is not int or isinstance(rate, bool):  # a bool is no count or rate
        raise TypeError(f"steps must be an int and the rate a number, got {steps!r}, {rate!r}")
    if steps < 0 or not 0 < rate < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"steps must be >= 0 and the rate finite and > 0, got {steps}, {rate!r}")


def fine_tune(base: LinearModel, d: TabularDataset, steps: int, learning_rate: float) -> LinearModel:
    """Warm-started full-batch gradient descent on MSE.

    steps=0 is the identity; the returned model always keeps the base's
    feature order.
    """
    require_schedule(steps, learning_rate)
    _check_features(base, d)
    if steps == 0:
        return base
    head, last, targets, zeros = _columns(d)
    *lead, w = base.weights
    bias = base.bias
    for _ in range(steps):
        grad_lead, grad_w, grad_b = _gradient(lead, w, bias, head, last, targets, zeros)
        if lead:
            lead = [v - learning_rate * g for v, g in zip(lead, grad_lead)]
        w -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    return LinearModel((*lead, w), bias, base.input_features)


def evaluate(m: LinearModel, d: TabularDataset) -> dict[str, float]:
    _check_features(m, d)
    if d.n_rows == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    head, last, targets, preds = _columns(d)
    for w, column in zip(m.weights, head):
        preds = [acc + w * v for acc, v in zip(preds, column)]
    w, bias = m.weights[-1], m.bias
    abs_sum = sq_sum = 0.0
    for acc, x, target in zip(preds, last, targets):
        err = acc + w * x + bias - target  # as in _gradient, with no gradient sums
        abs_sum += abs(err)
        sq_sum += err * err
    n = d.n_rows
    return {"MAE": abs_sum / n, "MSE": sq_sum / n}


def _check_features(m: LinearModel, d: TabularDataset) -> None:
    if m.input_features != d.feature_names:
        raise FeatureMismatch(
            f"model expects {list(m.input_features)}, dataset has {list(d.feature_names)}"
        )


# ---------------------------------------------------------- synthetic data

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_BLOCK_ROWS = 256  # rows whose draws one multiply-add makes

_X_SCALE = 0.1  # bulk half-width of the sensor excursion
_X_TAIL_COEF = 10.0  # tail weight: extremes reach ~11x the bulk scale
_X_TAIL_EXP = 9  # odd, keeps the grid symmetric around zero


@lru_cache(maxsize=16)
def _grid(n_rows: int) -> tuple[float, ...]:
    """The feature values of an ``n_rows`` room dataset; the same for every seed."""
    values = []
    for i in range(n_rows):
        u = 2.0 * (i + 0.5) / n_rows - 1.0
        values.append(quantize(_X_SCALE * (u + _X_TAIL_COEF * u**_X_TAIL_EXP)))
    return tuple(values)


@lru_cache(maxsize=8)
def _lanes(n_rows: int) -> tuple[int, int, int, struct.Struct]:
    """The lane multiplier, increment, keep mask and reader of an ``n_rows`` block of draws."""
    mults, incs, mult, inc = bytearray(), bytearray(), 1, 0
    for _ in range(12 * n_rows):
        mult, inc = (mult * _LCG_MULT) & _LCG_MASK, (inc * _LCG_MULT + _LCG_INC) & _LCG_MASK
        mults += mult.to_bytes(16, "little")
        incs += inc.to_bytes(16, "little")
    keep = (_LCG_MASK ^ 0x7FF).to_bytes(16, "little") * (12 * n_rows)  # a state's top 53 bits
    return (int.from_bytes(mults, "little"), int.from_bytes(incs, "little"),
            int.from_bytes(keep, "little"), struct.Struct("<" + "Q8x" * (12 * n_rows)))


def make_synthetic_room(seed: int, profile: RoomProfile, n_rows: int) -> TabularDataset:
    """Deterministic single-feature room dataset for the given seed.

    Feature values sit on the fixed quantile grid described in the
    module docstring (they do not depend on the seed); the seed drives
    only the target noise, so equal seeds give byte-identical datasets.
    A profile whose targets overflow is refused like a non-finite one.
    """
    if type(seed) is not int or type(n_rows) is not int:  # a bool is no seed or count
        raise TypeError(f"seed and n_rows must be ints, got {seed!r}, {n_rows!r}")
    if n_rows < 1 or not all(map(math.isfinite, profile)):
        raise ValueError(f"n_rows must be at least 1 and the profile finite, got {n_rows}, {profile}")
    slope, intercept, noise_scale = profile
    state, sums = seed & _LCG_MASK, []
    for start in range(0, n_rows, _BLOCK_ROWS):
        mult, inc, keep, lanes = _lanes(min(_BLOCK_ROWS, n_rows - start))
        states = state * mult + inc
        state = (states >> 8 * lanes.size - 128) & _LCG_MASK  # the last lane's, whole
        draws = map(float, lanes.unpack((states & keep).to_bytes(lanes.size, "little")))
        sums += map(reduce, repeat(add), zip(*[draws] * 12))  # 12 draws a row, in order
    grid = _grid(n_rows)
    noise = map(sub, map(mul, sums, repeat(2.0**-64)), repeat(6.0))
    ys = map(add, map(add, map(mul, repeat(slope), grid), repeat(intercept)),
             map(mul, repeat(noise_scale), noise))
    targets = tuple(map(float, map("%.9g".__mod__, ys)))  # quantize(y), without its two calls
    if not all(map(math.isfinite, targets)):
        raise ValueError(f"the profile {profile} overflows a target of {n_rows} rows")
    return TabularDataset._of(("co2",), (grid,), targets)
