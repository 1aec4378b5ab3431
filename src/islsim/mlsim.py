"""Deterministic toy ML layer: linear models over small tabular datasets.

Everything here is exactly reproducible. Training solves the normal
equations with Gaussian elimination (no BLAS, no platform variance),
fine-tuning runs full-batch gradient descent, and the synthetic data
generator draws from a fixed 64-bit linear congruential stream using
only additions and multiplications, so the bytes of a generated dataset
are identical on every platform. Serialized assets format floats with 9
significant digits; 9-digit decimals round-trip exactly through IEEE
doubles, which makes content addresses of serialized assets stable.

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
centered: mean 0, variance 1, bounded by ±6, no transcendentals).
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class RoomProfile:
    slope: float
    intercept: float
    noise_scale: float


@dataclass(frozen=True)
class TabularDataset:
    feature_names: tuple[str, ...]
    rows: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self) -> None:
        if not self.feature_names:
            raise DimensionMismatch("dataset needs at least one feature")
        for features, _ in self.rows:
            if len(features) != len(self.feature_names):
                raise DimensionMismatch(
                    f"row has {len(features)} features, schema has {len(self.feature_names)}"
                )

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def to_csv_bytes(self) -> bytes:
        lines = [",".join(self.feature_names + (TARGET_COLUMN,))]
        for features, target in self.rows:
            lines.append(",".join(format_float(v) for v in (*features, target)))
        return ("\n".join(lines) + "\n").encode("ascii")

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
        if len(header) < 2 or header[-1] != TARGET_COLUMN:
            raise ParseError(f"bad dataset header {lines[0]!r}")
        names = tuple(header[:-1])
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            if len(cells) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} columns")
            try:
                values = [float(c) for c in cells]
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric cell") from None
            rows.append((tuple(values[:-1]), values[-1]))
        return cls(names, tuple(rows))


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

    def predict(self, x: tuple[float, ...] | list[float]) -> float:
        # no builtin sum(): its float algorithm differs between Python versions
        if len(x) != len(self.weights):
            raise DimensionMismatch(f"expected {len(self.weights)} inputs, got {len(x)}")
        acc = 0.0
        for w, v in zip(self.weights, x):
            acc += w * v
        return acc + self.bias

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
    ata = [[0.0] * dim for _ in range(dim)]
    atb = [0.0] * dim
    for features, target in d.rows:
        aug = (*features, 1.0)
        for i in range(dim):
            atb[i] += aug[i] * target
            for j in range(i, dim):
                ata[i][j] += aug[i] * aug[j]
    for i in range(dim):
        for j in range(i):
            ata[i][j] = ata[j][i]

    solution = _solve(ata, atb)
    return LinearModel(tuple(solution[:p]), solution[p], d.feature_names)


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
    grad_w, grad_b = _gradient(m.weights, m.bias, d.rows)
    return tuple(grad_w), grad_b


def _gradient(weights, bias: float, rows) -> tuple[list[float], float]:
    """The loop of :func:`mse_gradient`; each prediction adds up as in ``predict``."""
    if not rows:
        raise EmptyDataset("gradient of an empty dataset is undefined")
    grad_w = [0.0] * len(weights)
    grad_b = 0.0
    for features, target in rows:
        acc = 0.0
        for w, v in zip(weights, features):
            acc += w * v
        err = acc + bias - target
        grad_b += err
        for j, x in enumerate(features):
            grad_w[j] += err * x
    scale = 2.0 / len(rows)
    return [scale * g for g in grad_w], scale * grad_b


def fine_tune(base: LinearModel, d: TabularDataset, steps: int, learning_rate: float) -> LinearModel:
    """Warm-started full-batch gradient descent on MSE.

    steps=0 is the identity; the returned model always keeps the base's
    feature order.
    """
    _check_features(base, d)
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if learning_rate <= 0:
        raise ValueError("learning rate must be positive")
    if steps == 0:
        return base
    weights, bias = base.weights, base.bias
    for _ in range(steps):
        grad_w, grad_b = _gradient(weights, bias, d.rows)
        weights = [w - learning_rate * g for w, g in zip(weights, grad_w)]
        bias -= learning_rate * grad_b
    return LinearModel(tuple(weights), bias, base.input_features)


def evaluate(m: LinearModel, d: TabularDataset) -> dict[str, float]:
    _check_features(m, d)
    if d.n_rows == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    abs_sum = 0.0
    sq_sum = 0.0
    for features, target in d.rows:
        err = m.predict(features) - target
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
_LCG_SPAN = float(1 << 53)

_X_SCALE = 0.1  # bulk half-width of the sensor excursion
_X_TAIL_COEF = 10.0  # tail weight: extremes reach ~11x the bulk scale
_X_TAIL_EXP = 9  # odd, keeps the grid symmetric around zero


def make_synthetic_room(seed: int, profile: RoomProfile, n_rows: int) -> TabularDataset:
    """Deterministic single-feature room dataset for the given seed.

    Feature values sit on the fixed quantile grid described in the
    module docstring (they do not depend on the seed); the seed drives
    only the target noise, so equal seeds give byte-identical datasets.
    """
    if n_rows < 1:
        raise ValueError("n_rows must be at least 1")
    state = seed & _LCG_MASK
    rows = []
    for i in range(n_rows):
        u = 2.0 * (i + 0.5) / n_rows - 1.0
        x = quantize(_X_SCALE * (u + _X_TAIL_COEF * u**_X_TAIL_EXP))
        noise = 0.0  # 12 uniform draws in [0, 1), 53 bits of the 64-bit state each
        for _ in range(12):
            state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
            noise += (state >> 11) / _LCG_SPAN
        y = quantize(profile.slope * x + profile.intercept + profile.noise_scale * (noise - 6.0))
        rows.append(((x,), y))
    return TabularDataset(("co2",), tuple(rows))
