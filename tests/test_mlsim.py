"""Numerics: exact fits, oracle cross-checks, serialization, generator."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islsim.errors import (
    DimensionMismatch,
    EmptyDataset,
    FeatureMismatch,
    ParseError,
    RankDeficient,
    TooFewRows,
)
from islsim.mlsim import (
    LinearModel,
    RoomProfile,
    TabularDataset,
    evaluate,
    fine_tune,
    format_float,
    make_synthetic_room,
    mse_gradient,
    quantize,
    train,
)

from oracles import fd_gradient, lstsq_fit, np_metrics, ref_fine_tune, ref_mse_gradient, ref_room_rows

FOUR_POINTS = TabularDataset(
    ("co2",), (((0.0,), 1.1), ((1.0,), 2.9), ((2.0,), 5.2), ((3.0,), 6.8))
)


def random_dataset(rng, n_rows=None, n_features=None):
    p = n_features or rng.randint(1, 4)
    n = n_rows or rng.randint(p + 2, 40)
    names = ("co2", "temperature", "humidity", "power")[:p]
    rows = tuple(
        (tuple(rng.uniform(-2, 2) for _ in range(p)), rng.uniform(-3, 3))
        for _ in range(n)
    )
    return TabularDataset(names, rows)


class TestTrain:
    def test_known_four_point_fit(self):
        # by hand: slope 1.94, intercept 1.09
        m = train(FOUR_POINTS)
        assert m.weights[0] == pytest.approx(1.94, abs=1e-9)
        assert m.bias == pytest.approx(1.09, abs=1e-9)
        assert m.input_features == ("co2",)

    def test_exact_line_recovered(self):
        d = TabularDataset(("co2",), (((0.0,), 1.0), ((2.0,), 5.0)))
        m = train(d)
        assert m.weights[0] == pytest.approx(2.0, abs=1e-12)
        assert m.bias == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference_solver(self):
        rng = random.Random(7)
        for _ in range(60):
            d = random_dataset(rng)
            m = train(d)
            ref_w, ref_b = lstsq_fit(d.rows)
            for mine, ref in zip(m.weights, ref_w):
                assert mine == pytest.approx(ref, abs=1e-9)
            assert m.bias == pytest.approx(ref_b, abs=1e-9)

    def test_too_few_rows(self):
        d = TabularDataset(("co2", "power"), (((1.0, 2.0), 3.0), ((2.0, 1.0), 4.0)))
        with pytest.raises(TooFewRows):
            train(d)

    def test_rank_deficient_constant_feature(self):
        # a constant column duplicates the bias column
        d = TabularDataset(("co2",), (((5.0,), 1.0), ((5.0,), 2.0), ((5.0,), 3.0)))
        with pytest.raises(RankDeficient):
            train(d)


class TestMetrics:
    def test_known_values(self):
        m = train(FOUR_POINTS)
        got = evaluate(m, FOUR_POINTS)
        assert got["MAE"] == pytest.approx(0.12, abs=1e-12)
        assert got["MSE"] == pytest.approx(0.0205, abs=1e-12)

    def test_matches_reference(self):
        rng = random.Random(11)
        for _ in range(40):
            d = random_dataset(rng)
            m = LinearModel(
                tuple(rng.uniform(-1, 1) for _ in d.feature_names),
                rng.uniform(-1, 1),
                d.feature_names,
            )
            got = evaluate(m, d)
            ref = np_metrics(m.weights, m.bias, d.rows)
            assert got["MAE"] == pytest.approx(ref["MAE"], abs=1e-12)
            assert got["MSE"] == pytest.approx(ref["MSE"], abs=1e-12)

    def test_guards(self):
        m = train(FOUR_POINTS)
        with pytest.raises(EmptyDataset):
            evaluate(m, TabularDataset(("co2",), ()))
        with pytest.raises(FeatureMismatch):
            evaluate(m, TabularDataset(("power",), (((1.0,), 1.0),)))


class TestGradient:
    def test_hand_example(self):
        # single row (1, 2) from the zero model: error -2, so d/dw = d/db = -4
        d = TabularDataset(("co2",), (((1.0,), 2.0),))
        zero = LinearModel((0.0,), 0.0, ("co2",))
        assert mse_gradient(zero, d) == ((-4.0,), -4.0)

    def test_matches_central_differences(self):
        rng = random.Random(23)
        for _ in range(40):
            d = random_dataset(rng)
            m = LinearModel(
                tuple(rng.uniform(-1, 1) for _ in d.feature_names),
                rng.uniform(-1, 1),
                d.feature_names,
            )
            grad_w, grad_b = mse_gradient(m, d)
            ref_w, ref_b = fd_gradient(m.weights, m.bias, d.rows)
            for a, f in zip(grad_w, ref_w):
                assert abs(a - f) <= 1e-6 * max(abs(a), abs(f), 1.0)
            assert abs(grad_b - ref_b) <= 1e-6 * max(abs(grad_b), abs(ref_b), 1.0)


class TestFineTune:
    def test_one_step_by_hand(self):
        d = TabularDataset(("co2",), (((1.0,), 2.0),))
        zero = LinearModel((0.0,), 0.0, ("co2",))
        stepped = fine_tune(zero, d, 1, 0.1)
        assert stepped.weights == (0.4,)
        assert stepped.bias == 0.4

    def test_zero_steps_is_identity(self):
        m = train(FOUR_POINTS)
        assert fine_tune(m, FOUR_POINTS, 0, 0.5) is m

    def test_descends_the_loss(self):
        d = FOUR_POINTS
        m = LinearModel((0.0,), 0.0, ("co2",))
        losses = []
        for steps in (0, 5, 25, 400):
            losses.append(evaluate(fine_tune(m, d, steps, 0.05), d)["MSE"])
        assert losses == sorted(losses, reverse=True)
        # long runs approach the closed-form optimum
        assert losses[-1] == pytest.approx(evaluate(train(d), d)["MSE"], rel=1e-3)

    def test_validation(self):
        m = train(FOUR_POINTS)
        with pytest.raises(ValueError):
            fine_tune(m, FOUR_POINTS, -1, 0.1)
        with pytest.raises(ValueError):
            fine_tune(m, FOUR_POINTS, 1, 0.0)
        with pytest.raises(FeatureMismatch):
            fine_tune(m, TabularDataset(("power",), (((1.0,), 1.0),)), 1, 0.1)


class TestSerialization:
    def test_dataset_roundtrip_is_exact(self):
        d = make_synthetic_room(99, RoomProfile(2.0, 1.0, 0.05), 25)
        assert TabularDataset.from_csv_bytes(d.to_csv_bytes()) == d

    def test_csv_layout(self):
        lines = FOUR_POINTS.to_csv_bytes().decode().splitlines()
        assert lines[0] == "co2,target"
        assert lines[1] == "0,1.1"
        assert len(lines) == 5

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"co2\n1.0\n",  # no target column
            b"co2,target\n1.0\n",  # short row
            b"co2,target\n1.0,abc\n",
            b"\xff\xfe",
        ],
    )
    def test_csv_parse_errors(self, data):
        with pytest.raises(ParseError):
            TabularDataset.from_csv_bytes(data)

    def test_model_roundtrip(self):
        m = train(FOUR_POINTS)
        back = LinearModel.from_bytes(m.to_bytes())
        assert back.input_features == m.input_features
        assert back.weights[0] == pytest.approx(m.weights[0], abs=1e-15)

    def test_model_file_layout(self):
        m = LinearModel((1.5, -2.0), 0.25, ("co2", "power"))
        lines = m.to_bytes().decode().splitlines()
        assert lines == ["islmodel v1", "co2,1.5", "power,-2", "bias,0.25"]

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"wrong header\nbias,1\n",
            b"islmodel v1\nco2,1.0\n",  # missing bias line
            b"islmodel v1\nco2,x\nbias,1\n",
            b"islmodel v1\nbias,\n",
        ],
    )
    def test_model_parse_errors(self, data):
        with pytest.raises(ParseError):
            LinearModel.from_bytes(data)

    def test_dimension_guards(self):
        with pytest.raises(DimensionMismatch):
            LinearModel((1.0, 2.0), 0.0, ("co2",))
        with pytest.raises(DimensionMismatch):
            TabularDataset(("co2",), (((1.0, 2.0), 3.0),))
        m = train(FOUR_POINTS)
        with pytest.raises(DimensionMismatch):
            m.predict((1.0, 2.0))


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_quantize_is_idempotent(value):
    q = quantize(value)
    assert quantize(q) == q
    assert float(format_float(q)) == q


class TestGenerator:
    def test_same_seed_same_bytes(self):
        p = RoomProfile(2.0, 1.0, 0.05)
        a = make_synthetic_room(42, p, 30).to_csv_bytes()
        b = make_synthetic_room(42, p, 30).to_csv_bytes()
        assert a == b

    def test_seed_changes_targets_not_grid(self):
        p = RoomProfile(2.0, 1.0, 0.05)
        a = make_synthetic_room(1, p, 30)
        b = make_synthetic_room(2, p, 30)
        assert [r[0] for r in a.rows] == [r[0] for r in b.rows]
        assert [r[1] for r in a.rows] != [r[1] for r in b.rows]

    def test_single_row_sits_at_origin(self):
        d = make_synthetic_room(5, RoomProfile(2.0, 1.0, 0.0), 1)
        assert d.rows[0][0] == (0.0,)
        assert d.rows[0][1] == 1.0  # no noise: the intercept comes back exactly

    def test_grid_is_symmetric_and_heavy_tailed(self):
        d = make_synthetic_room(5, RoomProfile(0.0, 0.0, 0.0), 200)
        xs = [r[0][0] for r in d.rows]
        assert xs == sorted(xs)
        for lo, hi in zip(xs, reversed(xs)):
            assert lo == pytest.approx(-hi, abs=1e-9)
        bulk = sum(1 for x in xs if abs(x) < 0.12)
        assert bulk > 140  # most mass near zero
        assert max(xs) > 0.9  # with genuine far excursions

    def test_noise_is_bounded(self):
        p = RoomProfile(0.0, 0.0, 1.0)
        d = make_synthetic_room(3, p, 500)
        targets = [r[1] for r in d.rows]
        assert all(abs(t) <= 6.0 for t in targets)
        assert abs(sum(targets) / len(targets)) < 0.2
        assert 0.5 < math.fsum(t * t for t in targets) / len(targets) < 1.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_synthetic_room(1, RoomProfile(1.0, 0.0, 0.1), 0)

    def test_values_are_quantized_at_birth(self):
        d = make_synthetic_room(17, RoomProfile(2.0, 1.0, 0.05), 40)
        for features, target in d.rows:
            assert features[0] == quantize(features[0])
            assert target == quantize(target)


@settings(max_examples=30)
@given(st.integers(0, 2**30), st.integers(1, 60))
def test_generator_row_count_and_schema(seed, n):
    d = make_synthetic_room(seed, RoomProfile(1.0, 0.5, 0.1), n)
    assert d.n_rows == n
    assert d.feature_names == ("co2",)


# ------------------------------------------------ bit-exact references

NAMES = ("co2", "temperature", "humidity", "power")
coefficient = st.floats(-3.0, 3.0)


@st.composite
def model_and_dataset(draw):
    p = draw(st.integers(1, 4))
    row = st.tuples(st.tuples(*[st.floats(-2.0, 2.0)] * p), st.floats(-5.0, 5.0))
    rows = tuple(draw(st.lists(row, min_size=1, max_size=30)))
    weights = tuple(draw(st.lists(coefficient, min_size=p, max_size=p)))
    return LinearModel(weights, draw(coefficient), NAMES[:p]), TabularDataset(NAMES[:p], rows)


@given(
    st.integers(-(2**70), 2**70),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(0.0, 10.0),
    st.integers(1, 200),
)
def test_generator_is_bit_identical_to_the_reference(seed, slope, intercept, noise_scale, n):
    d = make_synthetic_room(seed, RoomProfile(slope, intercept, noise_scale), n)
    ref = ref_room_rows(seed, slope, intercept, noise_scale, n)
    assert d.rows == ref
    assert d.to_csv_bytes() == TabularDataset(("co2",), ref).to_csv_bytes()


@given(model_and_dataset(), st.integers(0, 60), st.floats(1e-3, 0.3))
def test_gradient_and_fine_tune_are_bit_identical_to_the_reference(pair, steps, learning_rate):
    m, d = pair
    assert mse_gradient(m, d) == ref_mse_gradient(m.weights, m.bias, d.rows)
    tuned = fine_tune(m, d, steps, learning_rate)
    ref_w, ref_b = ref_fine_tune(m.weights, m.bias, d.rows, steps, learning_rate)
    assert (tuned.weights, tuned.bias) == (ref_w, ref_b)
    assert tuned.to_bytes() == LinearModel(ref_w, ref_b, m.input_features).to_bytes()
