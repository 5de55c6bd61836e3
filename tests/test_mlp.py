import math
import os
import platform
import struct
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import digitrec
from digitrec import mlp
from digitrec.evaluation import make_folds, make_toy_dataset
from digitrec.mlp import (INPUT_SIZE, MAX_LAYER_SIZE, OUTPUT_SIZE, PATIENCE, BadMagicError,
                          DimensionMismatchError, EmptyDatasetError,
                          MlpModel, ModelFormatError,
                          ShapeMismatchError,
                          TrainingConfig, TrainingDivergedError, TruncatedStreamError,
                          VersionMismatchError, forward,
                          gradient, init_model,
                          load_model, predict, random_model, sample_error,
                          save_model, sigmoid, stop_state, train)


def small_config(**overrides):
    base = dict(hidden_size=6, learning_rate=0.5, momentum=0.0,
                max_epochs=50, seed=7)
    base.update(overrides)
    return TrainingConfig(**base)


def random_samples(rng, count, input_size, labels=range(10)):
    """(x, labels): count random rows, labelled in turn from labels."""
    labels = list(labels)
    return (np.array([rng.random(input_size) for _ in range(count)]),
            np.array([labels[i % len(labels)] for i in range(count)]))


# ---------------------------------------------------------------------------
# Construction and validation

def test_init_is_deterministic_and_bounded():
    a = random_model([INPUT_SIZE, 65, OUTPUT_SIZE], seed=1)
    b = random_model([INPUT_SIZE, 65, OUTPUT_SIZE], seed=1)
    assert [w.shape for w in a.weights] == [(65, 77), (10, 66)]
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
        assert (np.abs(wa) <= 0.5).all()
    c = random_model([INPUT_SIZE, 65, OUTPUT_SIZE], seed=2)
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


def test_init_model_uses_config_sizes():
    model = init_model(small_config(hidden_size=12, seed=3))
    assert model.layer_sizes == [INPUT_SIZE, 12, OUTPUT_SIZE]
    assert model.input_size == INPUT_SIZE
    assert model.output_size == OUTPUT_SIZE


def test_bad_layer_sizes_rejected():
    # The network has exactly one hidden layer. ShapeMismatchError is a ValueError.
    for sizes in ([76], [76, 0, 10], [76, 7, 5, 10]):
        with pytest.raises(ShapeMismatchError):
            random_model(sizes, seed=1)


@pytest.mark.parametrize("shapes", [
    [(5, 77), (3, 6), (2, 4)],  # two hidden layers
    [(5, 77)], [],
    [(5, 77), (10, 5)],  # the output rows do not take the 5 hidden units plus a bias
    [(0, 77), (10, 1)], [(5, 1), (10, 6)], [(5, 77), (0, 6)],  # a layer of no units
    [(77,), (10, 6)], [(5, 77), (1, 10, 6)]])
def test_model_takes_two_chained_matrices_only(shapes):
    # Unchecked, a three-matrix model ran forward as a 76-5-3-2 network.
    with pytest.raises(ShapeMismatchError):
        MlpModel([np.zeros(shape) for shape in shapes])


def test_config_validation():
    for bad in (dict(hidden_size=0), dict(learning_rate=-0.1),
                dict(momentum=1.0), dict(momentum=-0.1),
                dict(max_epochs=-1), dict(seed=-1)):
        with pytest.raises(ValueError):
            small_config(**bad)
    # Unchecked, each fails later with an untyped TypeError.
    for name in ("hidden_size", "max_epochs", "seed"):
        for value in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                small_config(**{name: value})
        small_config(**{name: np.int64(3)})
    # Zero learning rate and zero epochs are valid edge settings.
    small_config(learning_rate=0.0, max_epochs=0)


def test_config_bounds_hidden_size_by_the_model_format():
    # The model file stores each layer size as a u32; a larger size could never be saved.
    assert MAX_LAYER_SIZE == 2**32 - 1 == struct.unpack("<I", b"\xff" * 4)[0]
    small_config(hidden_size=MAX_LAYER_SIZE)  # a config allocates nothing
    for value in (MAX_LAYER_SIZE + 1, 10**10, 10**20, np.uint64(2**63)):
        with pytest.raises(ValueError, match=f"hidden_size must lie in 1..{MAX_LAYER_SIZE}"):
            small_config(hidden_size=value)


def test_config_rejects_non_finite_hyperparameters():
    for name in ("learning_rate", "momentum"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_config(**{name: value})


# ---------------------------------------------------------------------------
# Forward pass

def test_forward_zero_weights_gives_halves():
    model = MlpModel([np.zeros((5, 77)), np.zeros((10, 6))])
    out = forward(model, np.linspace(0, 1, 76))
    np.testing.assert_array_equal(out, np.full(10, 0.5))
    assert predict(model, np.linspace(0, 1, 76)) == 0  # first of the tied maxima


def test_forward_matches_hand_computation():
    # 1-1-1 network small enough to evaluate with plain math.exp.
    model = MlpModel([np.array([[0.3, -0.1]]), np.array([[0.7, 0.2]])])
    x = 0.5
    h = 1 / (1 + math.exp(-(0.3 * x - 0.1)))
    o = 1 / (1 + math.exp(-(0.7 * h + 0.2)))
    np.testing.assert_allclose(forward(model, np.array([x])), [o], rtol=1e-14)


def test_forward_outputs_stay_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(21))
    model = random_model([8, 5, 4], seed=21)
    for _ in range(20):
        out = forward(model, rng.uniform(-3, 3, 8))
        assert ((out > 0) & (out < 1)).all()


def test_sigmoid_is_stable_at_extremes():
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_sigmoid_has_the_bits_of_the_earlier_formula():
    # The earlier sigmoid, where(x >= 0, 1, t) / (1 + t) with t = exp(-|x|),
    # written out; oracle_train calls the package's sigmoid, so this is what
    # ties the model-bytes oracles to the earlier arithmetic.
    rng = np.random.Generator(np.random.PCG64(5))
    tiny = 10.0 ** rng.uniform(-320, 2, 2000)
    x = np.concatenate([rng.normal(0, 4, 20000), rng.normal(0, 300, 2000), tiny, -tiny,
                        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.2, -745.2, 1e308]])
    t = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0, t) / (1.0 + t)
    assert sigmoid(x).tobytes() == want.tobytes()
    # Into out and work, on a strided view, as the training step calls it.
    rows = x[:26004].reshape(3, -1)[::-1]
    got = np.empty(rows.shape)
    sigmoid(rows, got, np.empty((2, *rows.shape)))
    assert got.tobytes() == want[:26004].reshape(3, -1)[::-1].tobytes()
    assert np.isnan(sigmoid(np.array([np.nan]))).all()


def test_forward_rejects_wrong_input_size():
    model = random_model([4, 3, 10], seed=5)
    with pytest.raises(DimensionMismatchError):
        forward(model, np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=3, max_size=3),
       n=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
@example(sizes=[76, 7, 10], n=0, seed=1)
@example(sizes=[76, 7, 10], n=40, seed=2)
@example(sizes=[76, 65, 10], n=300, seed=3)
def test_forward_on_rows_equals_one_call_per_row(sizes, n, seed):
    model = random_model(sizes, seed)
    x = np.random.Generator(np.random.PCG64(seed)).uniform(-3, 3, (n, sizes[0]))
    want = np.array([forward(model, row) for row in x]).reshape(n, sizes[-1])
    assert np.array_equal(forward(model, x), want)


def test_batched_error_rows_equal_sample_error():
    # digitrec train sums the rows form for its sse; each row must be the
    # one-vector error to the bit.
    data = make_toy_dataset(4, 0.1, 8)
    model = random_model([76, 9, 10], seed=8)
    errors = sample_error(model, data.features, data.labels)
    assert errors.shape == (len(data),)
    assert errors.tolist() == [sample_error(model, x, label)
                               for x, label in zip(data.features, data.labels)]
    for labels in (data.labels[:-1], data.labels[:1], np.append(data.labels, 0)):
        with pytest.raises(DimensionMismatchError):
            sample_error(model, data.features, labels)
    with pytest.raises(DimensionMismatchError):
        sample_error(model, data.features[0], data.labels[:1])  # one vector takes one label


def test_forward_and_predict_reject_other_shapes():
    model = random_model([4, 3, 10], seed=5)
    for bad in (np.zeros((2, 3, 4)), np.zeros((3, 5)), np.zeros((0, 3)), np.float64(1.0)):
        with pytest.raises(DimensionMismatchError):
            forward(model, bad)
    # A batch has no single label; argmax over it flattened would be nonsense.
    for bad in (np.zeros((2, 4)), np.zeros((1, 4)), np.zeros((2, 3, 4))):
        with pytest.raises(DimensionMismatchError):
            predict(model, bad)


def test_sample_error_zero_weights():
    model = MlpModel([np.zeros((5, 5)), np.zeros((10, 6))])
    # All outputs 0.5, one target 1 and nine targets 0: E = 10 * 0.125.
    assert sample_error(model, np.zeros(4), 3) == 1.25


# ---------------------------------------------------------------------------
# Gradient

def finite_difference(model, x, label, step=1e-5):
    grads = []
    for w in model.weights:
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            plus = sample_error(model, x, label)
            w[idx] = orig - step
            minus = sample_error(model, x, label)
            w[idx] = orig
            fd[idx] = (plus - minus) / (2 * step)
        grads.append(fd)
    return grads


@pytest.mark.parametrize("sizes", [[4, 3, 10]])
def test_gradient_matches_finite_differences(sizes):
    rng = np.random.Generator(np.random.PCG64(22))
    model = random_model(sizes, seed=22)
    x = rng.random(sizes[0])
    analytic = gradient(model, x, 2)
    for an, fd in zip(analytic, finite_difference(model, x, 2)):
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_gradient_is_exactly_zero_when_saturated():
    # Pre-activations of +/-800 drive the sigmoid to exact 0.0 or 1.0,
    # so the derivative factor vanishes and every gradient entry is 0.
    model = MlpModel([np.full((3, 3), 800.0), np.full((10, 4), 800.0)])
    assert sample_error(model, np.ones(2), 3) == 4.5  # nine outputs off by one
    for g in gradient(model, np.ones(2), 3):
        assert (g == 0.0).all()


# ---------------------------------------------------------------------------
# Training

def test_train_zero_learning_rate_changes_nothing():
    model = random_model([4, 3, 10], seed=9)
    before = [w.copy() for w in model.weights]
    rng = np.random.Generator(np.random.PCG64(9))
    x, labels = random_samples(rng, 6, 4)
    ret, history = train(model, x, labels, small_config(learning_rate=0.0, max_epochs=3))
    assert ret is model
    assert len(history) == 3
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_train_zero_epochs_returns_empty_history():
    model = random_model([4, 3, 10], seed=9)
    before = [w.copy() for w in model.weights]
    _, history = train(model, np.zeros((1, 4)), [1], small_config(max_epochs=0))
    assert history == []
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_train_memorizes_a_single_sample():
    model = random_model([4, 8, 10], seed=11)
    x = np.array([0.9, 0.1, 0.4, 0.7])
    _, history = train(model, x[None], [3],
                       small_config(learning_rate=0.8, momentum=0.7, max_epochs=500))
    assert predict(model, x) == 3
    assert sample_error(model, x, 3) < 0.01
    assert history[-1] < history[0]


def test_single_update_reduces_that_samples_error():
    rng = np.random.Generator(np.random.PCG64(23))
    for trial in range(5):
        model = random_model([5, 4, 10], seed=100 + trial)
        x, label = rng.random(5), int(rng.integers(10))
        before = sample_error(model, x, label)
        train(model, x[None], [label], small_config(learning_rate=1e-3, momentum=0.0,
                                                    max_epochs=1))
        assert sample_error(model, x, label) < before


def test_train_separates_two_clusters():
    rng = np.random.Generator(np.random.PCG64(24))
    rows = []
    for i in range(20):
        rows.append(np.array([0.2, 0.8]) + rng.uniform(-0.05, 0.05, 2))
        rows.append(np.array([0.8, 0.2]) + rng.uniform(-0.05, 0.05, 2))
    x, labels = np.array(rows), np.tile([0, 1], 20)
    model = random_model([2, 6, 10], seed=24)
    train(model, x, labels, small_config(learning_rate=0.8, momentum=0.7, max_epochs=200))
    assert all(predict(model, row) == label for row, label in zip(x, labels))


def test_train_is_deterministic_for_a_seed():
    rng = np.random.Generator(np.random.PCG64(25))
    x, labels = random_samples(rng, 12, 4)
    runs = []
    for _ in range(2):
        model = random_model([4, 5, 10], seed=31)
        _, history = train(model, x.copy(), labels.copy(),
                           small_config(max_epochs=20, momentum=0.5))
        runs.append((model, history))
    assert runs[0][1] == runs[1][1]
    for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
        np.testing.assert_array_equal(wa, wb)


def test_momentum_zero_equals_plain_sgd():
    # With momentum 0 each update must be exactly -lr * gradient; compare
    # against a separately written update loop, bit for bit.
    rng = np.random.Generator(np.random.PCG64(26))
    x, labels = random_samples(rng, 8, 3)
    config = small_config(max_epochs=4, learning_rate=0.3, momentum=0.0,
                          seed=13)
    model = random_model([3, 4, 10], seed=41)
    oracle = [w.copy() for w in model.weights]
    train(model, x, labels, config)

    order_rng = np.random.Generator(np.random.PCG64(config.seed))
    for _ in range(config.max_epochs):
        for idx in order_rng.permutation(len(x)):
            acts = [np.asarray(x[idx], dtype=float)]
            for w in oracle:
                acts.append(sigmoid(np.einsum("hk,k->h", w, np.concatenate([acts[-1], [1.0]]))))
            target = np.zeros(10)
            target[labels[idx]] = 1.0
            delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
            for i in range(len(oracle) - 1, -1, -1):
                grad = np.outer(delta, np.concatenate([acts[i], [1.0]]))
                if i > 0:
                    back = np.einsum("oh,o->h", oracle[i][:, :-1], delta)
                    delta = back * acts[i] * (1.0 - acts[i])
                oracle[i] = oracle[i] - config.learning_rate * grad

    for w, o in zip(model.weights, oracle):
        np.testing.assert_array_equal(w, o)


def test_train_stops_early_when_error_stalls():
    # Saturated weights make every gradient exactly zero, so the epoch
    # error never improves and the stop rule must fire.
    model = MlpModel([np.full((3, 5), 800.0), np.full((10, 4), 800.0)])
    _, history = train(model, np.ones((1, 4)), [3], small_config(max_epochs=50))
    assert history == [4.5] * 21  # PATIENCE + 1 epochs, then stop


def test_train_rejects_bad_data():
    model = random_model([4, 3, 10], seed=1)
    with pytest.raises(EmptyDatasetError):
        train(model, np.zeros((0, 4)), [], small_config())
    pair = [model, random_model([4, 3, 10], seed=2)]
    with pytest.raises(EmptyDatasetError):
        train(pair, np.zeros((2, 4)), [1, 2], small_config(), [np.arange(2), np.arange(0)])
    with pytest.raises(ValueError, match="2 models but 1 arrays of rows"):
        train(pair, np.zeros((2, 4)), [1, 2], small_config(), [np.arange(2)])
    # Each run's rows index x: -1 would train on the last row without a word.
    for bad in ([np.array([0, -1]), np.array([1, 2])], [np.array([0, 9]), np.array([1, 2])],
                [np.array([0.0, 1.0]), np.array([1, 2])]):
        with pytest.raises(ValueError, match=r"rows must be 1-D arrays of ints in 0\.\.5"):
            train(pair, np.zeros((6, 4)), [1] * 6, small_config(), bad)
    # rows picks rows for each of a list of models, and a list needs it.
    with pytest.raises(ValueError, match="rows must be given with a list of models"):
        train(model, np.zeros((20, 4)), [1] * 20, small_config(), rows=np.arange(5))
    with pytest.raises(ValueError, match="rows must be given with a list of models"):
        train([model], np.zeros((20, 4)), [1] * 20, small_config())
    for x, labels in ((np.zeros(4), [1]),  # one vector, not a matrix of rows
                      (np.zeros(4), 1),
                      (np.zeros((2, 5)), [1, 2]),  # rows wider than the input
                      (np.zeros((3, 4)), [1, 2]),  # fewer labels than rows
                      (np.zeros((2, 4)), [1, 2, 3]),
                      (np.zeros((2, 4)), [[1], [2]]),
                      (np.zeros((2, 4)), [0.0, 1.0])):  # a float label is no index
        with pytest.raises(DimensionMismatchError):
            train(model, x, labels, small_config())


def test_diverged_training_names_the_learning_rate_and_the_layer():
    # The weights are not from a file, so the error is not a ModelFormatError.
    data = make_toy_dataset(per_class=3, noise=0.05, seed=1)
    config = TrainingConfig(hidden_size=5, learning_rate=1e9, max_epochs=30)
    with pytest.raises(TrainingDivergedError) as info:
        train(init_model(config), data.features, data.labels, config)
    assert not isinstance(info.value, ModelFormatError)
    assert str(info.value) == ("training diverged at learning rate 1000000000.0: "
                               "weight outside [-1e6, 1e6] in layer 1")


@pytest.mark.parametrize("label", [3, 10, -1, -4])
def test_labels_past_the_output_width_are_rejected(label):
    # A 3-output model knows labels 0..2 only. np.eye(3)[-1] would
    # silently train or score a negative label as label 2.
    narrow = random_model([4, 3, 3], seed=1)
    with pytest.raises(DimensionMismatchError):
        train(narrow, np.zeros((3, 4)), [0, 1, label], small_config())
    with pytest.raises(DimensionMismatchError):
        gradient(narrow, np.zeros(4), label)
    with pytest.raises(DimensionMismatchError):
        sample_error(narrow, np.zeros(4), label)


def test_gradient_takes_one_label_per_row():
    # Unchecked, two labels broadcast over one vector into (2, ...) "gradients".
    model = random_model([4, 3, 10], seed=5)
    for x, labels in ((np.zeros(4), [1, 2]), (np.zeros(4), [1]), (np.zeros((2, 4)), 1),
                      (np.zeros((2, 4)), [1, 2, 3])):
        with pytest.raises(DimensionMismatchError):
            gradient(model, x, labels)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e6, -2e6])
def test_features_outside_the_value_limit_are_rejected(value):
    # One NaN row would make every weight NaN, and a NaN model predicts 0 for everything.
    model = random_model([4, 3, 10], seed=1)
    x = np.random.Generator(np.random.PCG64(1)).random((30, 4))
    x[17, 2] = value
    labels = np.arange(30) % 10
    with pytest.raises(DimensionMismatchError, match="non-finite or outside"):
        train(model, x, labels, small_config())
    for call in (forward, predict):
        with pytest.raises(DimensionMismatchError, match="non-finite or outside"):
            call(model, x[17])
    with pytest.raises(DimensionMismatchError, match="non-finite or outside"):
        forward(model, x)
    with pytest.raises(DimensionMismatchError, match="non-finite or outside"):
        gradient(model, x[17], 3)
    with pytest.raises(DimensionMismatchError, match="non-finite or outside"):
        sample_error(model, x, labels)
    x[17, 2] = np.copysign(1e6, value)  # the largest magnitude kept
    _, history = train(model, x, labels, small_config(max_epochs=2))
    assert len(history) == 2 and all(map(math.isfinite, history))
    assert np.isfinite(forward(model, x)).all()
    assert 0 <= predict(model, x[17]) <= 9
    assert all(np.isfinite(g).all() for g in gradient(model, x[17], 3))
    assert math.isfinite(sample_error(model, x[17], 3))


# ---------------------------------------------------------------------------
# Serialization

def stream(sizes, matrices, magic=b"MLP1", version=1):
    blob = magic + struct.pack("<II", version, len(sizes))
    blob += struct.pack(f"<{len(sizes)}I", *sizes)
    for m in matrices:
        blob += np.asarray(m, dtype="<f8").tobytes()
    return blob


def test_save_load_roundtrip_is_bit_exact(tmp_path):
    model = random_model([INPUT_SIZE, 65, OUTPUT_SIZE], seed=77)
    path = tmp_path / "model.mlp"
    save_model(path, model)
    assert path.stat().st_size == 4 + 4 + 4 + 3 * 4 + 8 * (65 * 77 + 10 * 66)
    loaded = load_model(path)
    assert loaded.layer_sizes == model.layer_sizes
    for a, b in zip(loaded.weights, model.weights):
        np.testing.assert_array_equal(a, b)


def test_load_rejects_malformed_streams(tmp_path):
    sizes = [2, 3, 4]
    mats = [np.arange(9, dtype=float).reshape(3, 3),
            np.arange(16, dtype=float).reshape(4, 4)]
    good = stream(sizes, mats)
    path = tmp_path / "m.bin"

    path.write_bytes(good)
    loaded = load_model(path)
    assert loaded.layer_sizes == sizes

    cases = [
        (stream(sizes, mats, magic=b"XLP1"), BadMagicError),
        (stream(sizes, mats, version=2), VersionMismatchError),
        (good[:6], TruncatedStreamError),
        (good[:-8], TruncatedStreamError),
        (good + b"\x00", ShapeMismatchError),
        (stream([5], []), ShapeMismatchError),
        (stream([2, 0], [np.zeros((0, 3))]), ShapeMismatchError),
        (stream([2, 4], [np.zeros((4, 3))]), ShapeMismatchError),  # no hidden layer
        (stream([2, 3, 3, 4], [mats[0], np.zeros((3, 4)), mats[1]]), ShapeMismatchError),
        (stream([2, 0, 4], [np.zeros((0, 3)), np.zeros((4, 1))]), ShapeMismatchError),
    ]
    for blob, exc in cases:
        path.write_bytes(blob)
        with pytest.raises(exc):
            load_model(path)


@pytest.mark.parametrize("layer, cells, value", [
    (0, (0, 0), np.nan), (1, ..., np.inf), (0, (4, 76), -np.inf), (1, (9, 0), 1e300)])
def test_load_rejects_non_finite_and_huge_weights(tmp_path, layer, cells, value):
    # Such a model would predict label 0 with nan outputs, or overflow.
    model = random_model([INPUT_SIZE, 5, OUTPUT_SIZE], seed=3)
    model.weights[layer][cells] = value
    path = tmp_path / "bad.mlp"
    path.write_bytes(stream(model.layer_sizes, model.weights))
    with pytest.raises(ModelFormatError, match=f"layer {layer + 1}"):
        load_model(path)
    # The writer keeps the reader's rule: no file is written, and the old one stays.
    with pytest.raises(ModelFormatError, match=f"layer {layer + 1}"):
        save_model(path, model)
    with pytest.raises(ModelFormatError, match=f"layer {layer + 1}"):
        save_model(tmp_path / "new.mlp", model)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.mlp"]
    assert path.read_bytes() == stream(model.layer_sizes, model.weights)
    model.weights[layer][cells] = 1e6  # the largest magnitude kept
    save_model(path, model)
    assert load_model(path).weights[layer].max() == 1e6


GOOD_MODEL = stream([2, 3, 4], random_model([2, 3, 4], seed=5).weights)


@st.composite
def mutated_model_files(draw):
    """GOOD_MODEL with bytes flipped, cut off the end, or appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "truncate":
        return GOOD_MODEL[:draw(st.integers(0, len(GOOD_MODEL) - 1))]
    if kind == "extend":
        return GOOD_MODEL + draw(st.binary(min_size=1, max_size=64))
    blob = bytearray(GOOD_MODEL)
    flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
    for i, mask in draw(st.lists(flips, min_size=1, max_size=4)):
        blob[i] ^= mask
    return bytes(blob)


@settings(deadline=None, max_examples=300)
@given(mutated_model_files())
def test_load_model_rejects_or_keeps_every_byte(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("model") / "m.bin"
    path.write_bytes(blob)
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    save_model(path, model)
    assert path.read_bytes() == blob


# ---------------------------------------------------------------------------
# Model bytes, against the earlier training loop as an oracle

def oracle_activations(model, x):
    acts = [x]
    for w in model.weights:
        biased = np.concatenate([acts[-1], [1.0]])
        acts.append(sigmoid(np.einsum("hk,k->h", w, biased)))
    return acts


def oracle_backprop(model, x, label):
    acts = oracle_activations(model, x)
    target = np.zeros(model.output_size)
    target[label] = 1.0
    diff = target - acts[-1]
    error = 0.5 * float(np.einsum("o,o->", diff, diff))
    grads = [np.empty(0)] * len(model.weights)
    delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
    for i in range(len(model.weights) - 1, -1, -1):
        biased = np.concatenate([acts[i], [1.0]])
        grads[i] = np.outer(delta, biased)
        if i > 0:
            back = np.einsum("oh,o->h", model.weights[i][:, :-1], delta)
            delta = back * acts[i] * (1.0 - acts[i])
    return grads, error


def oracle_stop(history, error, stale):
    """The package's fixed stop rule, written out so that changing it fails
    the oracles. error joins history, whose count of stalled epochs was
    stale; returns the new count and whether training ends."""
    stale = stale + 1 if history and history[-1] - error < 1e-4 else 0
    history.append(error)
    return stale, stale >= 20


def oracle_train(model, x, labels, config):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    velocity = [np.zeros_like(w) for w in model.weights]
    history = []
    stale = 0
    for _ in range(config.max_epochs):
        epoch_error = 0.0
        for idx in rng.permutation(len(x)):
            grads, error = oracle_backprop(model, x[idx], labels[idx])
            epoch_error += error
            for i, grad in enumerate(grads):
                velocity[i] = config.momentum * velocity[i] - config.learning_rate * grad
                model.weights[i] += velocity[i]
        stale, stalled = oracle_stop(history, epoch_error, stale)
        if stalled:
            break
    return model, history


def test_trained_model_bytes_match_the_oracle(tmp_path):
    # Compared with an oracle run rather than a pinned digest: the bytes are
    # pinned for one numpy build only, and np.exp rounds differently at
    # numpy's AVX-512 level than below it.
    data = make_toy_dataset(3, 0.05, 11)
    before = data.features.copy()
    config = TrainingConfig(hidden_size=7, max_epochs=25, seed=3)
    model, history = train(init_model(config), data.features, data.labels, config)
    want, want_history = oracle_train(init_model(config), data.features, data.labels, config)
    save_model(tmp_path / "got.mlp", model)
    save_model(tmp_path / "want.mlp", want)
    assert history == want_history
    assert (tmp_path / "got.mlp").read_bytes() == (tmp_path / "want.mlp").read_bytes()
    # train reads the rows and leaves them as they were.
    assert data.features.tobytes() == before.tobytes()


def test_training_stops_by_the_fixed_rule():
    # One sample's error falls smoothly, so the epoch at which its gain first
    # drops below 1e-4 moves with the tolerance; 20 such epochs end the run.
    x = np.array([[0.9, 0.1, 0.4, 0.7]])
    config = TrainingConfig(hidden_size=8, max_epochs=500, seed=7)
    model, history = train(random_model([4, 8, 10], seed=11), x, [3], config)
    want, want_history = oracle_train(random_model([4, 8, 10], seed=11), x, [3], config)
    assert history == want_history
    assert all((a == b).all() for a, b in zip(model.weights, want.weights))
    gains = -np.diff(history)
    assert len(history) < config.max_epochs
    assert (gains[-20:] < 1e-4).all() and gains[-21] >= 1e-4


def test_lockstep_runs_match_the_oracle_run_alone(tmp_path):
    # Cross-validation's stacked loop against oracle_train on each fold by
    # itself. The folds differ in size (130/130/140 samples), so the longer
    # run takes its last steps of every epoch alone, and they stop early at
    # different epochs, so runs leave the stack one by one.
    data = make_toy_dataset(20, 0.05, 3)
    config = TrainingConfig(hidden_size=20, max_epochs=300, learning_rate=8.0, seed=5)
    assignments = make_folds(data, 3, config.seed)
    folds = [np.flatnonzero(assignments != f) for f in range(3)]
    seeds = [5, 6, 7]  # train gives run r the seed config.seed + r
    models, histories = train([init_model(replace(config, seed=s)) for s in seeds],
                              data.features, data.labels, config, folds)
    assert [len(fold) for fold in folds] == [130, 130, 140]
    assert len({len(history) for history in histories}) == 3
    for fold, seed, model, history in zip(folds, seeds, models, histories):
        fold_config = replace(config, seed=seed)
        want, want_history = oracle_train(init_model(fold_config), data.features[fold],
                                          data.labels[fold], fold_config)
        save_model(tmp_path / "got.mlp", model)
        save_model(tmp_path / "want.mlp", want)
        assert history == want_history
        assert (tmp_path / "got.mlp").read_bytes() == (tmp_path / "want.mlp").read_bytes()


@settings(max_examples=200, deadline=None)
@given(gains=st.lists(st.sampled_from([-1.0, 0.0, 5e-5, 1e-4, 2e-4, 0.5]), max_size=60),
       max_epochs=st.integers(0, 60))
@example(gains=[1.0] + [0.0] * 25, max_epochs=60)  # stalls at epoch 21
@example(gains=[0.0] * 25, max_epochs=21)  # stalls at its last epoch
def test_stop_state_is_the_oracles_rule(gains, max_epochs):
    # oracle_train's stop rule, epoch by epoch.
    assert stop_state([], max_epochs) == (0, None if max_epochs else "max_epochs")
    history, stale = [], 0
    for error in (100.0 - np.cumsum(gains)).tolist()[:max_epochs]:
        stale, stalled = oracle_stop(history, error, stale)
        want = "stalled" if stalled else "max_epochs" if len(history) == max_epochs else None
        assert stop_state(history, max_epochs) == (stale, want)
        if want:
            break


@settings(max_examples=100, deadline=None)
@given(errors=st.lists(st.sampled_from([0.0, 5e-5, 1e-4, 2e-4, 1.0]), min_size=PATIENCE + 1,
                       max_size=60).map(lambda steps: (100.0 - np.cumsum(steps)).tolist()))
@example(errors=[1.0] * 60)  # stalled for 59 epochs
def test_stop_state_reads_only_the_last_patience_plus_one_errors(errors):
    # train asks after every epoch, so the check must not walk the whole
    # history: entries before the last PATIENCE + 1 are never read, and
    # the count of stalled epochs stops at PATIENCE.
    stale, reason = stop_state(errors, 10**6)
    assert stop_state([None] * 1000 + errors, 10**6) == (stale, reason)
    assert stale <= PATIENCE and (reason == "stalled") == (stale == PATIENCE)


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=4), hidden=st.integers(1, 20),
       momentum=st.sampled_from([0.0, 0.7]), rate=st.sampled_from([0.8, 8.0]),
       zero=st.sampled_from([0.0, -0.0]), seed=st.integers(0, 2**16),
       gather=st.sampled_from([1, 5, mlp.GATHER_STEPS]))
# Its runs end after 38, 40, 40 and 24 epochs: the first and the last stall.
@example(lengths=[12, 7, 10, 3], hidden=7, momentum=0.7, rate=8.0, zero=-0.0, seed=18,
         gather=5)
def test_buffered_lockstep_runs_match_the_oracle_run_alone(tmp_path_factory, lengths, hidden,
                                                           momentum, rate, zero, seed, gather):
    # Runs of uneven length, so the longer ones take their last steps of each
    # epoch alone, at learning rates that stall some runs before max_epochs, so
    # that runs leave the stack at different epochs. Zeroed columns, of either
    # sign, give products of -0.0, which einsum stores as +0.0. A smaller
    # GATHER_STEPS splits an epoch's steps into several gathers.
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(-3, 3, (12, INPUT_SIZE))
    x[:, rng.random(INPUT_SIZE) < 0.3] = zero
    labels = rng.integers(0, OUTPUT_SIZE, 12)
    rows = [rng.permutation(12)[:n] for n in lengths]
    config = TrainingConfig(hidden_size=hidden, learning_rate=rate, momentum=momentum,
                            max_epochs=40, seed=seed)
    with mock.patch.object(mlp, "GATHER_STEPS", gather):
        models, histories = train([random_model([INPUT_SIZE, hidden, OUTPUT_SIZE], seed + r)
                                   for r in range(len(rows))], x, labels, config, rows)
    path = tmp_path_factory.mktemp("lockstep")
    for r, (model, history) in enumerate(zip(models, histories)):
        want, want_history = oracle_train(
            random_model([INPUT_SIZE, hidden, OUTPUT_SIZE], seed + r), x[rows[r]],
            labels[rows[r]], replace(config, seed=seed + r))
        save_model(path / "got.mlp", model)
        save_model(path / "want.mlp", want)
        assert history == want_history
        assert (path / "got.mlp").read_bytes() == (path / "want.mlp").read_bytes()


# Three lockstep runs and one run alone; `out` names the directory to write to.
KERNEL_SCRIPT = """
from dataclasses import replace
from pathlib import Path
import numpy as np
from digitrec.evaluation import make_folds, make_toy_dataset
from digitrec.mlp import TrainingConfig, init_model, save_model, train
data = make_toy_dataset(5, 0.05, 42)
config = TrainingConfig(hidden_size=20, max_epochs=10, seed=1)
folds = [np.flatnonzero(make_folds(data, 3, 1) != f) for f in range(3)]
models, histories = train([init_model(replace(config, seed=1 + r)) for r in range(3)],
                          data.features, data.labels, config, folds)
model, history = train(init_model(config), data.features, data.labels, config)
for i, m in enumerate(models + [model]):
    save_model(Path(out) / f"{i}.mlp", m)
histories.append(history)
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types named are x86-64 ones")
@pytest.mark.parametrize("core", ["Nehalem", "Sandybridge"])
def test_model_bytes_do_not_depend_on_the_openblas_kernel(tmp_path, core):
    # OpenBLAS picks its kernel from the CPU at run time, and any x86-64 CPU
    # runs these two. The variable is set in the child's environment only.
    here, there = tmp_path / "here", tmp_path / core
    here.mkdir()
    there.mkdir()
    run = {"out": str(here)}
    exec(KERNEL_SCRIPT, run)
    src = os.path.dirname(os.path.dirname(digitrec.__file__))
    result = subprocess.run(
        [sys.executable, "-c", f"out = {str(there)!r}\n{KERNEL_SCRIPT}print(histories)"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=core))
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{run['histories']}\n"
    for i in range(4):
        assert (there / f"{i}.mlp").read_bytes() == (here / f"{i}.mlp").read_bytes()
