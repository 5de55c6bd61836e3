import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitrec.evaluation import make_folds, make_toy_dataset
from digitrec.mlp import (INPUT_SIZE, OUTPUT_SIZE, BadMagicError,
                          DimensionMismatchError, EmptyDatasetError,
                          LabeledSample, MlpModel, ModelFormatError,
                          ShapeMismatchError,
                          TrainingConfig, TruncatedStreamError,
                          VersionMismatchError, _error, forward,
                          gradient, init_model,
                          load_model, predict, random_model, sample_error,
                          save_model, sigmoid, train)


def small_config(**overrides):
    base = dict(hidden_size=6, learning_rate=0.5, momentum=0.0,
                max_epochs=50, stop_tolerance=0.0, patience=1, seed=7)
    base.update(overrides)
    return TrainingConfig(**base)


def random_samples(rng, count, input_size, labels=range(10)):
    labels = list(labels)
    return [LabeledSample(rng.random(input_size), labels[i % len(labels)])
            for i in range(count)]


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
    with pytest.raises(ValueError):
        random_model([76], seed=1)
    with pytest.raises(ValueError):
        random_model([76, 0, 10], seed=1)


def test_config_validation():
    for bad in (dict(hidden_size=0), dict(learning_rate=-0.1),
                dict(momentum=1.0), dict(momentum=-0.1),
                dict(max_epochs=-1), dict(stop_tolerance=-1e-9),
                dict(patience=0)):
        with pytest.raises(ValueError):
            small_config(**bad)
    # Zero learning rate and zero epochs are valid edge settings.
    small_config(learning_rate=0.0, max_epochs=0)


def test_config_rejects_non_finite_hyperparameters():
    for name in ("learning_rate", "momentum", "stop_tolerance"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_config(**{name: value})


def test_labeled_sample_validation():
    with pytest.raises(ValueError):
        LabeledSample(np.zeros((2, 2)), 1)
    with pytest.raises(ValueError):
        LabeledSample(np.zeros(4), 10)


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


def test_forward_rejects_wrong_input_size():
    model = random_model([4, 3, 10], seed=5)
    with pytest.raises(DimensionMismatchError):
        forward(model, np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=5),
       n=st.integers(0, 9), seed=st.integers(0, 2**32 - 1))
@example(sizes=[76, 7, 5, 10], n=0, seed=1)
@example(sizes=[76, 7, 5, 10], n=40, seed=2)
@example(sizes=[76, 65, 10], n=300, seed=3)
def test_forward_on_rows_equals_one_call_per_row(sizes, n, seed):
    model = random_model(sizes, seed)
    x = np.random.Generator(np.random.PCG64(seed)).uniform(-3, 3, (n, sizes[0]))
    want = np.array([forward(model, row) for row in x]).reshape(n, sizes[-1])
    assert np.array_equal(forward(model, x), want)


def test_batched_error_rows_equal_sample_error():
    # train's summary sums these rows; each must be sample_error to the bit.
    data = make_toy_dataset(4, 0.1, 8).samples
    model = random_model([76, 9, 10], seed=8)
    out = forward(model, np.array([s.features for s in data]))
    errors = _error(out, np.eye(10)[[s.label for s in data]])[1]
    assert errors.tolist() == [sample_error(model, s) for s in data]


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
    assert sample_error(model, LabeledSample(np.zeros(4), 3)) == 1.25


# ---------------------------------------------------------------------------
# Gradient

def finite_difference(model, sample, step=1e-5):
    grads = []
    for w in model.weights:
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            plus = sample_error(model, sample)
            w[idx] = orig - step
            minus = sample_error(model, sample)
            w[idx] = orig
            fd[idx] = (plus - minus) / (2 * step)
        grads.append(fd)
    return grads


@pytest.mark.parametrize("sizes", [[4, 3, 10], [6, 5, 4, 10]])
def test_gradient_matches_finite_differences(sizes):
    rng = np.random.Generator(np.random.PCG64(22))
    model = random_model(sizes, seed=22)
    sample = LabeledSample(rng.random(sizes[0]), 2)
    analytic = gradient(model, sample)
    for an, fd in zip(analytic, finite_difference(model, sample)):
        np.testing.assert_allclose(an, fd, rtol=1e-6, atol=1e-8)


def test_gradient_is_exactly_zero_when_saturated():
    # Pre-activations of +/-800 drive the sigmoid to exact 0.0 or 1.0,
    # so the derivative factor vanishes and every gradient entry is 0.
    model = MlpModel([np.full((3, 3), 800.0), np.full((10, 4), 800.0)])
    sample = LabeledSample(np.ones(2), 3)
    assert sample_error(model, sample) == 4.5  # nine outputs off by one
    for g in gradient(model, sample):
        assert (g == 0.0).all()


# ---------------------------------------------------------------------------
# Training

def test_train_zero_learning_rate_changes_nothing():
    model = random_model([4, 3, 10], seed=9)
    before = [w.copy() for w in model.weights]
    rng = np.random.Generator(np.random.PCG64(9))
    data = random_samples(rng, 6, 4)
    ret, history = train(model, data, small_config(learning_rate=0.0,
                                                   max_epochs=3, patience=50))
    assert ret is model
    assert len(history) == 3
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_train_zero_epochs_returns_empty_history():
    model = random_model([4, 3, 10], seed=9)
    before = [w.copy() for w in model.weights]
    _, history = train(model, [LabeledSample(np.zeros(4), 1)],
                       small_config(max_epochs=0))
    assert history == []
    for w, b in zip(model.weights, before):
        np.testing.assert_array_equal(w, b)


def test_train_memorizes_a_single_sample():
    model = random_model([4, 8, 10], seed=11)
    sample = LabeledSample(np.array([0.9, 0.1, 0.4, 0.7]), 3)
    _, history = train(model, [sample],
                       small_config(learning_rate=0.8, momentum=0.7,
                                    max_epochs=500, stop_tolerance=1e-4,
                                    patience=20))
    assert predict(model, sample.features) == 3
    assert sample_error(model, sample) < 0.01
    assert history[-1] < history[0]


def test_single_update_reduces_that_samples_error():
    rng = np.random.Generator(np.random.PCG64(23))
    for trial in range(5):
        model = random_model([5, 4, 10], seed=100 + trial)
        sample = LabeledSample(rng.random(5), int(rng.integers(10)))
        before = sample_error(model, sample)
        train(model, [sample], small_config(learning_rate=1e-3, momentum=0.0,
                                            max_epochs=1))
        assert sample_error(model, sample) < before


def test_train_separates_two_clusters():
    rng = np.random.Generator(np.random.PCG64(24))
    data = []
    for i in range(20):
        data.append(LabeledSample(
            np.array([0.2, 0.8]) + rng.uniform(-0.05, 0.05, 2), 0))
        data.append(LabeledSample(
            np.array([0.8, 0.2]) + rng.uniform(-0.05, 0.05, 2), 1))
    model = random_model([2, 6, 10], seed=24)
    train(model, data, small_config(learning_rate=0.8, momentum=0.7,
                                    max_epochs=200, stop_tolerance=1e-4,
                                    patience=20))
    assert all(predict(model, s.features) == s.label for s in data)


def test_train_is_deterministic_for_a_seed():
    rng = np.random.Generator(np.random.PCG64(25))
    data = random_samples(rng, 12, 4)
    runs = []
    for _ in range(2):
        model = random_model([4, 5, 10], seed=31)
        _, history = train(model, [LabeledSample(s.features.copy(), s.label)
                                   for s in data],
                           small_config(max_epochs=20, momentum=0.5))
        runs.append((model, history))
    assert runs[0][1] == runs[1][1]
    for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
        np.testing.assert_array_equal(wa, wb)


def test_momentum_zero_equals_plain_sgd():
    # With momentum 0 each update must be exactly -lr * gradient; compare
    # against a separately written update loop, bit for bit.
    rng = np.random.Generator(np.random.PCG64(26))
    data = random_samples(rng, 8, 3)
    config = small_config(max_epochs=4, learning_rate=0.3, momentum=0.0,
                          seed=13)
    model = random_model([3, 4, 10], seed=41)
    oracle = [w.copy() for w in model.weights]
    train(model, data, config)

    order_rng = np.random.Generator(np.random.PCG64(config.seed))
    for _ in range(config.max_epochs):
        for idx in order_rng.permutation(len(data)):
            s = data[idx]
            acts = [np.asarray(s.features, dtype=float)]
            for w in oracle:
                acts.append(sigmoid(w @ np.concatenate([acts[-1], [1.0]])))
            target = np.zeros(10)
            target[s.label] = 1.0
            delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
            for i in range(len(oracle) - 1, -1, -1):
                grad = np.outer(delta, np.concatenate([acts[i], [1.0]]))
                if i > 0:
                    delta = (oracle[i][:, :-1].T @ delta) * acts[i] * (1.0 - acts[i])
                oracle[i] = oracle[i] - config.learning_rate * grad

    for w, o in zip(model.weights, oracle):
        np.testing.assert_array_equal(w, o)


def test_train_stops_early_when_error_stalls():
    # Saturated weights make every gradient exactly zero, so the epoch
    # error never improves and the patience counter must fire.
    model = MlpModel([np.full((3, 5), 800.0), np.full((10, 4), 800.0)])
    sample = LabeledSample(np.ones(4), 3)
    _, history = train(model, [sample],
                       small_config(max_epochs=50, stop_tolerance=1e-4,
                                    patience=2))
    assert history == [4.5, 4.5, 4.5]  # patience + 1 epochs, then stop


def test_train_rejects_bad_data():
    model = random_model([4, 3, 10], seed=1)
    with pytest.raises(EmptyDatasetError):
        train(model, [], small_config())
    with pytest.raises(DimensionMismatchError):
        train(model, [LabeledSample(np.zeros(5), 1)], small_config())
    narrow = random_model([4, 3, 3], seed=1)
    with pytest.raises(DimensionMismatchError):
        train(narrow, [LabeledSample(np.zeros(4), 5)], small_config())
    # A bad sample after good ones is caught before the inputs are stacked.
    with pytest.raises(DimensionMismatchError):
        train(model, [LabeledSample(np.zeros(4), 1), LabeledSample(np.zeros(5), 2)],
              small_config())
    with pytest.raises(DimensionMismatchError):
        train(narrow, [LabeledSample(np.zeros(4), 1), LabeledSample(np.zeros(4), 2),
                       LabeledSample(np.zeros(4), 7)], small_config())


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
    save_model(path, model)
    with pytest.raises(ModelFormatError, match=f"layer {layer + 1}"):
        load_model(path)
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
        acts.append(sigmoid(w @ biased))
    return acts


def oracle_backprop(model, x, label):
    acts = oracle_activations(model, x)
    target = np.zeros(model.output_size)
    target[label] = 1.0
    diff = target - acts[-1]
    error = 0.5 * float(diff @ diff)
    grads = [np.empty(0)] * len(model.weights)
    delta = (acts[-1] - target) * acts[-1] * (1.0 - acts[-1])
    for i in range(len(model.weights) - 1, -1, -1):
        biased = np.concatenate([acts[i], [1.0]])
        grads[i] = np.outer(delta, biased)
        if i > 0:
            back = model.weights[i][:, :-1].T @ delta
            delta = back * acts[i] * (1.0 - acts[i])
    return grads, error


def oracle_train(model, data, config):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    velocity = [np.zeros_like(w) for w in model.weights]
    history = []
    stale = 0
    for _ in range(config.max_epochs):
        epoch_error = 0.0
        for idx in rng.permutation(len(data)):
            grads, error = oracle_backprop(model, data[idx].features, data[idx].label)
            epoch_error += error
            for i, grad in enumerate(grads):
                velocity[i] = config.momentum * velocity[i] - config.learning_rate * grad
                model.weights[i] += velocity[i]
        if history and history[-1] - epoch_error < config.stop_tolerance:
            stale += 1
        else:
            stale = 0
        history.append(epoch_error)
        if stale >= config.patience:
            break
    return model, history


def test_trained_model_bytes_match_the_oracle(tmp_path):
    # Compared with an oracle run rather than a pinned digest: the BLAS
    # kernels behind the matrix products may differ between CPUs.
    data = make_toy_dataset(3, 0.05, 11).samples
    config = TrainingConfig(hidden_size=7, max_epochs=25, seed=3)
    model, history = train(init_model(config), data, config)
    want, want_history = oracle_train(init_model(config), data, config)
    save_model(tmp_path / "got.mlp", model)
    save_model(tmp_path / "want.mlp", want)
    assert history == want_history
    assert (tmp_path / "got.mlp").read_bytes() == (tmp_path / "want.mlp").read_bytes()


def test_two_hidden_layer_bytes_match_the_oracle(tmp_path):
    # The in-place momentum update runs over every layer, so train a net
    # with two hidden layers at the default momentum as well.
    data = make_toy_dataset(3, 0.05, 11).samples
    before = [s.features.copy() for s in data]
    config = TrainingConfig(max_epochs=15, seed=3)
    model, history = train(random_model([76, 7, 5, 10], seed=3), data, config)
    want, want_history = oracle_train(random_model([76, 7, 5, 10], seed=3), data, config)
    save_model(tmp_path / "got.mlp", model)
    save_model(tmp_path / "want.mlp", want)
    assert history == want_history
    assert (tmp_path / "got.mlp").read_bytes() == (tmp_path / "want.mlp").read_bytes()
    # train reads the samples and leaves their features as they were.
    for sample, features in zip(data, before):
        assert sample.features.tobytes() == features.tobytes()


def test_lockstep_runs_match_the_oracle_run_alone(tmp_path):
    # Cross-validation's stacked loop against oracle_train on each fold by
    # itself. The folds differ in size (130/130/140 samples), so the longer
    # run takes its last steps of every epoch alone, and they stop early at
    # different epochs, so runs leave the stack one by one.
    data = make_toy_dataset(20, 0.05, 3)
    config = TrainingConfig(hidden_size=20, max_epochs=300, patience=3,
                            stop_tolerance=0.05, seed=5)
    assignments = make_folds(data, 3, config.seed)
    folds = [[data.samples[i] for i in np.flatnonzero(assignments != f)] for f in range(3)]
    seeds = [5, 6, 7]  # train gives run r the seed config.seed + r
    models, histories = train([init_model(replace(config, seed=s)) for s in seeds], folds, config)
    assert [len(fold) for fold in folds] == [130, 130, 140]
    assert len({len(history) for history in histories}) == 3
    for fold, seed, model, history in zip(folds, seeds, models, histories):
        fold_config = replace(config, seed=seed)
        want, want_history = oracle_train(init_model(fold_config), fold, fold_config)
        save_model(tmp_path / "got.mlp", model)
        save_model(tmp_path / "want.mlp", want)
        assert history == want_history
        assert (tmp_path / "got.mlp").read_bytes() == (tmp_path / "want.mlp").read_bytes()
