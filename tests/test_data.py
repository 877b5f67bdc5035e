"""Synthetic-scene generator tests: determinism, box validity, class
balance, and the train/val split."""

import numpy as np
import pytest

from freezelab.data import Scene, SceneConfig, generate_dataset, generate_scene
from freezelab.rng import STREAM_SCENE, generator, philox_key


def test_same_seed_and_index_is_bit_identical():
    cfg = SceneConfig()
    for index in (0, 1, 17):
        a = generate_scene(cfg, index)
        b = generate_scene(cfg, index)
        assert np.array_equal(a.image.data, b.image.data)
        assert a.ground_truths == b.ground_truths


def test_scene_independent_of_generation_order():
    # scene 5 is the same whether or not scenes 0..4 were generated first
    cfg = SceneConfig(seed=3)
    fresh = generate_scene(cfg, 5)
    _ = [generate_scene(cfg, i) for i in range(5)]
    again = generate_scene(cfg, 5)
    assert np.array_equal(fresh.image.data, again.image.data)
    assert fresh.ground_truths == again.ground_truths


def test_different_seed_changes_scene():
    a = generate_scene(SceneConfig(seed=0), 0)
    b = generate_scene(SceneConfig(seed=1), 0)
    assert not np.array_equal(a.image.data, b.image.data)


def test_zero_objects_is_pure_background():
    cfg = SceneConfig(min_objects=0, max_objects=0, noise_std=0.0)
    scene = generate_scene(cfg, 0)
    assert scene.ground_truths == ()
    assert np.all(scene.image.data == cfg.background)


def test_image_shape_and_range():
    cfg = SceneConfig()
    for index in range(20):
        scene = generate_scene(cfg, index)
        assert scene.image.shape == (3, 32, 32)
        assert np.all(scene.image.data >= 0.0)
        assert np.all(scene.image.data <= 1.0)


def test_all_boxes_valid_and_inside():
    cfg = SceneConfig()
    for index in range(300):
        scene = generate_scene(cfg, index)
        n = len(scene.ground_truths)
        assert cfg.min_objects <= n <= cfg.max_objects
        for gt in scene.ground_truths:
            box = gt.box
            assert gt.image_id == index
            assert 0 <= gt.class_id < cfg.num_classes
            assert box.area > 0
            assert 0.0 <= box.xmin < box.xmax <= cfg.image_size
            assert 0.0 <= box.ymin < box.ymax <= cfg.image_size
            assert cfg.min_size <= box.xmax - box.xmin <= cfg.max_size
            assert cfg.min_size <= box.ymax - box.ymin <= cfg.max_size


def test_class_frequencies_roughly_uniform():
    cfg = SceneConfig()  # seed 0, 3 classes
    counts = np.zeros(cfg.num_classes, dtype=np.int64)
    total = 0
    for index in range(10_000):
        for gt in generate_scene(cfg, index).ground_truths:
            counts[gt.class_id] += 1
            total += 1
    freqs = counts / total
    assert np.all(freqs >= 0.28)
    assert np.all(freqs <= 0.39)


def test_object_pixels_show_class_channel():
    cfg = SceneConfig(min_objects=1, max_objects=1, noise_std=0.0)
    for index in range(10):
        scene = generate_scene(cfg, index)
        (gt,) = scene.ground_truths
        x0, y0 = int(gt.box.xmin), int(gt.box.ymin)
        pixel = scene.image.data[:, y0, x0]
        assert int(np.argmax(pixel)) == gt.class_id % cfg.channels


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(max_size=40)  # larger than the 32px image
    with pytest.raises(ValueError):
        SceneConfig(channels=2)
    with pytest.raises(ValueError):
        SceneConfig(min_objects=3, max_objects=1)
    with pytest.raises(ValueError):
        SceneConfig(min_size=0)
    with pytest.raises(ValueError):
        SceneConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        generate_scene(SceneConfig(), -1)


# --------------------------------------------------------------------------
# dataset split


def test_split_indices_are_disjoint():
    train, val = generate_dataset(SceneConfig(), 8, 2)
    indices = [s.index for s in train] + [s.index for s in val]
    assert indices == list(range(10))
    assert len(set(indices)) == 10


def test_empty_validation_split():
    train, val = generate_dataset(SceneConfig(), 4, 0)
    assert len(train) == 4 and val == []


def test_dataset_regeneration_is_bit_identical():
    cfg = SceneConfig(seed=9)
    train_a, val_a = generate_dataset(cfg, 6, 3)
    train_b, val_b = generate_dataset(cfg, 6, 3)
    for a, b in zip(train_a + val_a, train_b + val_b):
        assert np.array_equal(a.image.data, b.image.data)
        assert a.ground_truths == b.ground_truths


def test_val_scenes_match_their_global_indices():
    cfg = SceneConfig()
    _, val = generate_dataset(cfg, 8, 2)
    assert np.array_equal(val[0].image.data, generate_scene(cfg, 8).image.data)
    assert np.array_equal(val[1].image.data, generate_scene(cfg, 9).image.data)


# --------------------------------------------------------------------------
# the underlying streams


def test_philox_key_sensitivity():
    base = philox_key(0, STREAM_SCENE, 0)
    assert philox_key(1, STREAM_SCENE, 0) != base
    assert philox_key(0, STREAM_SCENE + 1, 0) != base
    assert philox_key(0, STREAM_SCENE, 1) != base
    assert philox_key(0, STREAM_SCENE, 0, field=1) != base


def test_generator_streams_are_reproducible():
    a = generator(0, STREAM_SCENE, 4).normal(size=8)
    b = generator(0, STREAM_SCENE, 4).normal(size=8)
    assert np.array_equal(a, b)
    c = generator(0, STREAM_SCENE, 5).normal(size=8)
    assert not np.array_equal(a, c)
