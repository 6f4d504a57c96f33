import numpy as np
import pytest

from anomgen import dataset as ds


# -- tokens --------------------------------------------------------------------


def test_token_map_bijective():
    tokens = [ds.token_for(c, d) for c in ds.CATEGORIES for d in ds.DEFECTS]
    assert sorted(tokens) == list(range(1, 10))
    assert ds.token_for("stripes", "scratch") == 1
    assert ds.token_for("gradient", "patch") == 9


def test_condition_names_roundtrip():
    assert ds.condition_name(0) == "null"
    for t in range(1, 10):
        assert ds.token_from_name(ds.condition_name(t)) == t
    assert ds.category_tokens("checker") == [4, 5, 6]


# -- textures ------------------------------------------------------------------


def test_stripes_period_and_range():
    imgs = ds.gen_normal("stripes", 8, seed=0)
    for img in imgs:
        assert img.shape == (32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0
        # vertical stripes: columns constant, period 8
        assert np.all(img == img[0])
        assert np.array_equal(img[0, :24], img[0, 8:])
        assert len(np.unique(img[0])) == 2


def test_checker_structure():
    img = ds.gen_normal("checker", 1, seed=0)[0]
    # 4x4 blocks are constant
    blocks = img.reshape(8, 4, 8, 4)
    assert np.all(blocks == blocks[:, :1, :, :1])


def test_gradient_monotone_rows():
    img = ds.gen_normal("gradient", 1, seed=0)[0]
    d = np.diff(img[0])
    assert np.all(d > 0) or np.all(d < 0)


def test_gen_normal_deterministic_and_varied():
    a = ds.gen_normal("stripes", 4, seed=5)
    b = ds.gen_normal("stripes", 4, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(a[0], a[i]) for i in range(1, 4))


def test_gen_normal_validation():
    with pytest.raises(ValueError):
        ds.gen_normal("wood", 1, 0)


# -- defects -------------------------------------------------------------------


def test_anomaly_mask_exact():
    for defect in ds.DEFECTS:
        samples = ds.gen_anomaly("checker", defect, 4, seed=1)
        base = ds.gen_normal("checker", 4, seed=1)
        for s, b in zip(samples, base):
            changed = np.abs(s.image - b) > ds.MASK_EPS
            assert np.array_equal(s.mask.astype(bool), changed)
            assert s.mask.any()
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_spot_pixel_count():
    # radius-3 disk: |{(y,x): y^2+x^2 <= 9}| = 29 pixels
    s = ds.gen_anomaly("gradient", "spot", 1, seed=0)[0]
    assert s.mask.sum() == 29


def test_patch_pixel_count():
    # size-8 square with strict half-width 4: 7x7 interior
    s = ds.gen_anomaly("gradient", "patch", 1, seed=0)[0]
    assert s.mask.sum() == 49


def test_jitter_moves_geometry():
    samples = ds.gen_anomaly("gradient", "spot", 8, seed=3)
    centers = {tuple(np.argwhere(s.mask).mean(axis=0).round().astype(int)) for s in samples}
    assert len(centers) > 1


def test_null_defect_rejected():
    spec = ds.DefectSpec(kind="spot", intensity=0.0)
    with pytest.raises(ValueError, match="null defect"):
        ds.gen_anomaly("stripes", spec, 1, seed=0)


def test_defect_out_of_bounds_rejected():
    spec = ds.DefectSpec(kind="spot", intensity=0.25, center=(2, 2), radius=3, jitter=0)
    with pytest.raises(ValueError, match="outside"):
        ds.gen_anomaly("stripes", spec, 1, seed=0)


# -- split ---------------------------------------------------------------------


def test_split_few_shot_sizes_and_disjoint():
    samples = ds.gen_anomaly("stripes", "spot", 9, seed=0)
    ref, ev = ds.split_few_shot(samples, 1.0 / 3.0, seed=0)
    assert len(ref) == 3 and len(ev) == 6
    assert {id(s) for s in ref}.isdisjoint({id(s) for s in ev})
    assert all(s.split == "reference" for s in ref)
    assert all(s.split == "eval" for s in ev)
    ref2, _ = ds.split_few_shot(ds.gen_anomaly("stripes", "spot", 9, seed=0), 1.0 / 3.0, seed=0)
    assert [np.array_equal(a.image, b.image) for a, b in zip(ref, ref2)] == [True] * 3


def test_split_validation():
    samples = ds.gen_anomaly("stripes", "spot", 3, seed=0)
    # fraction near 0 still takes one reference sample
    ref, ev = ds.split_few_shot(samples, 0.01, seed=0)
    assert len(ref) >= 1
    # fraction near 1 still leaves at least one eval sample
    ref, ev = ds.split_few_shot(samples, 0.99, seed=0)
    assert len(ev) >= 1


# -- codec ---------------------------------------------------------------------


def test_encode_decode_shapes_and_scale():
    img = ds.gen_normal("checker", 1, seed=0)[0]
    z = ds.encode_latent(img)
    assert z.shape == (256,)
    assert np.max(np.abs(z)) <= 2.0 + 1e-12
    out = ds.decode_latent(z)
    assert out.shape == (32, 32)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_encode_constant_image():
    z = ds.encode_latent(0.75 * np.ones((32, 32)))
    assert np.allclose(z, 1.0)
    assert np.allclose(ds.decode_latent(z), 0.75)


def test_encode_average_pool_oracle():
    img = ds.gen_normal("stripes", 1, seed=1)[0]
    z = ds.encode_latent(img).reshape(16, 16)
    for y in (0, 7, 15):
        for x in (0, 7, 15):
            block = img[2 * y:2 * y + 2, 2 * x:2 * x + 2].mean()
            assert abs(z[y, x] - (block - 0.5) / 0.25) < 1e-12


# -- persistence ---------------------------------------------------------------


def test_pgm_roundtrip(tmp_path):
    img = ds.gen_normal("gradient", 1, seed=2)[0]
    path = tmp_path / "img.pgm"
    ds.write_pgm(path, img)
    out = ds.read_pgm(path)
    assert out.shape == img.shape
    assert np.max(np.abs(out - img)) <= 0.5 / 255.0 + 1e-9


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n....")
    with pytest.raises(ValueError):
        ds.read_pgm(p)


def test_generate_and_load_dataset(tmp_path):
    root = tmp_path / "data"
    manifest = ds.generate_dataset(root, seed=0, n_normal=4, n_anomaly=3)
    loaded = ds.load_dataset(root)
    assert len(loaded["normal"]) == 3 * 4
    assert len(loaded["reference"]) == 3 * 3 * 1
    assert len(loaded["eval"]) == 3 * 3 * 2
    for s in loaded["reference"] + loaded["eval"]:
        assert s.token == ds.token_for(s.category, s.defect)
        assert s.mask is not None and s.mask.any()
    assert len(manifest["samples"]) == 12 + 27


def test_generate_dataset_rerun_identical(tmp_path):
    import filecmp

    r1, r2 = tmp_path / "a", tmp_path / "b"
    ds.generate_dataset(r1, seed=7, n_normal=3, n_anomaly=3)
    ds.generate_dataset(r2, seed=7, n_normal=3, n_anomaly=3)
    cmp = filecmp.dircmp(r1, r2)

    def assert_same(c):
        assert not c.diff_files and not c.left_only and not c.right_only
        for sub in c.subdirs.values():
            assert_same(sub)

    assert_same(cmp)


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        ds.load_dataset(tmp_path / "nope")
