import io
import json
import tracemalloc

import numpy as np
import pytest

from kinedeep import bench, fileio


def test_pose_file_roundtrip(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(5, hand.n_dofs))
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand.name, poses)
    name, again = fileio.read_pose_file(path, expected_dims=hand.n_dofs)
    assert name == hand.name
    assert np.array_equal(again, poses)


def test_pose_file_write_is_byte_stable(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(3, hand.n_dofs))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_pose_file(a, hand.name, poses)
    _, poses = fileio.read_pose_file(a, expected_dims=hand.n_dofs)
    fileio.write_pose_file(b, hand.name, poses)
    assert a.read_bytes() == b.read_bytes()


def test_joint_file_roundtrip(hand, rng, tmp_path):
    frames = rng.normal(size=(4, hand.n_joints, 3)) * 50.0
    path = tmp_path / "joints.csv"
    fileio.write_joint_file(path, hand.name, frames)
    name, again = fileio.read_joint_file(path)
    assert name == hand.name
    assert np.array_equal(again, frames)


def test_malformed_line_cites_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kinedeep-poses v1 skeleton=x dims=2\n1.0,2.0\n1.0,zap\n")
    with pytest.raises(fileio.FileFormatError, match="line 3"):
        fileio.read_pose_file(path, expected_dims=2)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("read", [fileio.read_pose_file, fileio.read_joint_file])
def test_non_finite_value_cites_path_and_line(tmp_path, read, value):
    path = tmp_path / "bad.csv"
    poses = read is fileio.read_pose_file
    header = "kinedeep-poses v1 skeleton=x dims=3" if poses else \
        "kinedeep-joints v1 skeleton=x joints=1"
    path.write_text(f"# {header}\n1.0,2.0,3.0\n1.0,{value},3.0\n")
    with pytest.raises(fileio.FileFormatError) as excinfo:
        read(path, **({"expected_dims": 3} if poses else {}))
    assert str(excinfo.value) == f"{path}: non-finite value on line 3"


def test_wrong_width_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kinedeep-poses v1 skeleton=x dims=2\n1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(fileio.FileFormatError, match="line 3"):
        fileio.read_pose_file(path, expected_dims=2)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(fileio.FileFormatError, match="header"):
        fileio.read_pose_file(path, expected_dims=2)


@pytest.mark.parametrize("header", ["dims=x", "dims"])
def test_malformed_header_field_rejected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(f"# kinedeep-poses v1 skeleton=x {header}\n1.0,2.0\n")
    with pytest.raises(fileio.FileFormatError, match="malformed header"):
        fileio.read_pose_file(path, expected_dims=2)


def test_empty_file_reads_as_no_frames(hand, tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("# kinedeep-poses v1 skeleton=hand23 dims=26\n")
    name, poses = fileio.read_pose_file(path, expected_dims=hand.n_dofs)
    assert name == "hand23"
    assert poses.shape == (0, hand.n_dofs)


def test_empty_joint_file_reads_as_no_frames(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("# kinedeep-joints v1 skeleton=hand23 joints=23\n")
    name, frames = fileio.read_joint_file(path)
    assert name == "hand23"
    assert frames.shape == (0, 23, 3)

    path.write_text("")  # no header
    with pytest.raises(fileio.FileFormatError, match="header on line 1"):
        fileio.read_joint_file(path)

    path.write_text("# kinedeep-joints v1 skeleton=x joints=1\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(fileio.FileFormatError, match="line 2"):
        fileio.read_joint_file(path)


# header fields after the magic and version -> the refusal, which names the field
BAD_HEADER_FIELDS = {
    "no_skeleton": ("{width}=1", "header field skeleton= is missing"),
    "no_width": ("skeleton=x", "header field {width}= is missing"),
    "empty_skeleton": ("skeleton= {width}=1",
                       "malformed header field skeleton='', expected a non-empty name"),
    "negative_width": ("skeleton=x {width}=-2",
                       "malformed header field {width}='-2', expected an integer >= 0"),
    "fractional_width": ("skeleton=x {width}=1.5", "malformed header field {width}='1.5'"),
    "huge_width": ("skeleton=x {width}=99999999999999999999",
                   "header field {width}=99999999999999999999 is out of range"),
    "unknown_field": ("skeleton=x {width}=1 dimz=1", "unknown header field 'dimz'"),
    "repeated_skeleton": ("skeleton=x skeleton=y {width}=1",
                          "header field skeleton= is repeated"),
    "repeated_width": ("skeleton=x {width}=1 {width}=1", "header field {width}= is repeated"),
}


@pytest.mark.parametrize("case", BAD_HEADER_FIELDS)
@pytest.mark.parametrize("read", [fileio.read_pose_file, fileio.read_joint_file])
def test_bad_header_field_is_refused_naming_path_and_field(tmp_path, read, case):
    fields, message = BAD_HEADER_FIELDS[case]
    poses = read is fileio.read_pose_file
    magic, width = ("kinedeep-poses", "dims") if poses else ("kinedeep-joints", "joints")
    path = tmp_path / "bad.csv"
    path.write_text(f"# {magic} v1 {fields.format(width=width)}\n")
    with pytest.raises(fileio.FileFormatError) as refused:
        read(path, **({"expected_dims": 1} if poses else {}))
    assert str(refused.value).startswith(f"{path}: ")
    assert message.format(width=width) in str(refused.value)


def test_expected_dims_enforced(hand, tmp_path):
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand.name, np.zeros((2, 5)))
    with pytest.raises(fileio.FileFormatError, match="expected 26"):
        fileio.read_pose_file(path, expected_dims=hand.n_dofs)


def test_dataset_roundtrip(hand, tmp_path):
    data = bench.make_dataset(hand, n=7, noise_sigma_mm=4.0, occlusion_prob=0.2, seed=3,
                              interior_margin=0.0, pose_shape="uniform")
    path = tmp_path / "data.ds"
    fileio.write_dataset(path, data)
    with open(path, "rb") as fh:  # no joints: they are FK of thetas
        assert json.loads(fh.readline()) == {
            "format": "kinedeep-dataset", "version": 5, "skeleton": hand.name}
        assert np.array_equal(np.lib.format.read_array(fh), data.features)
        assert np.array_equal(np.lib.format.read_array(fh), data.thetas)
        assert fh.read() == b""
    again = fileio.read_dataset(path)
    assert again.skeleton_name == data.skeleton_name
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.thetas, data.thetas)
    copy = tmp_path / "copy.ds"
    fileio.write_dataset(copy, again)
    assert copy.read_bytes() == path.read_bytes()


def header_of(drop=(), **fields):
    """A valid dataset header without the keys `drop`, with `fields` changed
    or added."""
    header = {"format": "kinedeep-dataset", "version": 5, "skeleton": "x", **fields}
    return {k: v for k, v in header.items() if k not in drop}


def write_dataset_file(path, header=header_of(), **records):
    """A dataset record file: `header` as its JSON line (None leaves the line
    out), then the records features and thetas, by default a valid 2-sample
    set. A record given as bytes is written as it is; None leaves it out."""
    records = {"features": np.ones((2, 6)), "thetas": np.ones((2, 4)), **records}
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(json.dumps(header).encode() + b"\n")
        for record in records.values():
            if isinstance(record, bytes):
                fh.write(record)
            elif record is not None:
                np.save(fh, record)
    return path


NOT_A_DATASET = "not a kinedeep-dataset file; re-run synth"
UNSUPPORTED = "unsupported kinedeep-dataset version"
HEADER_FIELDS = ("header fields must be exactly format, version and skeleton "
                 "(a non-empty name); re-run synth")


def test_dataset_valid_file_reads(tmp_path):
    data = fileio.read_dataset(write_dataset_file(tmp_path / "data.ds"))
    assert data.skeleton_name == "x"
    assert data.features.shape == (2, 6) and data.thetas.shape == (2, 4)


def test_dataset_members_with_different_row_counts(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", thetas=np.ones((3, 4)))
    with pytest.raises(fileio.FileFormatError,
                       match=r"row counts .*'features': 2.*'thetas': 3.* differ"):
        fileio.read_dataset(path)


def test_dataset_missing_member(tmp_path):
    # one record short, the reader meets the end of the file at thetas
    for missing in ("features", "thetas"):
        path = write_dataset_file(tmp_path / f"no_{missing}.ds", **{missing: None})
        with pytest.raises(fileio.FileFormatError) as refused:
            fileio.read_dataset(path)
        assert str(refused.value).startswith(f"{path}: thetas: EOF")
    path = write_dataset_file(tmp_path / "no_header.ds", header=None)
    with pytest.raises(fileio.FileFormatError, match=NOT_A_DATASET):
        fileio.read_dataset(path)


def test_dataset_trailing_bytes_refused(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", joints=np.ones((2, 3)))
    with pytest.raises(fileio.FileFormatError,
                       match="trailing bytes after the last record"):
        fileio.read_dataset(path)


def test_dataset_non_float_member(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", thetas=np.ones((2, 4), dtype=np.int64))
    with pytest.raises(fileio.FileFormatError,
                       match=r"thetas are int64 \(2, 4\), expected float64 \(N, N\)"):
        fileio.read_dataset(path)


@pytest.mark.parametrize("key, array, refusal", [
    ("thetas", np.ones((2, 4), dtype=">f8"), r"thetas are >f8 \(2, 4\)"),
    ("features", np.asfortranarray(np.ones((2, 6))), r"\(2, 6\) in Fortran order"),
    ("features", np.ones(12), r"features are float64 \(12,\), expected float64 \(N, N\)"),
], ids=["big-endian", "fortran-order", "1-d"])
def test_dataset_record_of_another_layout_refused(tmp_path, key, array, refusal):
    path = write_dataset_file(tmp_path / "data.ds", **{key: array})
    with pytest.raises(fileio.FileFormatError, match=refusal):
        fileio.read_dataset(path)


def test_dataset_non_finite_member_refused(tmp_path):
    for key in ("features", "thetas"):
        for value in (np.nan, np.inf, -np.inf):
            bad = np.ones((2, 6 if key == "features" else 4))
            bad[1, 2] = value
            path = write_dataset_file(tmp_path / "data.ds", **{key: bad})
            with pytest.raises(fileio.FileFormatError,
                               match=f"{key} holds non-finite values"):
                fileio.read_dataset(path)
    # the occlusion sentinel is finite, so it passes
    features = np.full((2, 6), bench.OCCLUSION_SENTINEL_MM)
    data = fileio.read_dataset(write_dataset_file(tmp_path / "data.ds", features=features))
    assert (data.features == bench.OCCLUSION_SENTINEL_MM).all()


def test_dataset_object_member_refused_without_pickle(tmp_path):
    # its pickled data is never read: the .npy header is refused first
    features = np.empty((2, 6), dtype=object)
    features[:] = 1.0
    path = write_dataset_file(tmp_path / "data.ds", features=features)
    with pytest.raises(fileio.FileFormatError, match=r"features are object \(2, 6\)"):
        fileio.read_dataset(path)


def test_dataset_with_zero_samples(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", features=np.ones((0, 6)),
                              thetas=np.ones((0, 4)))
    with pytest.raises(fileio.FileFormatError, match="no samples"):
        fileio.read_dataset(path)


def npy_header(shape, descr="<f8") -> bytes:
    """A .npy 1.0 header of `shape`, with no data after it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


@pytest.mark.parametrize("shape, refusal", [
    ((10**11, 6), "features: the file ends inside the record"),
    ((-2, -6), "features: negative dimensions are not allowed"),
    ((0, 10**30), "features: Maximum allowed dimension exceeded"),
], ids=["larger-than-the-file", "negative", "beyond-numpy"])
def test_dataset_record_shape_refused_before_allocation(tmp_path, shape, refusal):
    path = write_dataset_file(tmp_path / "data.ds",
                              features=npy_header(shape) + np.ones((2, 6)).tobytes())
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_dataset(path)
    assert str(refused.value) == f"{path}: {refusal}"


# a version-3 record held the sample's provenance and count
V3_META = dict(version=3, sigma_mm=1.0, occlusion=0.0, seed=1, n=1)


# (header, refusal): each refusal names the path and ends "; re-run synth"
@pytest.mark.parametrize("meta", [
    (header_of(**{**V3_META, "version": 1, "n": 2}), UNSUPPORTED + " 1 "),
    ({"format": "kinedeep-dataset", "version": 2}, UNSUPPORTED + " 2 "),
    ({"magic": "kinedeep-dataset", "version": 4, "skeleton": "x"}, NOT_A_DATASET),
    (header_of(version=5.0), UNSUPPORTED + " 5.0 "),  # 5.0 == 5 in Python
    (header_of(skeleton=5), HEADER_FIELDS),
    (header_of(skeleton=""), HEADER_FIELDS),
    (header_of(**V3_META), UNSUPPORTED + " 3 "),
    (header_of(sigma_mm=1.0), HEADER_FIELDS),
    (header_of(occlusion=0.0), HEADER_FIELDS),
    (header_of(seed=1), HEADER_FIELDS),
    (header_of(n=1), HEADER_FIELDS),
    (header_of(drop=("skeleton",)), HEADER_FIELDS),
    (header_of(format="kinedeep-poses"), NOT_A_DATASET),
    (header_of(version="5"), UNSUPPORTED + " '5' "),
    (["kinedeep-dataset", 5, "x"], NOT_A_DATASET),
    (header_of(format="kinedeep-checkpoint", version=4), NOT_A_DATASET),
    (header_of(drop=("version",)), UNSUPPORTED + " None "),
    (header_of(version=True), UNSUPPORTED + " True "),
    ({"version": 5, "format": "kinedeep-dataset", "skeleton": "x"}, NOT_A_DATASET),
])
def test_dataset_bad_meta(tmp_path, meta):
    header, refusal = meta
    path = write_dataset_file(tmp_path / "data.ds", header, features=np.ones((1, 6)),
                              thetas=np.ones((1, 4)))
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_dataset(path)
    assert str(refused.value).startswith(f"{path}: ")
    assert refusal in str(refused.value) and str(refused.value).endswith("; re-run synth")


def test_dataset_one_row_meta_reads(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", features=np.ones((1, 6)),
                              thetas=np.ones((1, 4)))
    assert len(fileio.read_dataset(path)) == 1


def test_text_v1_dataset_refused(tmp_path):
    # the first dataset format was a text table
    path = tmp_path / "data.csv"
    path.write_text("# kinedeep-dataset v1 skeleton=x sigma_mm=1.0 occlusion=0.0 seed=1 n=1\n"
                    "1.0,2.0;3.0;1.0,2.0,3.0\n")
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_dataset(path)
    assert str(refused.value) == f"{path}: {NOT_A_DATASET}"


def test_dataset_file_without_a_line_end_is_not_read_whole(tmp_path):
    # 16 MiB of zeros are refused from their first bytes
    path = tmp_path / "zeros.ds"
    with open(path, "wb") as fh:
        fh.truncate(16 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(fileio.FileFormatError) as refused:
            fileio.read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"{path}: {NOT_A_DATASET}" and peak < 2**20


@pytest.mark.parametrize("content", [b"", b"1.0,2.0\n", b"PK\x03\x04 truncated", b"2.0\n",
                                     b"\xff\xfe\n"])
def test_dataset_not_npz_refused(tmp_path, content):
    # not a dataset file: nothing, text, a zip's first bytes, a JSON number
    # and bytes that are not UTF-8
    path = tmp_path / "data.ds"
    path.write_bytes(content)
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_dataset(path)
    assert str(refused.value) == f"{path}: {NOT_A_DATASET}"


def test_jacobian_file_header_and_rows(tmp_path):
    path = tmp_path / "jac.csv"
    jacobians = (np.full((6, 2), float(k)) for k in range(3))  # lazy
    fileio.write_jacobian_file(path, "x", (6, 2), jacobians)
    lines = path.read_text().splitlines()
    assert lines[0] == "# kinedeep-jacobian v1 skeleton=x rows=6 cols=2"
    assert lines[1:] == [",".join([repr(float(k))] * 12) for k in range(3)]
