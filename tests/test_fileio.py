import io
import json
import tracemalloc

import numpy as np
import pytest

from kinedeep import bench, fileio
from kinedeep import regressor as reg


def header_of(drop=(), **fields):
    """A valid dataset header without the keys `drop`, with `fields` changed
    or added (a format and version among them make another kind's header)."""
    header = {"format": "kinedeep-dataset", "version": 5, "skeleton": "x", **fields}
    return {k: v for k, v in header.items() if k not in drop}


def write_record_file(path, header, records):
    """A record file: `header` as its JSON line (None leaves the line out),
    then `records` as np.save writes them. A record given as bytes is
    written as it is; None leaves it out."""
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(json.dumps(header).encode() + b"\n")
        for record in records:
            if isinstance(record, bytes):
                fh.write(record)
            elif record is not None:
                np.save(fh, record)
    return path


def write_dataset_file(path, header=header_of(), **records):
    """A dataset record file of `header`, then the records features and
    thetas, by default a valid 2-sample set."""
    records = {"features": np.ones((2, 6)), "thetas": np.ones((2, 4)), **records}
    return write_record_file(path, header, records.values())


def npy_header(shape, descr="<f8") -> bytes:
    """A .npy 1.0 header of `shape`, with no data after it."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": shape})
    return buf.getvalue()


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


NOT_A_DATASET = "not a kinedeep-dataset file; re-run synth"
NOT_POSES = "not a kinedeep-poses file; write it with fileio.write_pose_file, or re-run ik"
NOT_JOINTS = "not a kinedeep-joints file; re-run fk"
UNSUPPORTED = "unsupported kinedeep-dataset version"
HEADER_FIELDS = ("header fields must be exactly format, version and skeleton "
                 "(a non-empty name); re-run synth")
POSES = header_of(format="kinedeep-poses", version=2)
JOINTS = header_of(format="kinedeep-joints", version=2)

# the readers of pose, joint and dataset files (of 4-DOF poses), each with
# the header and records of a valid file and its refusal of another kind
READERS = {
    "dataset": (fileio.read_dataset, header_of(),
                {"features": np.ones((2, 6)), "thetas": np.ones((2, 4))}, NOT_A_DATASET),
    "poses": (lambda path: fileio.read_pose_file(path, expected_dims=4), POSES,
              {"poses": np.ones((2, 4))}, NOT_POSES),
    "joints": (fileio.read_joint_file, JOINTS, {"frames": np.ones((2, 5, 3))}, NOT_JOINTS),
}


def test_pose_file_roundtrip(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(5, hand.n_dofs))
    path = tmp_path / "poses.rec"
    fileio.write_pose_file(path, hand.name, poses)
    with open(path, "rb") as fh:
        assert json.loads(fh.readline()) == {
            "format": "kinedeep-poses", "version": 2, "skeleton": hand.name}
        assert np.array_equal(np.lib.format.read_array(fh), poses)
        assert fh.read() == b""
    name, again = fileio.read_pose_file(path, expected_dims=hand.n_dofs)
    assert name == hand.name
    assert np.array_equal(again, poses)


def test_pose_file_write_is_byte_stable(hand, rng, tmp_path):
    # the same content gives the same bytes, poses and joint frames alike
    for write, read, shape in (
            (fileio.write_pose_file, lambda p: fileio.read_pose_file(p, 26), (3, 26)),
            (fileio.write_joint_file, fileio.read_joint_file, (3, 23, 3))):
        a, b = tmp_path / "a.rec", tmp_path / "b.rec"
        write(a, hand.name, rng.normal(size=shape))
        _, again = read(a)
        write(b, hand.name, again)
        assert a.read_bytes() == b.read_bytes()


def test_joint_file_roundtrip(hand, rng, tmp_path):
    frames = rng.normal(size=(4, hand.n_joints, 3)) * 50.0
    path = tmp_path / "joints.rec"
    fileio.write_joint_file(path, hand.name, frames)
    with open(path, "rb") as fh:
        assert json.loads(fh.readline()) == {
            "format": "kinedeep-joints", "version": 2, "skeleton": hand.name}
        assert np.array_equal(np.lib.format.read_array(fh), frames)
        assert fh.read() == b""
    name, again = fileio.read_joint_file(path)
    assert name == hand.name
    assert np.array_equal(again, frames)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("read", [fileio.read_pose_file, fileio.read_joint_file])
def test_non_finite_value_cites_path_and_line(tmp_path, read, value):
    # the refusal names the record and its first bad row, counted from 0
    poses = read is fileio.read_pose_file
    rows = np.ones((3, 3) if poses else (3, 1, 3))
    rows[1, 0] = float(value)
    rows[2, 0] = float(value)
    path = write_record_file(tmp_path / "bad.rec", POSES if poses else JOINTS, [rows])
    with pytest.raises(fileio.FileFormatError) as excinfo:
        read(path, **({"expected_dims": 3} if poses else {}))
    assert str(excinfo.value) == (f"{path}: {'poses' if poses else 'frames'} holds "
                                  f"non-finite values, first in row 1")


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.rec"
    path.write_bytes(npy_bytes(np.ones((1, 2))))  # a record, but no header line
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_pose_file(path, expected_dims=2)
    assert str(refused.value) == f"{path}: {NOT_POSES}"


def test_empty_file_reads_as_no_frames(hand, tmp_path):
    path = tmp_path / "no_poses.rec"
    fileio.write_pose_file(path, "hand23", np.zeros((0, hand.n_dofs)))
    name, poses = fileio.read_pose_file(path, expected_dims=hand.n_dofs)
    assert name == "hand23"
    assert poses.shape == (0, hand.n_dofs)


def test_empty_joint_file_reads_as_no_frames(tmp_path):
    path = tmp_path / "no_frames.rec"
    fileio.write_joint_file(path, "hand23", np.zeros((0, 23, 3)))
    name, frames = fileio.read_joint_file(path)
    assert name == "hand23"
    assert frames.shape == (0, 23, 3)

    path.write_bytes(b"")  # no header
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_joint_file(path)
    assert str(refused.value) == f"{path}: {NOT_JOINTS}"

    write_record_file(path, JOINTS, [np.ones((1, 4))])  # not 3 values per joint
    with pytest.raises(fileio.FileFormatError) as refused:
        fileio.read_joint_file(path)
    assert str(refused.value) == \
        f"{path}: frames are float64 (1, 4), expected float64 (N, N, 3)"


def header_line(header) -> bytes:
    return json.dumps(header).encode() + b"\n"


def with_width(record, width) -> bytes:
    """The .npy header of no rows of `record`'s layout, `width` wide."""
    return npy_header((0, width, *record.shape[2:]))


# A damaged pose or joint file: a case maps the valid header and 1-wide
# record to the file's bytes, beside a fragment of the refusal ({what} the
# record's name, {fmt} the format; a dict holds one per record name). The
# width is the second dimension of the record's shape; poses have to be as
# wide as the skeleton has DOFs, so any other width is refused for that.
HEADER_FIELDS_OF = "header fields must be exactly format, version and skeleton"
BAD_HEADER_FIELDS = {
    "no_skeleton": (lambda h, r: header_line({k: v for k, v in h.items() if k != "skeleton"})
                    + npy_bytes(r), HEADER_FIELDS_OF),
    "no_width": (lambda h, r: header_line(h), "{what}: EOF"),
    "empty_skeleton": (lambda h, r: header_line({**h, "skeleton": ""}) + npy_bytes(r),
                       HEADER_FIELDS_OF + " (a non-empty name)"),
    "negative_width": (lambda h, r: header_line(h) + with_width(r, -2),
                       {"poses": "poses are float64 (0, -2), expected float64 (N, 1)",
                        "frames": "frames: negative dimensions are not allowed"}),
    "fractional_width": (lambda h, r: header_line(h) + with_width(r, 1.5),
                         "{what}: shape is not valid"),
    "huge_width": (lambda h, r: header_line(h) + with_width(r, 99999999999999999999),
                   {"poses": "poses are float64 (0, 99999999999999999999), "
                             "expected float64 (N, 1)",
                    "frames": "frames: Maximum allowed dimension exceeded"}),
    "unknown_field": (lambda h, r: header_line({**h, "dims": 1}) + npy_bytes(r),
                      HEADER_FIELDS_OF),
    "repeated_skeleton": (lambda h, r: header_line(h)[:-2] + b', "skeleton": "y"}\n'
                          + npy_bytes(r), "not a {fmt} file"),
    "repeated_width": (lambda h, r: header_line(h) + npy_bytes(r) + npy_bytes(r),
                       "trailing bytes after the last record"),
}


@pytest.mark.parametrize("case", BAD_HEADER_FIELDS)
@pytest.mark.parametrize("read", [fileio.read_pose_file, fileio.read_joint_file])
def test_bad_header_field_is_refused_naming_path_and_field(tmp_path, read, case):
    damage, message = BAD_HEADER_FIELDS[case]
    poses = read is fileio.read_pose_file
    header, record, what = (POSES, np.ones((1, 1)), "poses") if poses else \
        (JOINTS, np.ones((1, 1, 3)), "frames")
    path = tmp_path / "bad.rec"
    path.write_bytes(damage(header, record))
    with pytest.raises(fileio.FileFormatError) as refused:
        read(path, **({"expected_dims": 1} if poses else {}))
    message = message[what] if isinstance(message, dict) else message
    assert str(refused.value).startswith(f"{path}: ")
    assert message.format(what=what, fmt=header["format"]) in str(refused.value)


def test_expected_dims_enforced(hand, tmp_path):
    path = tmp_path / "poses.rec"
    fileio.write_pose_file(path, hand.name, np.zeros((2, 5)))
    with pytest.raises(fileio.FileFormatError,
                       match=r"poses are float64 \(2, 5\), expected float64 \(N, 26\)"):
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
    for kind, (read, header, records, _) in READERS.items():
        path = write_record_file(tmp_path / kind, header, [*records.values(), np.ones((2, 3))])
        with pytest.raises(fileio.FileFormatError) as refused:
            read(path)
        assert str(refused.value) == f"{path}: trailing bytes after the last record"


def test_dataset_non_float_member(tmp_path):
    path = write_dataset_file(tmp_path / "data.ds", thetas=np.ones((2, 4), dtype=np.int64))
    with pytest.raises(fileio.FileFormatError,
                       match=r"thetas are int64 \(2, 4\), expected float64 \(N, N\)"):
        fileio.read_dataset(path)


@pytest.mark.parametrize("damage, refusal", [
    (lambda a: a.astype(">f8"), ">f8 {shape}, expected"),
    (np.asfortranarray, "float64 {shape} in Fortran order, expected"),
    (np.ravel, "float64 ({size},), expected"),
], ids=["big-endian", "fortran-order", "1-d"])
def test_dataset_record_of_another_layout_refused(tmp_path, damage, refusal):
    # every record of every reader: as the writers never store it
    for kind, (read, header, records, _) in READERS.items():
        for key, array in records.items():
            path = write_record_file(tmp_path / kind, header,
                                     {**records, key: damage(array)}.values())
            with pytest.raises(fileio.FileFormatError) as refused:
                read(path)
            assert str(refused.value).startswith(
                f"{path}: {key} are " + refusal.format(shape=array.shape, size=array.size))


def test_dataset_non_finite_member_refused(tmp_path):
    for kind, (read, header, records, _) in READERS.items():
        for key, array in records.items():
            for value in (np.nan, np.inf, -np.inf):
                bad = array.copy()
                bad[1, 2] = value
                path = write_record_file(tmp_path / kind, header,
                                         {**records, key: bad}.values())
                with pytest.raises(fileio.FileFormatError,
                                   match=f"{key} holds non-finite values, first in row 1"):
                    read(path)
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


# poses have no free width (it is the skeleton's DOF count), so no pose
# record reaches numpy's dimension limit
@pytest.mark.parametrize("shape, refusal, kinds", [
    (lambda s: (10**11, *s[1:]), "the file ends inside the record", READERS),
    (lambda s: (-2, *s[1:]), "negative dimensions are not allowed", READERS),
    (lambda s: (0, 10**30, *s[2:]), "Maximum allowed dimension exceeded",
     ("dataset", "joints")),
], ids=["larger-than-the-file", "negative", "beyond-numpy"])
def test_dataset_record_shape_refused_before_allocation(tmp_path, shape, refusal, kinds):
    for kind in kinds:
        read, header, records, _ = READERS[kind]
        (key, array), *others = records.items()
        path = write_record_file(tmp_path / kind, header,
                                 [npy_header(shape(array.shape)) + array.tobytes(),
                                  *(a for _, a in others)])
        with pytest.raises(fileio.FileFormatError) as refused:
            read(path)
        assert str(refused.value) == f"{path}: {key}: {refusal}"


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
    for read, _, _, not_a in READERS.values():
        tracemalloc.start()
        try:
            with pytest.raises(fileio.FileFormatError) as refused:
                read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == f"{path}: {not_a}" and peak < 2**20


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
    path = tmp_path / "jac.rec"
    jacobians = (np.full((6, 2), float(k)) for k in range(3))  # lazy
    fileio.write_jacobian_file(path, "x", jacobians)
    with open(path, "rb") as fh:
        assert json.loads(fh.readline()) == {
            "format": "kinedeep-jacobian", "version": 2, "skeleton": "x"}
        for k in range(3):  # one record per pose
            assert np.array_equal(np.lib.format.read_array(fh), np.full((6, 2), float(k)))
        assert fh.read() == b""


def test_each_reader_refuses_every_other_kind_of_file(hand, tmp_path):
    # a file of each kind kinedeep writes, a v1 text file of each kind that
    # had one, and a zero-byte file; a reader reads its own kind only
    files = {"dataset": write_dataset_file(tmp_path / "data.ds")}
    for kind, write, array in (("poses", fileio.write_pose_file, np.ones((2, 4))),
                               ("joints", fileio.write_joint_file, np.ones((2, 5, 3))),
                               ("jacobian", fileio.write_jacobian_file, [np.ones((6, 4))])):
        write(files.setdefault(kind, tmp_path / f"{kind}.rec"), "x", array)
    files["checkpoint"] = tmp_path / "run.ckpt.json"
    reg.save_checkpoint(reg.init(hand, "ours", 0), files["checkpoint"])
    for kind, header in (("poses", "dims=4"), ("joints", "joints=5"),
                         ("jacobian", "rows=6 cols=4")):
        files[f"{kind}-v1"] = tmp_path / f"{kind}.csv"
        files[f"{kind}-v1"].write_text(f"# kinedeep-{kind} v1 skeleton=x {header}\n"
                                       + ",".join(["0.0"] * 24) + "\n")
    files["empty"] = tmp_path / "empty"
    files["empty"].write_bytes(b"")
    readers = {kind: (read, not_a) for kind, (read, _, _, not_a) in READERS.items()}
    readers["checkpoint"] = (reg.load_checkpoint, "not a kinedeep-checkpoint file; retrain")
    for kind, (read, not_a) in readers.items():
        read(files[kind])
        for other, path in files.items():
            if other != kind:
                with pytest.raises(fileio.FileFormatError) as refused:
                    read(path)
                assert str(refused.value) == f"{path}: {not_a}", (kind, other)


@pytest.mark.parametrize("kind", ["dataset", "poses", "joints"])
def test_writers_store_c_ordered_float64(tmp_path, kind):
    # a Fortran-ordered or an integer array is stored as C-order float64,
    # which the readers read back
    for features, thetas in ((np.asfortranarray(np.arange(30.0).reshape(5, 6)),
                              np.arange(20.0).reshape(4, 5).T),
                             (np.arange(30).reshape(5, 6), np.arange(20).reshape(5, 4))):
        path = tmp_path / kind
        if kind == "dataset":
            fileio.write_dataset(path, bench.Dataset("x", features, thetas))
            data = fileio.read_dataset(path)
            got, want = (data.features, data.thetas), (features, thetas)
        elif kind == "poses":
            fileio.write_pose_file(path, "x", thetas)
            got, want = fileio.read_pose_file(path, expected_dims=4)[1:], (thetas,)
        else:
            joints = np.asfortranarray(features.reshape(5, 2, 3))
            fileio.write_joint_file(path, "x", joints)
            got, want = fileio.read_joint_file(path)[1:], (joints,)
        assert all(np.array_equal(g, w) and g.dtype == np.float64 for g, w in zip(got, want))


@pytest.mark.parametrize("write, arrays, refusal", [
    (fileio.write_pose_file, lambda: np.zeros(26), "poses are (26,), expected (N, D)"),
    (fileio.write_pose_file, lambda: np.zeros((1, 2, 26)),
     "poses are (1, 2, 26), expected (N, D)"),
    (fileio.write_joint_file, lambda: np.zeros((2, 3)), "frames are (2, 3), expected (N, K, 3)"),
    (fileio.write_joint_file, lambda: np.zeros((2, 5, 2)),
     "frames are (2, 5, 2), expected (N, K, 3)"),
    # the second record of a generator: the first was written, and goes
    (fileio.write_jacobian_file, lambda: (np.zeros(s) for s in ((6, 2), (6,))),
     "Jacobians are (6,), expected (3J, D)"),
], ids=["pose_1d", "pose_3d", "joints_2d", "joints_of_2_coordinates", "jacobian_1d"])
def test_writers_refuse_what_the_readers_refuse(tmp_path, write, arrays, refusal):
    # a file its reader would refuse is never written, and none is left
    path = tmp_path / "out.rec"
    with pytest.raises(ValueError) as refused:
        write(path, "hand23", arrays())
    assert str(refused.value) == f"{path}: {refusal}; not written"
    assert not path.exists()
