import numpy as np
import pytest

from kinedeep import bench, fileio


def test_pose_file_roundtrip(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(5, hand.n_dofs))
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand.name, poses)
    name, again = fileio.read_pose_file(path)
    assert name == hand.name
    assert np.array_equal(again, poses)


def test_pose_file_write_is_byte_stable(hand, rng, tmp_path):
    poses = rng.uniform(hand.dof_lower, hand.dof_upper, size=(3, hand.n_dofs))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_pose_file(a, hand.name, poses)
    fileio.write_pose_file(b, hand.name, fileio.read_pose_file(a)[1])
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
        fileio.read_pose_file(path)


def test_wrong_width_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kinedeep-poses v1 skeleton=x dims=2\n1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(fileio.FileFormatError, match="line 3"):
        fileio.read_pose_file(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(fileio.FileFormatError, match="header"):
        fileio.read_pose_file(path)


def test_empty_file_reads_as_no_frames(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    name, poses = fileio.read_pose_file(path)
    assert poses.shape[0] == 0


def test_empty_joint_file_reads_as_no_frames(tmp_path):
    path = tmp_path / "header_only.csv"
    path.write_text("# kinedeep-joints v1 skeleton=hand23 joints=23\n")
    name, frames = fileio.read_joint_file(path)
    assert name == "hand23"
    assert frames.shape == (0, 23, 3)

    path.write_text("")
    _, frames = fileio.read_joint_file(path)
    assert frames.shape[0] == 0

    path.write_text("# kinedeep-joints v1 skeleton=x\n1.0,2.0,3.0,4.0\n")
    with pytest.raises(fileio.FileFormatError, match="line 2"):
        fileio.read_joint_file(path)


def test_expected_dims_enforced(hand, tmp_path):
    path = tmp_path / "poses.csv"
    fileio.write_pose_file(path, hand.name, np.zeros((2, 5)))
    with pytest.raises(fileio.FileFormatError, match="expected 26"):
        fileio.read_pose_file(path, expected_dims=hand.n_dofs)


def test_dataset_roundtrip(hand, tmp_path):
    data = bench.make_dataset(hand, n=7, noise_sigma_mm=4.0, occlusion_prob=0.2, seed=3)
    path = tmp_path / "data.csv"
    fileio.write_dataset(path, data)
    again = fileio.read_dataset(path)
    assert again.skeleton_name == data.skeleton_name
    assert again.sigma_mm == data.sigma_mm
    assert again.occlusion_prob == data.occlusion_prob
    assert again.seed == data.seed
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.thetas, data.thetas)
    assert np.array_equal(again.joints, data.joints)


def test_dataset_bad_sections(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# kinedeep-dataset v1 skeleton=x sigma_mm=1.0 occlusion=0.0 seed=1 n=1\n"
                    "1.0,2.0;3.0\n")
    with pytest.raises(fileio.FileFormatError, match="line 2"):
        fileio.read_dataset(path)


DATASET_HEADER = "# kinedeep-dataset v1 skeleton=x sigma_mm=1.0 occlusion=0.0 seed=1"


def test_dataset_ragged_features_cite_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATASET_HEADER + " n=2\n"
                    "1.0,2.0;3.0;1.0,2.0,3.0\n"
                    "1.0,2.0,9.0;3.0;1.0,2.0,3.0\n")
    with pytest.raises(fileio.FileFormatError,
                       match="line 3 has 3 features values, expected 2"):
        fileio.read_dataset(path)


def test_joint_section_not_a_multiple_of_3_cites_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATASET_HEADER + " n=1\n1.0,2.0;3.0;1.0,2.0,3.0,4.0\n")
    with pytest.raises(fileio.FileFormatError,
                       match="line 2 has 4 joints values, expected a multiple of 3"):
        fileio.read_dataset(path)


def test_dataset_row_count_must_match_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATASET_HEADER + " n=3\n"
                    "1.0,2.0;3.0;1.0,2.0,3.0\n"
                    "4.0,5.0;6.0;4.0,5.0,6.0\n")
    with pytest.raises(fileio.FileFormatError, match="n=3 .* 2 samples"):
        fileio.read_dataset(path)


def test_jacobian_file_header_and_rows(tmp_path):
    path = tmp_path / "jac.csv"
    jacobians = (np.full((6, 2), float(k)) for k in range(3))  # lazy
    fileio.write_jacobian_file(path, "x", (6, 2), jacobians)
    lines = path.read_text().splitlines()
    assert lines[0] == "# kinedeep-jacobian v1 skeleton=x rows=6 cols=2"
    assert lines[1:] == [",".join([repr(float(k))] * 12) for k in range(3)]
