"""The one file format of kinedeep's data: record files.

Every data file kinedeep reads or writes is a record file: a JSON object on
one line, its first key "format", with an integer "version", then .npy
records as np.save writes them, each a C-order float64 array
(write_records). The readers (read_header, read_record) check the line's
first bytes before reading it, and each record's .npy header before
allocating it: dtype <f8, C order, the expected shape, and no more bytes
than the file has left. Nothing is unpickled, a header that repeats a key
is refused, every refusal names the path, and a file of another kind (or a
zero-byte file) is "not a <format> file; <remedy>". The same content gives
the same bytes, and float64 values round-trip exactly. The pose, joint and
Jacobian writers refuse an array of a rank their format does not hold, and
a refused or failed write leaves no file.

  format               version  header fields and records
  kinedeep-poses       2        skeleton; one (N, D) record of poses (mm
                                for translation DOFs, radians for rotations)
  kinedeep-joints      2        skeleton; one (N, K, 3) record of joint
                                frames, mm
  kinedeep-jacobian    2        skeleton; one (3J, D) record per pose, its
                                analytic FK Jacobian (mm per unit of each
                                DOF; rows by joint, then axis); written,
                                never read back
  kinedeep-dataset     5        skeleton; the records features
                                (N, 3 * n_eval) and thetas (N, D)
  kinedeep-checkpoint  6        skeleton (the skeleton's config), mode,
                                history; each layer's weights, then its
                                biases; the output gains are derived from
                                the skeleton and the mode (regressor)

Pose, joint and dataset files are read by one reader: the header holds
exactly format, version and skeleton (a non-empty name), no byte follows
the last record, and every value is finite (the occlusion sentinel is); a
refusal of a non-finite value names the first such row, counted from 0.
Poses and frames may be zero rows; a dataset holds N >= 1 equal rows.
Version 1 of the pose, joint and Jacobian formats was a text table, which
is not a record file. A dataset stores no joint positions: the labels are
the forward kinematics of thetas (bench.eval_joints), and synth's manifest
records how they were drawn.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .bench import Dataset

DATASET_FORMAT = "kinedeep-dataset"
DATASET_VERSION = 5
_DATASET_ARRAYS = ("features", "thetas")
_KINEMATICS_VERSION = 2  # of the pose, joint and Jacobian formats
_POSE_REMEDY = "write it with fileio.write_pose_file, or re-run ik"
_JOINT_REMEDY = "re-run fk"
_RECORDS_START = b'{"format": '  # how json.dumps begins every record file's header


class FileFormatError(ValueError):
    """A data file violates its documented format."""


def write_records(path, header: dict, arrays) -> None:
    """The JSON header line (its first key "format"), then each array as a
    C-order float64 .npy record; np.save writes such an array's bytes
    without a copy, and `arrays` may be a generator. If a write fails part
    way (a generator's refused array included), the file is removed."""
    with open(path, "wb") as fh:
        try:
            fh.write(json.dumps(header).encode() + b"\n")
            for array in arrays:
                np.save(fh, np.ascontiguousarray(array, dtype="<f8"))
        except BaseException:
            os.remove(path)
            raise


def _fits(got, shape) -> bool:
    """Whether shape `got` is `shape`, a None dimension matching any length."""
    return len(got) == len(shape) and all(n in (None, g) for g, n in zip(got, shape))


def _shaped(path, what, array, shape, expected) -> np.ndarray:
    """`array`, refused unless its shape fits `shape` (spelt `expected`)."""
    array = np.asarray(array)
    if not _fits(array.shape, shape):
        raise ValueError(f"{path}: {what} are {array.shape}, expected {expected}; "
                         f"not written")
    return array


def _unique_keys(pairs) -> dict:
    if len({key for key, _ in pairs}) < len(pairs):
        raise ValueError("a repeated key")
    return dict(pairs)


def read_header(fh, path, fmt, version, remedy) -> dict:
    """The header line of the record file `fh`, refused unless it is a JSON
    object with format `fmt` and the integer version `version`; `remedy`
    ends the refusal."""
    start = fh.read(len(_RECORDS_START))  # a file of zeros has no line end
    try:
        header = json.loads(start + fh.readline(), object_pairs_hook=_unique_keys) \
            if start == _RECORDS_START else None
    except ValueError:  # not JSON, not UTF-8, or a repeated key
        header = None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise FileFormatError(f"{path}: not a {fmt} file; {remedy}")
    if type(header.get("version")) is not int or header["version"] != version:
        raise FileFormatError(f"{path}: unsupported {fmt} version {header.get('version')!r} "
                              f"(this reader reads version {version}); {remedy}")
    return header


def read_record(fh, path, what, shape) -> np.ndarray:
    """The next .npy record of `fh` as a fresh float64 array, refused unless
    it is <f8 in C order of `shape` (a None dimension matches any length)
    and the file holds all of it; `what` names the record in a refusal."""
    try:  # np.save writes version 1.0, and 2.0 for headers over 64 KiB
        read = (np.lib.format.read_array_header_1_0 if np.lib.format.read_magic(fh) == (1, 0)
                else np.lib.format.read_array_header_2_0)
        got, fortran_order, dtype = read(fh)
    except ValueError as e:  # short or malformed record header
        raise FileFormatError(f"{path}: {what}: {e}") from None
    if dtype != np.dtype("<f8") or fortran_order or not _fits(got, shape):
        raise FileFormatError(f"{path}: {what} are {dtype} {got}"
                              f"{' in Fortran order' if fortran_order else ''}, "
                              f"expected float64 {str(shape).replace('None', 'N')}")
    if 8 * math.prod(got) > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FileFormatError(f"{path}: {what}: the file ends inside the record")
    try:
        array = np.empty(got)
    except ValueError as e:  # a negative dimension, or one beyond numpy's limit
        raise FileFormatError(f"{path}: {what}: {e}") from None
    fh.readinto(array)
    return array


def _write_skeleton_records(path, fmt, version, skeleton_name, arrays) -> None:
    write_records(path, {"format": fmt, "version": version, "skeleton": skeleton_name},
                  arrays)


def _read_skeleton_records(path, fmt, version, remedy, records) -> tuple:
    """(skeleton name, arrays) of a pose, joint or dataset file of format
    `fmt`; `records` are the (name, shape) pairs of its records."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, fmt, version, remedy)
        if sorted(header) != ["format", "skeleton", "version"] or \
                not (isinstance(header["skeleton"], str) and header["skeleton"]):
            raise FileFormatError(f"{path}: header fields must be exactly format, version "
                                  f"and skeleton (a non-empty name); {remedy}")
        arrays = [read_record(fh, path, what, shape) for what, shape in records]
        if fh.read(1):
            raise FileFormatError(f"{path}: trailing bytes after the last record")
    for (what, _), a in zip(records, arrays):
        bad = ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
        if bad.any():
            raise FileFormatError(f"{path}: {what} holds non-finite values, "
                                  f"first in row {bad.argmax()}")
    return header["skeleton"], arrays


def write_pose_file(path, skeleton_name: str, poses) -> None:
    """Poses (N, D) as one record."""
    poses = _shaped(path, "poses", poses, (None, None), "(N, D)")
    _write_skeleton_records(path, "kinedeep-poses", _KINEMATICS_VERSION, skeleton_name,
                            [poses])


def read_pose_file(path, expected_dims):
    """Returns (skeleton name, poses (N, expected_dims)); N may be zero."""
    name, (poses,) = _read_skeleton_records(path, "kinedeep-poses", _KINEMATICS_VERSION,
                                            _POSE_REMEDY, [("poses", (None, expected_dims))])
    return name, poses


def write_joint_file(path, skeleton_name: str, joints) -> None:
    """Frames of joints (N, K, 3) as one record."""
    joints = _shaped(path, "frames", joints, (None, None, 3), "(N, K, 3)")
    _write_skeleton_records(path, "kinedeep-joints", _KINEMATICS_VERSION, skeleton_name,
                            [joints])


def read_joint_file(path):
    """Returns (skeleton name, frames (N, K, 3)); N may be zero."""
    name, (frames,) = _read_skeleton_records(path, "kinedeep-joints", _KINEMATICS_VERSION,
                                             _JOINT_REMEDY, [("frames", (None, None, 3))])
    return name, frames


def write_jacobian_file(path, skeleton_name: str, jacobians) -> None:
    """One record per pose's (3J, D) Jacobian; `jacobians` may be a
    generator, so they need not all be in memory at once."""
    _write_skeleton_records(path, "kinedeep-jacobian", _KINEMATICS_VERSION, skeleton_name,
                            (_shaped(path, "Jacobians", j, (None, None), "(3J, D)")
                             for j in jacobians))


def write_dataset(path, data: Dataset) -> None:
    _write_skeleton_records(path, DATASET_FORMAT, DATASET_VERSION, data.skeleton_name,
                            (data.features, data.thetas))


def read_dataset(path) -> Dataset:
    name, arrays = _read_skeleton_records(path, DATASET_FORMAT, DATASET_VERSION,
                                          "re-run synth",
                                          [(key, (None, None)) for key in _DATASET_ARRAYS])
    rows = {key: len(a) for key, a in zip(_DATASET_ARRAYS, arrays)}
    if len(set(rows.values())) != 1:
        raise FileFormatError(f"{path}: row counts {rows} differ")
    if not rows["features"]:
        raise FileFormatError(f"{path}: dataset has no samples")
    return Dataset(name, *arrays)
