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
the same bytes, and float64 values round-trip exactly.

Every file is made for one skeleton: its header holds that skeleton's
config (Skeleton.to_dict()) under skeleton, and the record shapes follow
from it (D DOFs, J joints, n_eval eval joints, N rows):

  format               version  records
  kinedeep-poses       3        one (N, D) record of poses (mm for
                                translation DOFs, radians for rotations)
  kinedeep-joints      3        one (N, J, 3) record of joint frames, mm
  kinedeep-jacobian    3        one (3J, D) record per pose, its analytic
                                FK Jacobian (mm per unit of each DOF; rows
                                by joint, then axis); never read back
  kinedeep-dataset     6        features (N, 3 * n_eval) and thetas (N, D)
  kinedeep-checkpoint  6        mode and history in the header; each layer's
                                weights, then its biases (regressor)

A reader builds the file's Skeleton once (skeleton_of) and returns it with
the records; check_made_for is the one rule that a file was made for a
given skeleton. The writers take the Skeleton and refuse an array of a
shape its reader refuses, and a refused or failed write leaves no file.
Pose, joint and dataset files share one reader: the header holds exactly
format, version and skeleton, no byte follows the last record, and every
value is finite (the occlusion sentinel is); a refusal of a non-finite
value names the first such row, counted from 0. Poses and frames may be
zero rows; a dataset holds N >= 1 equal rows. Pose, joint and Jacobian
version 2 and dataset version 5 stored the skeleton's name only; version 1
of the first three was a text table, not a record file. A dataset stores
no joint positions: the labels are the forward kinematics of thetas
(bench.eval_joints), and synth's manifest records how they were drawn.
"""
from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .bench import Dataset
from .skeleton import Skeleton, SkeletonError, skeleton_from_dict

# format -> (version, the remedy that ends a reader's refusal, the (name,
# shape) of each record of a file made for a skeleton, None the row count)
_FORMATS = {
    "kinedeep-poses": (3, "write it with fileio.write_pose_file, or re-run ik",
                       lambda s: [("poses", (None, s.n_dofs))]),
    "kinedeep-joints": (3, "re-run fk", lambda s: [("frames", (None, s.n_joints, 3))]),
    "kinedeep-jacobian": (3, None, lambda s: [("Jacobians", (3 * s.n_joints, s.n_dofs))]),
    "kinedeep-dataset": (6, "re-run synth", lambda s: [
        ("features", (None, 3 * len(s.eval_subset))), ("thetas", (None, s.n_dofs))]),
}
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


def _spelt(shape) -> str:
    return str(shape).replace("None", "N")


def _shaped(path, what, array, shape) -> np.ndarray:
    """`array`, refused unless its shape fits `shape`."""
    array = np.asarray(array)
    if not _fits(array.shape, shape):
        raise ValueError(f"{path}: {what} are {array.shape}, expected {_spelt(shape)}; "
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
                              f"expected float64 {_spelt(shape)}")
    if 8 * math.prod(got) > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FileFormatError(f"{path}: {what}: the file ends inside the record")
    try:
        array = np.empty(got)
    except ValueError as e:  # a negative dimension, or one beyond numpy's limit
        raise FileFormatError(f"{path}: {what}: {e}") from None
    fh.readinto(array)
    return array


def skeleton_of(path, config) -> Skeleton:
    """The Skeleton of the config a file's header stores under skeleton,
    refused, naming the path, unless the config builds one and is the
    canonical form that its to_dict() gives (a name included)."""
    try:
        skel = skeleton_from_dict(config)
        if skel.to_dict() != config:
            raise SkeletonError("not the canonical form that Skeleton.to_dict() gives")
    except SkeletonError as e:
        raise FileFormatError(f"{path}: header field skeleton is not a skeleton config: "
                              f"{e}") from None
    return skel


def check_made_for(path, kind, made_for: Skeleton, skel: Skeleton) -> None:
    """Refuse the file `path`, a `kind` made for the skeleton `made_for`,
    unless that is `skel`: the same config, not only the same name."""
    if made_for.to_dict() != skel.to_dict():
        raise ValueError(f"{path}: {kind} was made for skeleton {made_for.name!r}, not "
                         f"{skel.name!r}" + (" (same name, but the configs differ)"
                                             if made_for.name == skel.name else ""))


def _write_skeleton_records(path, fmt, skel, arrays) -> None:
    """A file of format `fmt` made for `skel`, each of `arrays` refused
    unless it has its record's shape (every record of a Jacobian file has
    the one): a list's before the file is opened, a generator's as each
    comes."""
    version, _, shapes_of = _FORMATS[fmt]
    checked = (_shaped(path, what, array, shape)
               for (what, shape), array in zip(itertools.cycle(shapes_of(skel)), arrays))
    write_records(path, {"format": fmt, "version": version, "skeleton": skel.to_dict()},
                  list(checked) if isinstance(arrays, list) else checked)


def _read_skeleton_records(path, fmt) -> tuple:
    """(skeleton, *arrays) of a pose, joint or dataset file of format `fmt`."""
    version, remedy, shapes_of = _FORMATS[fmt]
    with open(path, "rb") as fh:
        header = read_header(fh, path, fmt, version, remedy)
        if sorted(header) != ["format", "skeleton", "version"]:
            raise FileFormatError(f"{path}: header fields must be exactly format, version "
                                  f"and skeleton; {remedy}")
        skel = skeleton_of(path, header["skeleton"])
        records = shapes_of(skel)
        arrays = [read_record(fh, path, what, shape) for what, shape in records]
        if fh.read(1):
            raise FileFormatError(f"{path}: trailing bytes after the last record")
    for (what, _), a in zip(records, arrays):
        bad = ~np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
        if bad.any():
            raise FileFormatError(f"{path}: {what} holds non-finite values, "
                                  f"first in row {bad.argmax()}")
    return skel, *arrays


def write_pose_file(path, skel: Skeleton, poses) -> None:
    """Poses (N, D) as one record."""
    _write_skeleton_records(path, "kinedeep-poses", skel, [poses])


def read_pose_file(path) -> tuple:
    """Returns (skeleton, poses (N, D)); N may be zero."""
    return _read_skeleton_records(path, "kinedeep-poses")


def write_joint_file(path, skel: Skeleton, frames) -> None:
    """Frames of every joint (N, J, 3) as one record."""
    _write_skeleton_records(path, "kinedeep-joints", skel, [frames])


def read_joint_file(path) -> tuple:
    """Returns (skeleton, frames (N, J, 3)); N may be zero."""
    return _read_skeleton_records(path, "kinedeep-joints")


def write_jacobian_file(path, skel: Skeleton, jacobians) -> None:
    """One record per pose's (3J, D) Jacobian; `jacobians` may be a
    generator, so they need not all be in memory at once."""
    _write_skeleton_records(path, "kinedeep-jacobian", skel, jacobians)


def write_dataset(path, data: Dataset) -> None:
    """Features (N, 3 * n_eval) and thetas (N, D), N >= 1, as two records."""
    rows = len(data.features), len(data.thetas)
    if not 1 <= rows[0] == rows[1]:
        raise ValueError(f"{path}: features and thetas hold {rows[0]} and {rows[1]} rows, "
                         f"expected N >= 1 of each; not written")
    _write_skeleton_records(path, "kinedeep-dataset", data.skeleton,
                            [data.features, data.thetas])


def read_dataset(path) -> Dataset:
    data = Dataset(*_read_skeleton_records(path, "kinedeep-dataset"))
    rows = {"features": len(data.features), "thetas": len(data.thetas)}
    if len(set(rows.values())) != 1:
        raise FileFormatError(f"{path}: row counts {rows} differ")
    if not rows["features"]:
        raise FileFormatError(f"{path}: dataset has no samples")
    return data
