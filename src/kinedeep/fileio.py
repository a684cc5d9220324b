"""Text formats for poses, joint frames and Jacobians; the binary record
format of datasets and checkpoints.

A text file is a line-oriented table with a single header line:

  poses    "# kinedeep-poses v1 skeleton=<name> dims=<D>"
           then one pose per line, D comma-separated values
           (mm for translation DOFs, radians for rotations)
  joints   "# kinedeep-joints v1 skeleton=<name> joints=<K>"
           then one frame per line, 3*K comma-separated mm values
  jacobian "# kinedeep-jacobian v1 skeleton=<name> rows=<3J> cols=<D>"
           then one pose's analytic FK Jacobian per line, its 3J x D
           entries (mm per unit of each DOF) comma-separated in row-major
           order (joint, then axis, then DOF); written, never read back

A pose or joint header holds skeleton= (a non-empty name) and dims= or
joints= (an integer >= 0), each exactly once; a header that lacks one,
repeats one, holds another field, a malformed value or a width beyond
numpy's array limit is refused, naming the field. Every row has the
header's width (dims=, or 3 x joints=). A header with no rows is zero
records: (0, K, 3) frames or (0, D) poses. A zero-byte file has no header
and is refused. Reading streams the file line by line and holds only the
parsed array. Floats are written with repr (shortest round-trip), so
write -> read -> write is byte-stable. A non-finite value (nan, inf) is
refused. Parse errors carry 1-based line numbers.

Datasets and checkpoints share one binary record format: a JSON object on
one line, its first key "format", with an integer "version", then .npy
records as np.save writes them (write_records). The readers (read_header,
read_record) check the line's first bytes before reading it, and each
record's .npy header before allocating it: dtype <f8, C order, the
expected shape, and no more bytes than the file has left. Nothing is
unpickled. Trailing bytes are refused, every refusal names the path, and
the same content gives the same bytes.

A dataset ("kinedeep-dataset", version 5) has exactly the header fields
format, version and skeleton (a non-empty name), then the records features
(N, 3 * n_eval) and thetas (N, D), N >= 1 equal rows of finite values;
synth's manifest records how they were drawn. It stores no joint
positions: the labels are the forward kinematics of thetas
(bench.eval_joints). A checkpoint is regressor.save_checkpoint's.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .bench import Dataset

POSES_MAGIC = "kinedeep-poses"
JOINTS_MAGIC = "kinedeep-joints"
DATASET_FORMAT = "kinedeep-dataset"
JACOBIAN_MAGIC = "kinedeep-jacobian"
DATASET_VERSION = 5
_DATASET_ARRAYS = ("features", "thetas")
_RECORDS_START = b'{"format": '  # how json.dumps begins every record file's header


class FileFormatError(ValueError):
    """A data file violates its documented format."""


def _write_table(path, header: str, rows) -> None:
    """The header line, then one line per 1-D row (a generator keeps N flat)."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_table_header(path, line, magic, width_key) -> tuple:
    """(skeleton name, count) of the header line
    "# <magic> v1 skeleton=<name> <width_key>=<count>"."""
    parts = line.lstrip("#").split()
    if parts[:2] != [magic, "v1"]:
        raise FileFormatError(f"{path}: expected a '{magic} v1' header on line 1")
    fields = {}
    for token in parts[2:]:
        key, _, value = token.partition("=")
        if key not in ("skeleton", width_key):
            raise FileFormatError(f"{path}: unknown header field {key!r}, expected "
                                  f"skeleton= and {width_key}=")
        if key in fields:
            raise FileFormatError(f"{path}: header field {key}= is repeated")
        fields[key] = value
    for key, valid, expected in (
            ("skeleton", lambda v: v != "", "a non-empty name"),
            (width_key, lambda v: v.isascii() and v.isdigit(), "an integer >= 0")):
        if key not in fields:
            raise FileFormatError(f"{path}: header field {key}= is missing")
        if not valid(fields[key]):
            raise FileFormatError(f"{path}: malformed header field "
                                  f"{key}={fields[key]!r}, expected {expected}")
    return fields["skeleton"], int(fields[width_key])


def _read_table(path, magic, width_key, unit):
    """(skeleton name, (N, width) array), line by line; the width is the
    header's `width_key` field times `unit`."""
    rows = []
    with open(path) as fh:
        name, count = _read_table_header(path, fh.readline(), magic, width_key)
        width = count * unit
        if width > np.iinfo(np.intp).max:
            raise FileFormatError(f"{path}: header field {width_key}={count} is out of range")
        for line_no, line in enumerate(fh, start=2):
            if not line.strip() or line.startswith("#"):
                continue
            tokens = line.rstrip("\n").split(",")
            if len(tokens) != width:
                raise FileFormatError(
                    f"{path}: line {line_no} has {len(tokens)} values, expected {width}")
            try:
                rows.append(np.array(tokens, dtype=float))
            except ValueError:
                raise FileFormatError(f"{path}: malformed number on line {line_no}") from None
            if not np.isfinite(rows[-1]).all():
                raise FileFormatError(f"{path}: non-finite value on line {line_no}")
    return name, np.stack(rows) if rows else np.zeros((0, width))


def write_pose_file(path, skeleton_name: str, poses) -> None:
    """Poses (N, D), one per line."""
    poses = np.asarray(poses, dtype=float)
    _write_table(path, f"{POSES_MAGIC} v1 skeleton={skeleton_name} dims={poses.shape[1]}",
                 poses)


def read_pose_file(path, expected_dims):
    """Returns (skeleton name, poses (N, expected_dims)); N may be zero."""
    name, poses = _read_table(path, POSES_MAGIC, "dims", 1)
    if poses.shape[1] != expected_dims:
        raise FileFormatError(
            f"{path}: poses carry {poses.shape[1]} values, expected {expected_dims}")
    return name, poses


def write_joint_file(path, skeleton_name: str, joints) -> None:
    """Frames of joints (N, K, 3), one frame per line."""
    joints = np.asarray(joints, dtype=float)
    _write_table(path, f"{JOINTS_MAGIC} v1 skeleton={skeleton_name} "
                       f"joints={joints.shape[1]}",
                 joints.reshape(len(joints), 3 * joints.shape[1]))


def read_joint_file(path):
    """Returns (skeleton name, frames (N, K, 3)); N may be zero."""
    name, flat = _read_table(path, JOINTS_MAGIC, "joints", 3)
    return name, flat.reshape(flat.shape[0], flat.shape[1] // 3, 3)


def write_jacobian_file(path, skeleton_name: str, shape, jacobians) -> None:
    """One (rows, cols) = `shape` Jacobian per line; `jacobians` may be a
    generator, so they need not all be in memory at once."""
    _write_table(path, f"{JACOBIAN_MAGIC} v1 skeleton={skeleton_name} "
                       f"rows={shape[0]} cols={shape[1]}",
                 (np.reshape(jac, -1) for jac in jacobians))


def write_records(path, header: dict, arrays) -> None:
    """The JSON header line (its first key "format"), then each array as an
    .npy record; np.save writes a C-order array's bytes without a copy."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for array in arrays:
            np.save(fh, array)


def read_header(fh, path, fmt, version, remedy) -> dict:
    """The header line of the record file `fh`, refused unless it is a JSON
    object with format `fmt` and the integer version `version`; `remedy`
    ends the refusal."""
    start = fh.read(len(_RECORDS_START))  # a file of zeros has no line end
    try:
        header = json.loads(start + fh.readline()) if start == _RECORDS_START else None
    except ValueError:  # not JSON, or not UTF-8
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
    if dtype != np.dtype("<f8") or fortran_order or len(got) != len(shape) or \
            not all(n in (None, g) for g, n in zip(got, shape)):
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


def write_dataset(path, data: Dataset) -> None:
    write_records(path, {"format": DATASET_FORMAT, "version": DATASET_VERSION,
                         "skeleton": data.skeleton_name}, (data.features, data.thetas))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        header = read_header(fh, path, DATASET_FORMAT, DATASET_VERSION, "re-run synth")
        if sorted(header) != ["format", "skeleton", "version"] or \
                not (isinstance(header["skeleton"], str) and header["skeleton"]):
            raise FileFormatError(f"{path}: header fields must be exactly format, version "
                                  "and skeleton (a non-empty name); re-run synth")
        arrays = [read_record(fh, path, key, (None, None)) for key in _DATASET_ARRAYS]
        if fh.read(1):
            raise FileFormatError(f"{path}: trailing bytes after the last record")
    for key, a in zip(_DATASET_ARRAYS, arrays):
        if not np.isfinite(a).all():  # the occlusion sentinel is finite
            raise FileFormatError(f"{path}: {key} holds non-finite values")
    rows = {key: len(a) for key, a in zip(_DATASET_ARRAYS, arrays)}
    if len(set(rows.values())) != 1:
        raise FileFormatError(f"{path}: row counts {rows} differ")
    if not rows["features"]:
        raise FileFormatError(f"{path}: dataset has no samples")
    return Dataset(header["skeleton"], *arrays)
