"""Text formats for poses, joint frames and Jacobians; the binary dataset.

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

A dataset is one uncompressed .npz file, read with allow_pickle=False, of
float64 members features (N, 3 * n_eval) and thetas (N, D), N >= 1, and
meta, a 0-d JSON string of exactly magic "kinedeep-dataset", version 4 and
skeleton (a non-empty string). The .npy headers record the shapes, and
synth's manifest how the samples were drawn. It stores no joint positions:
the labels are the forward kinematics of thetas (bench.eval_joints). Its
zip entries carry numpy's fixed 1980 timestamp, so the same dataset gives
the same bytes.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

from .bench import Dataset

POSES_MAGIC = "kinedeep-poses"
JOINTS_MAGIC = "kinedeep-joints"
DATASET_MAGIC = "kinedeep-dataset"
JACOBIAN_MAGIC = "kinedeep-jacobian"
DATASET_VERSION = 4
_DATASET_ARRAYS = ("features", "thetas")


class FileFormatError(ValueError):
    """A data file violates its documented format."""


def _write_table(path, header: str, rows) -> None:
    """The header line, then one line per 1-D row (a generator keeps N flat)."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_header(path, line, magic, width_key) -> tuple:
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
        name, count = _read_header(path, fh.readline(), magic, width_key)
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


def write_dataset(path, data: Dataset) -> None:
    meta = {"magic": DATASET_MAGIC, "version": DATASET_VERSION,
            "skeleton": data.skeleton_name}
    with open(path, "wb") as fh:  # given a path, savez would append ".npz"
        np.savez(fh, features=data.features, thetas=data.thetas,
                 meta=np.array(json.dumps(meta)))


def read_dataset(path) -> Dataset:
    # np.load given a path leaks its handle when zipfile rejects the archive
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":
            raise FileFormatError(f"{path}: not a .npz dataset")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                members = {key: npz[key] for key in npz.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as e:
            raise FileFormatError(f"{path}: unreadable .npz dataset: {e}") from None
    if sorted(members) != sorted((*_DATASET_ARRAYS, "meta")):
        raise FileFormatError(f"{path}: members {sorted(members)}, expected "
                              f"{', '.join(_DATASET_ARRAYS)} and meta; re-run synth")
    try:
        meta = json.loads(str(members["meta"][()]))
        name = meta["skeleton"]
        if not (isinstance(name, str) and name) or meta != {
                "magic": DATASET_MAGIC, "version": DATASET_VERSION, "skeleton": name}:
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise FileFormatError(f"{path}: meta is not a {DATASET_MAGIC} "
                              f"version {DATASET_VERSION} record; re-run synth") from None
    arrays = [members[key] for key in _DATASET_ARRAYS]
    for key, a in zip(_DATASET_ARRAYS, arrays):
        if a.dtype != np.float64 or a.ndim != 2:
            raise FileFormatError(f"{path}: {key} is {a.dtype} of shape {a.shape}, "
                                  "expected float64 (N, width)")
        if not np.isfinite(a).all():  # the occlusion sentinel is finite
            raise FileFormatError(f"{path}: {key} holds non-finite values")
    rows = {key: len(a) for key, a in zip(_DATASET_ARRAYS, arrays)}
    if len(set(rows.values())) != 1:
        raise FileFormatError(f"{path}: row counts {rows} differ")
    if not rows["features"]:
        raise FileFormatError(f"{path}: dataset has no samples")
    return Dataset(name, *arrays)
