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

Every row has the header's width (dims=, or 3 x joints=), else the first
row's, which for joints must be a multiple of 3. A header with no rows is
zero records of the header's width: (0, K, 3) frames or (0, D) poses. A
zero-byte file is zero records of width zero, or of the caller's expected
width of poses. Reading streams the file line by line and holds only the
parsed array. Floats are written with repr (shortest round-trip), so write
-> read -> write is byte-stable. Parse errors carry 1-based line numbers.

A dataset is one uncompressed .npz file, read with allow_pickle=False, of
float64 members features (N, 3 * n_eval), thetas (N, D) and joints (N, 3J),
and meta, a 0-d JSON string: magic "kinedeep-dataset", version 2, skeleton,
sigma_mm, occlusion, seed and n, the sample count. Its zip entries carry
numpy's fixed 1980 timestamp, so the same dataset gives the same bytes.
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
DATASET_VERSION = 2
_DATASET_ARRAYS = ("features", "thetas", "joints")


class FileFormatError(ValueError):
    """A data file violates its documented format."""


def _write_table(path, header: str, rows) -> None:
    """The header line, then one line per 1-D row (a generator keeps N flat)."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_table(path, magic, width_key, unit):
    """(header fields, (N, width) array), line by line. The width is the header's
    `width_key` field times `unit`, else the first row's, a multiple of `unit`."""
    rows = []
    with open(path) as fh:
        header = fh.readline()
        parts = header.lstrip("#").split()
        if header and parts[:2] != [magic, "v1"]:
            raise FileFormatError(f"{path}: expected a '{magic} v1' header on line 1")
        try:  # width is None until the first row sets it
            fields = dict(tok.split("=", 1) for tok in parts[2:])
            width = int(fields[width_key]) * unit if width_key in fields else None
        except ValueError:
            raise FileFormatError(f"{path}: malformed header {header.strip()!r}") from None
        for line_no, line in enumerate(fh, start=2):
            if not line.strip() or line.startswith("#"):
                continue
            tokens = line.rstrip("\n").split(",")
            if width is None and len(tokens) % unit == 0:
                width = len(tokens)
            if len(tokens) != width:
                want = f"a multiple of {unit}" if width is None else width
                raise FileFormatError(
                    f"{path}: line {line_no} has {len(tokens)} values, expected {want}")
            try:
                rows.append(np.array(tokens, dtype=float))
            except ValueError:
                raise FileFormatError(f"{path}: malformed number on line {line_no}") from None
    return fields, np.stack(rows) if rows else np.zeros((0, width or 0))


def write_pose_file(path, skeleton_name: str, poses) -> None:
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    _write_table(path, f"{POSES_MAGIC} v1 skeleton={skeleton_name} dims={poses.shape[1]}",
                 poses)


def read_pose_file(path, expected_dims=None):
    """Returns (skeleton name, poses (N, D)); N may be zero."""
    fields, poses = _read_table(path, POSES_MAGIC, "dims", 1)
    if expected_dims is not None and poses.shape[1] != expected_dims:
        if poses.shape[1]:
            raise FileFormatError(
                f"{path}: poses carry {poses.shape[1]} values, expected {expected_dims}")
        poses = np.zeros((0, expected_dims))
    return fields.get("skeleton", ""), poses


def write_joint_file(path, skeleton_name: str, joints) -> None:
    joints = np.asarray(joints, dtype=float)
    if joints.ndim == 3:
        joints = joints.reshape(joints.shape[0], 3 * joints.shape[1])
    joints = np.atleast_2d(joints)
    _write_table(path, f"{JOINTS_MAGIC} v1 skeleton={skeleton_name} "
                       f"joints={joints.shape[1] // 3}", joints)


def read_joint_file(path):
    """Returns (skeleton name, frames (N, K, 3)); N may be zero."""
    fields, flat = _read_table(path, JOINTS_MAGIC, "joints", 3)
    return fields.get("skeleton", ""), flat.reshape(flat.shape[0], flat.shape[1] // 3, 3)


def write_jacobian_file(path, skeleton_name: str, shape, jacobians) -> None:
    """One (rows, cols) = `shape` Jacobian per line; `jacobians` may be a
    generator, so they need not all be in memory at once."""
    _write_table(path, f"{JACOBIAN_MAGIC} v1 skeleton={skeleton_name} "
                       f"rows={shape[0]} cols={shape[1]}",
                 (np.reshape(jac, -1) for jac in jacobians))


def write_dataset(path, data: Dataset) -> None:
    meta = {"magic": DATASET_MAGIC, "version": DATASET_VERSION,
            "skeleton": data.skeleton_name, "sigma_mm": data.sigma_mm,
            "occlusion": data.occlusion_prob, "seed": data.seed, "n": len(data)}
    with open(path, "wb") as fh:  # given a path, savez would append ".npz"
        np.savez(fh, features=data.features, thetas=data.thetas,
                 joints=data.joints.reshape(len(data), -1), meta=np.array(json.dumps(meta)))


def read_dataset(path) -> Dataset:
    text_head = f"# {DATASET_MAGIC} v1".encode()
    # np.load given a path leaks its handle when zipfile rejects the archive
    with open(path, "rb") as fh:
        head = fh.read(len(text_head))
        if head == text_head:
            raise FileFormatError(f"{path}: a text (v1) dataset; re-run synth")
        if not head.startswith(b"PK\x03\x04"):
            raise FileFormatError(f"{path}: not a .npz dataset")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                members = {key: npz[key] for key in npz.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as e:
            raise FileFormatError(f"{path}: unreadable .npz dataset: {e}") from None
    if sorted(members) != sorted((*_DATASET_ARRAYS, "meta")):
        raise FileFormatError(f"{path}: members {sorted(members)}, expected "
                              f"{', '.join(_DATASET_ARRAYS)} and meta")
    try:
        meta = json.loads(str(members["meta"][()]))
        if (meta["magic"], meta["version"]) != (DATASET_MAGIC, DATASET_VERSION):
            raise ValueError
        n, info = meta["n"], [meta[k] for k in ("skeleton", "sigma_mm", "occlusion", "seed")]
    except (KeyError, TypeError, ValueError):
        raise FileFormatError(f"{path}: meta is not a {DATASET_MAGIC} "
                              f"version {DATASET_VERSION} record; re-run synth") from None
    features, thetas, joints = arrays = [members[key] for key in _DATASET_ARRAYS]
    for key, a in zip(_DATASET_ARRAYS, arrays):
        if a.dtype != np.float64 or a.ndim != 2:
            raise FileFormatError(f"{path}: {key} is {a.dtype} of shape {a.shape}, "
                                  "expected float64 (N, width)")
    rows = {key: len(a) for key, a in zip(_DATASET_ARRAYS, arrays)}
    if set(rows.values()) != {n}:
        raise FileFormatError(f"{path}: row counts {rows} are not all meta's n={n}")
    if not n:
        raise FileFormatError(f"{path}: dataset has no samples")
    if joints.shape[1] % 3:
        raise FileFormatError(f"{path}: joints width {joints.shape[1]} is not a multiple of 3")
    return Dataset(*info, features, thetas, joints.reshape(n, -1, 3))
