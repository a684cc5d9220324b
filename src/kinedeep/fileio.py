"""Text formats for poses, joint frames, datasets and Jacobians.

All files are line-oriented tables with a single header line:

  poses    "# kinedeep-poses v1 skeleton=<name> dims=<D>"
           then one pose per line, D comma-separated values
           (mm for translation DOFs, radians for rotations)
  joints   "# kinedeep-joints v1 skeleton=<name> joints=<K>"
           then one frame per line, 3*K comma-separated mm values
  dataset  "# kinedeep-dataset v1 skeleton=<name> sigma_mm=<s>
            occlusion=<p> seed=<n> n=<n>"
           then one sample per line, "features;theta;joints" with each
           section comma-separated; a reader checks n= against the rows
  jacobian "# kinedeep-jacobian v1 skeleton=<name> rows=<3J> cols=<D>"
           then one pose's analytic FK Jacobian per line, its 3J x D
           entries (mm per unit of each DOF) comma-separated in row-major
           order (joint, then axis, then DOF); written, never read back

A row's sections are separated by ';', its values by ','. Each section has
a fixed width: the header's (dims=, or 3 x joints=), else the first row's.
A joint section's width must be a multiple of 3. A header with no rows is
zero records of the header's width: a joints file reads as frames of shape
(0, K, 3), a poses file as poses of shape (0, D). A zero-byte file is zero
records of width zero, or of the caller's expected width of poses.

Reading streams the file one line at a time, so only the parsed arrays are
held, never the text. Floats are written with repr (shortest round-trip),
so write -> read -> write is byte-stable. Parse errors carry 1-based line
numbers.
"""
from __future__ import annotations

import numpy as np

from .bench import Dataset

POSES_MAGIC = "kinedeep-poses"
JOINTS_MAGIC = "kinedeep-joints"
DATASET_MAGIC = "kinedeep-dataset"
JACOBIAN_MAGIC = "kinedeep-jacobian"


class FileFormatError(ValueError):
    """A data file violates its documented format."""


def _write_table(path, header: str, *sections) -> None:
    """The header line, then row i of every section joined by ';'. A section
    is an iterable of 1-D rows; a generator keeps memory flat in N."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for row in zip(*sections):
            fh.write(";".join(",".join(repr(float(v)) for v in values)
                              for values in row) + "\n")


def _parse_header(line, magic, path):
    parts = line.lstrip("#").split()
    if len(parts) < 2 or parts[0] != magic or parts[1] != "v1":
        raise FileFormatError(f"{path}: expected a '{magic} v1' header on line 1")
    fields = {}
    for tok in parts[2:]:
        if "=" not in tok:
            raise FileFormatError(f"{path}: malformed header field {tok!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    return fields


def _header_field(fields, key, kind, path):
    try:
        return kind(fields[key])
    except ValueError:
        raise FileFormatError(f"{path}: bad header field {key}") from None


def _read_table(path, magic, sections):
    """(header fields, one (N, width) array per section), line by line.

    A section is (name, header width field or None, values per unit): poses
    count values, joint frames count joints of 3 values.
    """
    rows = [[] for _ in sections]
    with open(path) as fh:
        header = fh.readline()
        fields = _parse_header(header, magic, path) if header else {}
        # None until the first row sets it
        widths = [_header_field(fields, key, int, path) * unit if key in fields else None
                  for _, key, unit in sections]
        for line_no, line in enumerate(fh, start=2):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split(";")
            if len(parts) != len(sections):
                raise FileFormatError(
                    f"{path}: line {line_no} has {len(parts)} sections, expected "
                    + ";".join(name for name, *_ in sections))
            for s, (part, (name, _, unit)) in enumerate(zip(parts, sections)):
                tokens = part.split(",")
                if widths[s] is None and len(tokens) % unit == 0:
                    widths[s] = len(tokens)
                if len(tokens) != widths[s]:
                    want = f"a multiple of {unit}" if widths[s] is None else widths[s]
                    raise FileFormatError(
                        f"{path}: line {line_no} has {len(tokens)} {name} values, "
                        f"expected {want}")
                try:
                    rows[s].append(np.array(tokens, dtype=float))
                except ValueError:
                    raise FileFormatError(
                        f"{path}: malformed number on line {line_no}") from None
    return fields, [np.stack(r) if r else np.zeros((0, w or 0))
                    for r, w in zip(rows, widths)]


def write_pose_file(path, skeleton_name: str, poses) -> None:
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    _write_table(path, f"{POSES_MAGIC} v1 skeleton={skeleton_name} dims={poses.shape[1]}",
                 poses)


def read_pose_file(path, expected_dims=None):
    """Returns (skeleton name, poses (N, D)); N may be zero."""
    fields, (poses,) = _read_table(path, POSES_MAGIC, [("pose", "dims", 1)])
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
    fields, (flat,) = _read_table(path, JOINTS_MAGIC, [("joint", "joints", 3)])
    return fields.get("skeleton", ""), flat.reshape(flat.shape[0], flat.shape[1] // 3, 3)


def write_jacobian_file(path, skeleton_name: str, shape, jacobians) -> None:
    """One (rows, cols) = `shape` Jacobian per line; `jacobians` may be a
    generator, so they need not all be in memory at once."""
    _write_table(path, f"{JACOBIAN_MAGIC} v1 skeleton={skeleton_name} "
                       f"rows={shape[0]} cols={shape[1]}",
                 (np.reshape(jac, -1) for jac in jacobians))


def write_dataset(path, data: Dataset) -> None:
    _write_table(path, f"{DATASET_MAGIC} v1 skeleton={data.skeleton_name} "
                       f"sigma_mm={data.sigma_mm!r} occlusion={data.occlusion_prob!r} "
                       f"seed={data.seed} n={len(data)}",
                 data.features, data.thetas, data.joints.reshape(len(data), -1))


def read_dataset(path) -> Dataset:
    fields, (features, thetas, joints) = _read_table(
        path, DATASET_MAGIC, [("features", None, 1), ("theta", None, 1), ("joints", None, 3)])
    if not len(features):
        raise FileFormatError(f"{path}: dataset has no samples")
    meta = {"skeleton": "", "sigma_mm": "nan", "occlusion": "nan", "seed": "0", **fields}
    if "n" in meta and _header_field(meta, "n", int, path) != len(features):
        raise FileFormatError(
            f"{path}: header says n={meta['n']} but the file holds {len(features)} samples")
    return Dataset(meta["skeleton"], _header_field(meta, "sigma_mm", float, path),
                   _header_field(meta, "occlusion", float, path),
                   _header_field(meta, "seed", int, path),
                   features, thetas, joints.reshape(len(joints), -1, 3))
