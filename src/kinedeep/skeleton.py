"""Kinematic tree definition, validation, and the built-in 23-joint hand.

The built-in hand is the config file ``hand23.json`` shipped inside the
package; ``default_hand()`` loads it like any other skeleton file.

A skeleton is an ordered list of joints forming a rooted tree. Each joint
carries the length of the bone connecting it to its parent (mm), an optional
fixed rest-pose rotation offset, and an ordered list of degrees of freedom.
The flat concatenation of all DOFs, in joint order, defines the layout of a
pose vector: for the default hand that is 3 global translations (mm), 3
global rotations, then 20 finger angles (radians).

Angles are radians everywhere in the API; config files use degrees.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

AXES = ("X", "Y", "Z")
_AXIS_INDEX = {"X": 0, "Y": 1, "Z": 2}

KIND_TRANSLATION = "translation"
KIND_ROTATION = "rotation"


class SkeletonError(ValueError):
    """A skeleton config violates a structural invariant."""


def axis_index(axis) -> int:
    """Map an axis name ('X'|'Y'|'Z', case-insensitive) or index to 0..2."""
    if isinstance(axis, str):
        try:
            return _AXIS_INDEX[axis.upper()]
        except KeyError:
            raise SkeletonError(f"unknown axis {axis!r}, expected one of {AXES}") from None
    if not isinstance(axis, (int, float)):
        raise SkeletonError(f"unknown axis {axis!r}, expected one of {AXES}")
    i = int(axis)
    if i not in (0, 1, 2):
        raise SkeletonError(f"axis index {axis!r} out of range")
    return i


@dataclass(frozen=True)
class DofSpec:
    """One degree of freedom: a rotation angle or a translation component.

    Bounds are radians for rotations (within [-pi, pi]) and mm for
    translations.
    """

    kind: str
    axis: str
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in (KIND_TRANSLATION, KIND_ROTATION):
            raise SkeletonError(f"unknown dof kind {self.kind!r}")
        object.__setattr__(self, "axis", AXES[axis_index(self.axis)])
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise SkeletonError("dof bounds must be finite")
        if self.lower > self.upper:
            raise SkeletonError(
                f"dof lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.kind == KIND_ROTATION:
            # Closed interval: -pi is accepted so a full +-180 deg range is
            # representable; ranges never exceed one period.
            if self.lower < -math.pi - 1e-12 or self.upper > math.pi + 1e-12:
                raise SkeletonError(
                    f"rotation bounds [{self.lower}, {self.upper}] outside [-pi, pi]"
                )

    @property
    def is_rotation(self) -> bool:
        return self.kind == KIND_ROTATION


@dataclass(frozen=True)
class JointSpec:
    """A joint: its parent link, incoming bone length, and DOF list.

    ``rest_offset_deg`` is a fixed rotation (X, Y, Z degrees, applied in that
    order) baked into the joint's local frame before its DOF transforms; it
    shapes the rest pose (finger splay) without consuming DOFs.
    """

    name: str
    parent: int | None
    bone_length: float
    dofs: tuple[DofSpec, ...] = ()
    rest_offset_deg: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "dofs", tuple(self.dofs))
        object.__setattr__(self, "rest_offset_deg", tuple(self.rest_offset_deg))
        if not self.name:
            raise SkeletonError("joint name must be non-empty")
        if self.bone_length < 0:
            raise SkeletonError(f"joint {self.name!r}: negative bone length")
        if len(self.rest_offset_deg) != 3:
            raise SkeletonError(f"joint {self.name!r}: rest_offset_deg needs 3 values")


def _rest_rotation(rest_offset_deg):
    """3x3 rotation Rx*Ry*Rz of the given degree offsets, or None if zero."""
    if all(v == 0 for v in rest_offset_deg):
        return None
    rx, ry, rz = (math.radians(v) for v in rest_offset_deg)
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mx @ my @ mz


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _index(rows):
    """Rows as a basic slice when evenly spaced, else a read-only index array."""
    step = rows[1] - rows[0] if len(rows) > 1 else 1
    if step != 0 and all(b - a == step for a, b in zip(rows, rows[1:])):
        stop = rows[-1] + step
        return slice(rows[0], stop if stop >= 0 else None, step)
    return _frozen(np.array(rows, dtype=np.int64))


@dataclass(frozen=True)
class JointGroup:
    """Joints at one depth that forward kinematics runs as one batch.

    The members share a signature: a rest rotation or none, and the same
    DOF kinds and axes in the same order. Rows index joints in group order.

      rows          slice of the members' rows
      joints        the members' joint indices, in row order
      parent_rows   the parents' rows (a slice, or an index array), or None
                    for the root
      parent_group  the group whose frames ``parent_frames`` slices, member
                    by member, or -1 when ``parent_frames`` indexes the
                    kept frames
      bones         (G, 1, 1) bone lengths
      rest          (3, 3, G, 1, 1) rest rotations, [k, j, g] being entry
                    (k, j) of member g's, or None
      dofs          per DOF slot: (its permuted DOFs, a slice; axis; is rotation)
      kept          the kept frames this group writes, or None
      keep_frames   a later group slices this group's frames
    """

    rows: slice
    joints: tuple
    parent_rows: object
    parent_group: int
    parent_frames: object
    bones: np.ndarray
    rest: np.ndarray | None
    dofs: tuple
    kept: slice | None
    keep_frames: bool


@dataclass(frozen=True)
class FkLayout:
    """The joint groups of a skeleton and the orders FK runs them in.

      groups       a JointGroup per depth and signature, parents first
      joint_row    (J,) each joint's row in group order
      dof_order    (D,) the DOF at each permuted position: every group's
                   DOF slots in group order, rotation slots first
      dof_slot     (D,) each DOF's permuted position
      dof_row      (D,) per permuted position, its joint's row
      n_rotations  rotation DOFs, permuted positions [0, n_rotations)
      n_kept       frames kept for groups whose parents are not one slice
      sum_rounds   (parent rows, child rows) pairs that add subtree sums
                   into parents: deepest level first, and each parent's
                   children in descending joint index
    """

    groups: tuple
    joint_row: np.ndarray
    dof_order: np.ndarray
    dof_slot: np.ndarray
    dof_row: np.ndarray
    n_rotations: int
    n_kept: int
    sum_rounds: tuple


def _fk_layout(skel) -> FkLayout:
    """The FkLayout of a skeleton whose joints and DOF tables are built."""
    parents = skel.parent_index.tolist()
    J = len(parents)
    depth = [0] * J
    for u in range(1, J):
        depth[u] = depth[parents[u]] + 1
    signature = [(skel.rest_rotations[u] is not None,
                  tuple((d.kind, d.axis) for d in joint.dofs))
                 for u, joint in enumerate(skel.joints)]

    # one group per depth and signature, in order of first joint; members
    # follow their parents' rows, so a chain's groups line up row by row
    row, members, group_of = {}, [], {}
    for level in range(max(depth) + 1):
        by_signature = {}
        for u in range(J):
            if depth[u] == level:
                by_signature.setdefault(signature[u], []).append(u)
        for us in by_signature.values():
            us.sort(key=lambda u: (row.get(parents[u], -1), u))
            for u in us:
                row[u] = len(row)
                group_of[u] = len(members)
            members.append(us)
    start = [row[us[0]] for us in members]

    # a group slices its parents' frames when they are one evenly spaced
    # run of one group; otherwise it gathers them from the kept frames
    sliced, kept_from = {}, set()
    for gi, us in enumerate(members[1:], 1):
        ps = [parents[u] for u in us]
        pgs = {group_of[p] for p in ps}
        local = _index([row[p] - start[group_of[p]] for p in ps])
        if len(pgs) == 1 and isinstance(local, slice):
            sliced[gi] = (pgs.pop(), local)
        else:
            kept_from |= pgs
    kept, n_kept = {}, 0
    for gi in sorted(kept_from):
        kept[gi] = slice(n_kept, n_kept + len(members[gi]))
        n_kept += len(members[gi])

    rot, trans = [], []
    for gi, us in enumerate(members):
        for s in range(len(skel.joint_dofs[us[0]])):
            block = [skel.joint_dofs[u][s] for u in us]
            (rot if skel.dof_is_rotation[block[0]] else trans).append((gi, s, block))
    permuted, dof_order = {}, []
    for gi, s, block in rot + trans:
        permuted[gi, s] = slice(len(dof_order), len(dof_order) + len(block))
        dof_order.extend(block)

    groups = []
    for gi, us in enumerate(members):
        ps = [parents[u] for u in us]
        parent_group, parent_frames = sliced.get(gi, (-1, None))
        if gi > 0 and parent_frames is None:
            parent_frames = _index([kept[group_of[p]].start + row[p] - start[group_of[p]]
                                    for p in ps])
        rests = [skel.rest_rotations[u] for u in us]
        rest = None
        if rests[0] is not None:
            rest = _frozen(np.ascontiguousarray(
                np.transpose(rests, (1, 2, 0)))[..., None, None])
        groups.append(JointGroup(
            rows=slice(start[gi], start[gi] + len(us)),
            joints=tuple(us),
            parent_rows=None if gi == 0 else _index([row[p] for p in ps]),
            parent_group=parent_group,
            parent_frames=parent_frames,
            bones=_frozen(skel.bone_lengths[us][:, None, None]),
            rest=rest,
            dofs=tuple((permuted[gi, s], int(skel.dof_axis[d]), bool(skel.dof_is_rotation[d]))
                       for s, d in enumerate(skel.joint_dofs[us[0]])),
            kept=kept.get(gi),
            keep_frames=any(pg == gi for pg, _ in sliced.values()),
        ))

    # subtree sums: each level adds into the one above, in rounds that give
    # every parent its children from the highest joint index down
    sum_rounds = []
    for level in range(max(depth), 0, -1):
        rounds, taken = [], {}
        for u in range(J - 1, 0, -1):
            if depth[u] == level:
                k = taken[parents[u]] = taken.get(parents[u], -1) + 1
                if k == len(rounds):
                    rounds.append([])
                rounds[k].append((row[parents[u]], row[u]))
        for pairs in rounds:
            pairs.sort(key=lambda pair: pair[1])
            sum_rounds.append((_index([p for p, _ in pairs]), _index([c for _, c in pairs])))

    dof_order = np.array(dof_order, dtype=np.int64)
    joint_row = np.array([row[u] for u in range(J)], dtype=np.int64)
    return FkLayout(
        groups=tuple(groups),
        joint_row=_frozen(joint_row),
        dof_order=_frozen(dof_order),
        dof_slot=_frozen(np.argsort(dof_order)),
        dof_row=_frozen(joint_row[skel.dof_joint[dof_order]]),
        n_rotations=sum(len(block) for _, _, block in rot),
        n_kept=n_kept,
        sum_rounds=tuple(sum_rounds),
    )


class Skeleton:
    """Validated kinematic tree with precomputed lookup tables.

    Immutable after construction (all arrays are write-protected), so
    instances can be shared freely across threads.

    Derived attributes used by the kinematics code:
      parent_index   (J,) int, -1 at the root
      bone_lengths   (J,) float mm
      rest_rotations list of 3x3 arrays or None per joint
      dof_joint      (D,) int, owning joint of each DOF
      joint_dofs     per joint, the tuple of its DOF indices in order
      dof_is_rotation(D,) bool
      dof_axis       (D,) int 0..2
      dof_lower/dof_upper (D,) float
      path_mask      (J, D) bool, True where the DOF lies on the joint's
                     root path (inclusive)
      fk_layout      the joint groups forward kinematics runs as batches
    """

    def __init__(self, joints, eval_subset=None, name="skeleton"):
        self.name = str(name)
        self.joints = tuple(joints)
        self._validate_tree()

        J = len(self.joints)
        self.parent_index = np.array(
            [-1 if j.parent is None else j.parent for j in self.joints], dtype=np.int64
        )
        self.bone_lengths = np.array([j.bone_length for j in self.joints], dtype=float)
        self.rest_rotations = [_rest_rotation(j.rest_offset_deg) for j in self.joints]

        dof_joint, dof_rot, dof_axis, lo, hi = [], [], [], [], []
        for u, joint in enumerate(self.joints):
            for dof in joint.dofs:
                dof_joint.append(u)
                dof_rot.append(dof.is_rotation)
                dof_axis.append(axis_index(dof.axis))
                lo.append(dof.lower)
                hi.append(dof.upper)
        self.dof_joint = np.array(dof_joint, dtype=np.int64)
        self.dof_is_rotation = np.array(dof_rot, dtype=bool)
        self.dof_axis = np.array(dof_axis, dtype=np.int64)
        self.dof_lower = np.array(lo, dtype=float)
        self.dof_upper = np.array(hi, dtype=float)
        self.joint_dofs = tuple(
            tuple(d for d, v in enumerate(dof_joint) if v == u) for u in range(J)
        )

        mask = np.zeros((J, len(dof_joint)), dtype=bool)
        for u in range(J):
            v = u
            while v >= 0:
                mask[u, self.dof_joint == v] = True
                v = self.parent_index[v]
        self.path_mask = mask
        self.fk_layout = _fk_layout(self)

        if eval_subset is None:
            self.eval_subset = tuple(range(J))
        else:
            self.eval_subset = tuple(int(i) for i in eval_subset)
            bad = [i for i in self.eval_subset if not 0 <= i < J]
            if bad:
                raise SkeletonError(f"eval_subset indices out of range: {bad}")

        for arr in (self.parent_index, self.bone_lengths, self.dof_joint,
                    self.dof_is_rotation, self.dof_axis, self.dof_lower,
                    self.dof_upper, self.path_mask):
            arr.flags.writeable = False
        for r in self.rest_rotations:
            if r is not None:
                r.flags.writeable = False

    def _validate_tree(self):
        seen = set()
        roots = []
        for u, joint in enumerate(self.joints):
            if joint.name in seen:
                raise SkeletonError(f"duplicate joint name {joint.name!r}")
            seen.add(joint.name)
            if joint.parent is None:
                roots.append(joint.name)
                if joint.bone_length != 0:
                    raise SkeletonError(
                        f"root joint {joint.name!r} must have bone length 0"
                    )
            else:
                p = joint.parent
                if p == u:
                    raise SkeletonError(f"cycle: joint {joint.name!r} is its own parent")
                if not 0 <= p < len(self.joints):
                    raise SkeletonError(
                        f"joint {joint.name!r}: parent index {p} out of range"
                    )
                if p > u:
                    raise SkeletonError(
                        f"joint {joint.name!r} appears before its parent "
                        f"{self.joints[p].name!r} (order must be topological)"
                    )
        if len(roots) != 1:
            raise SkeletonError(
                f"expected exactly one root joint, found {len(roots)}: {roots}"
            )

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def n_dofs(self) -> int:
        return len(self.dof_joint)

    def to_dict(self) -> dict:
        joints = []
        for j in self.joints:
            entry = {
                "name": j.name,
                "parent": None if j.parent is None else self.joints[j.parent].name,
                "bone_length_mm": j.bone_length,
                "dofs": [_dof_to_dict(d) for d in j.dofs],
            }
            if any(v != 0 for v in j.rest_offset_deg):
                entry["rest_offset_deg"] = list(j.rest_offset_deg)
            joints.append(entry)
        return {
            "name": self.name,
            "joints": joints,
            "eval_subset": [self.joints[i].name for i in self.eval_subset],
        }

    def fingerprint(self) -> dict:
        """Name and sha256 of the canonical to_dict() JSON; equal for a
        skeleton and its save_skeleton/load_skeleton round trip."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        return {"name": self.name, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _dof_to_dict(dof: DofSpec) -> dict:
    if dof.is_rotation:
        return {
            "kind": dof.kind,
            "axis": dof.axis,
            "lower_deg": math.degrees(dof.lower),
            "upper_deg": math.degrees(dof.upper),
        }
    return {
        "kind": dof.kind,
        "axis": dof.axis,
        "lower_mm": dof.lower,
        "upper_mm": dof.upper,
    }


def _number(value, joint_name, key) -> float:
    """float(value), or a SkeletonError naming the joint and the key."""
    try:
        return float(value)
    except TypeError:
        raise SkeletonError(f"joint {joint_name!r}: {key} must be a number, "
                            f"not {value!r}") from None


def _dof_from_dict(raw: dict, joint_name: str) -> DofSpec:
    try:
        kind = raw["kind"]
        axis = raw["axis"]
    except KeyError as e:
        raise SkeletonError(f"joint {joint_name!r}: dof missing key {e}") from None
    if kind == KIND_ROTATION:
        try:
            lower = math.radians(_number(raw["lower_deg"], joint_name, "lower_deg"))
            upper = math.radians(_number(raw["upper_deg"], joint_name, "upper_deg"))
        except KeyError as e:
            raise SkeletonError(
                f"joint {joint_name!r}: rotation dof missing key {e}"
            ) from None
    elif kind == KIND_TRANSLATION:
        try:
            lower = _number(raw["lower_mm"], joint_name, "lower_mm")
            upper = _number(raw["upper_mm"], joint_name, "upper_mm")
        except KeyError as e:
            raise SkeletonError(
                f"joint {joint_name!r}: translation dof missing key {e}"
            ) from None
    else:
        raise SkeletonError(f"joint {joint_name!r}: unknown dof kind {kind!r}")
    try:
        return DofSpec(kind, axis, lower, upper)
    except SkeletonError as e:
        raise SkeletonError(f"joint {joint_name!r}: {e}") from None


def skeleton_from_dict(raw: dict, name=None) -> Skeleton:
    """Build and validate a Skeleton from its JSON-style dict form."""
    if not isinstance(raw, dict) or not isinstance(raw.get("joints"), list):
        raise SkeletonError("config must contain a 'joints' list")
    name_to_index = {}
    for i, entry in enumerate(raw["joints"]):
        if not isinstance(entry, dict):
            raise SkeletonError(f"joint #{i} is not an object")
        jname = entry.get("name")
        if not jname or not isinstance(jname, str):
            raise SkeletonError(f"joint #{i} has no name (a non-empty string)")
        if jname in name_to_index:
            raise SkeletonError(f"duplicate joint name {jname!r}")
        name_to_index[jname] = i

    joints = []
    for entry in raw["joints"]:
        jname = entry["name"]
        parent_name = entry.get("parent")
        if parent_name is None:
            parent = None
        else:
            if not isinstance(parent_name, str) or parent_name not in name_to_index:
                raise SkeletonError(
                    f"joint {jname!r}: unknown parent {parent_name!r}"
                )
            parent = name_to_index[parent_name]
        raw_dofs = entry.get("dofs", [])
        if not isinstance(raw_dofs, list) or not all(isinstance(d, dict) for d in raw_dofs):
            raise SkeletonError(f"joint {jname!r}: dofs must be a list of objects")
        dofs = tuple(_dof_from_dict(d, jname) for d in raw_dofs)
        rest_offset = entry.get("rest_offset_deg", (0.0, 0.0, 0.0))
        if not isinstance(rest_offset, (list, tuple)) or \
                not all(isinstance(v, (int, float)) for v in rest_offset):
            raise SkeletonError(f"joint {jname!r}: rest_offset_deg must be a list of numbers")
        joints.append(
            JointSpec(
                name=jname,
                parent=parent,
                bone_length=_number(entry.get("bone_length_mm", 0.0), jname,
                                    "bone_length_mm"),
                dofs=dofs,
                rest_offset_deg=tuple(rest_offset),
            )
        )

    eval_subset = None
    if "eval_subset" in raw:
        if not isinstance(raw["eval_subset"], list):
            raise SkeletonError("eval_subset must be a list of joint names")
        eval_subset = []
        for ename in raw["eval_subset"]:
            if not isinstance(ename, str) or ename not in name_to_index:
                raise SkeletonError(f"eval_subset names unknown joint {ename!r}")
            eval_subset.append(name_to_index[ename])
    return Skeleton(joints, eval_subset=eval_subset,
                    name=raw.get("name", name or "skeleton"))


def load_skeleton(path) -> Skeleton:
    """Load and validate a skeleton config (JSON, degrees/mm)."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise SkeletonError(f"{path}: not valid JSON ({e})") from None
    fallback = os.path.splitext(os.path.basename(str(path)))[0]
    return skeleton_from_dict(raw, name=fallback)


def save_skeleton(skel: Skeleton, path) -> None:
    with open(path, "w") as fh:
        json.dump(skel.to_dict(), fh, indent=2)
        fh.write("\n")


def clamp_pose(skel: Skeleton, theta) -> np.ndarray:
    """Clamp every pose component into its DOF's [lower, upper] interval."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != skel.n_dofs:
        raise ValueError(
            f"pose has {theta.shape[-1]} components, skeleton has {skel.n_dofs} DOFs"
        )
    return np.clip(theta, skel.dof_lower, skel.dof_upper)


HAND23_PATH = os.path.join(os.path.dirname(__file__), "hand23.json")


def default_hand() -> Skeleton:
    """The built-in 23-joint, 26-DOF hand, loaded from the packaged hand23.json.

    The root carries the 6 global DOFs, two rigid wrist joints fan out to
    the thumb and the palm, and each finger is a base (flexion + abduction)
    -> mid (flexion) -> end (flexion) -> tip chain. Bone lengths are a
    plausible adult hand; bounds are anatomical defaults. Rest offsets
    splay the metacarpals in-plane (about Z) and arch them across the palm
    (about Y), so the root/base cluster spans all three dimensions and no
    two mirror-symmetric poses nearly coincide when fitting joint positions.

    The 14 eval joints are the root, the five finger bases, the three long
    fingers' mids and all five tips. Root and bases are rigid with respect
    to the global frame (they anchor model fitting); the tips make every
    finger DOF move at least one scored joint.
    """
    return load_skeleton(HAND23_PATH)
