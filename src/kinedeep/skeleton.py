"""Kinematic tree definition, validation, and the built-in 23-joint hand.

A skeleton is an ordered list of joints forming a rooted tree. Each joint
carries the length of the bone connecting it to its parent, an optional
fixed rest-pose rotation, and an ordered list of degrees of freedom. The
flat concatenation of all DOFs, in joint order, defines the layout of a
pose vector: for the default hand that is 3 global translations (mm), 3
global rotations, then 20 finger angles (radians).

Every skeleton is built from its config, a JSON object: ``load_skeleton``
reads one from a file, ``skeleton_from_dict`` takes it parsed, and the
built-in hand is the config file ``hand23.json`` shipped inside the package.
The keys, with their units and defaults:

  name                  the skeleton's name, a non-empty string. Default:
                        the config file's base name, else "skeleton"
  joints                a list of joint objects, each after its parent:
    name                a non-empty string, unique in the skeleton
    parent              the parent joint's name; missing or null for the
                        root, of which there is exactly one
    bone_length_mm      length of the bone from the parent (mm, >= 0, and
                        0 at the root). Default 0
    rest_offset_deg     three fixed rotations (degrees about X, Y, Z,
                        applied in that order) baked into the joint's frame
                        before its DOFs; they shape the rest pose (finger
                        splay) without consuming DOFs. Default [0, 0, 0]
    dofs                a list of DOF objects, in pose order. Default []
      kind              "rotation" or "translation"
      axis              "X", "Y" or "Z"; lower case is read too, and
                        written back in upper case
      lower_deg, upper_deg
                        a rotation's bounds (degrees, lower <= upper,
                        within [-180, 180])
      lower_mm, upper_mm
                        a translation's bounds (mm, lower <= upper)
  eval_subset           the names of the joints the benchmark scores, each
                        at most once. Default: every joint

Every number must be a finite JSON number: a string, true or false, NaN or
Infinity is refused with a SkeletonError that names the joint and the key.
So is a key not listed here, at any level: a DOF takes the bound pair of
its kind only.
Angles are radians everywhere in the API; only configs use degrees.
"""
from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import numpy as np

AXES = ("X", "Y", "Z")


class SkeletonError(ValueError):
    """A skeleton config violates a structural invariant."""


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
    """The FkLayout of a skeleton whose joint and DOF tables are built."""
    parents = skel.parent_index.tolist()
    J = len(parents)
    depth = [0] * J
    for u in range(1, J):
        depth[u] = depth[parents[u]] + 1
    signature = [(skel.rest_rotations[u] is not None,
                  tuple((bool(skel.dof_is_rotation[d]), int(skel.dof_axis[d]))
                        for d in dofs))
                 for u, dofs in enumerate(skel.joint_dofs)]

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

    Built only by skeleton_from_dict. Immutable after construction (all
    arrays are write-protected), so instances can be shared freely across
    threads.

    Derived attributes used by the kinematics code:
      joint_names    (J,) tuple of str
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

    def __init__(self, config, joints, eval_subset):
        """`config` is the canonical dict; `joints` holds, per joint, the
        checked row (name, parent index or -1, bone mm, rest offset degrees,
        DOFs), each DOF being (is rotation, axis 0..2, lower, upper) in
        radians or mm."""
        self._config = config
        self.name = config["name"]
        self.joint_names = tuple(row[0] for row in joints)
        J = len(joints)
        self.parent_index = np.array([row[1] for row in joints], dtype=np.int64)
        self.bone_lengths = np.array([row[2] for row in joints], dtype=float)
        self.rest_rotations = [_rest_rotation(row[3]) for row in joints]

        dof_joint, dof_rot, dof_axis, lo, hi = [], [], [], [], []
        for u, row in enumerate(joints):
            for is_rotation, axis, lower, upper in row[4]:
                dof_joint.append(u)
                dof_rot.append(is_rotation)
                dof_axis.append(axis)
                lo.append(lower)
                hi.append(upper)
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
        self.eval_subset = tuple(eval_subset)

        for arr in (self.parent_index, self.bone_lengths, self.dof_joint,
                    self.dof_is_rotation, self.dof_axis, self.dof_lower,
                    self.dof_upper, self.path_mask):
            arr.flags.writeable = False
        for r in self.rest_rotations:
            if r is not None:
                r.flags.writeable = False

    @property
    def n_joints(self) -> int:
        return len(self.joint_names)

    @property
    def n_dofs(self) -> int:
        return len(self.dof_joint)

    def to_dict(self) -> dict:
        """The canonical config, a fresh copy the caller may change."""
        return copy.deepcopy(self._config)


def _finite(value, where: str, key: str):
    """`value` if it is a finite JSON number (true and false are not), else
    a SkeletonError naming where it is and its key."""
    try:
        finite = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise SkeletonError(f"{where}: {key} must be a finite number, not {value!r}")
    return value


_CONFIG_KEYS = ("name", "joints", "eval_subset")
_JOINT_KEYS = ("name", "parent", "bone_length_mm", "rest_offset_deg", "dofs")


def _known_keys(raw: dict, keys, where: str) -> None:
    """A SkeletonError naming where it is and the first key of `raw` not in
    `keys`, if there is one."""
    for key in raw:
        if key not in keys:
            raise SkeletonError(f"{where}: unknown key {key!r}, expected one of "
                                f"{', '.join(keys)}")


def _dof(raw, where: str, key: str):
    """(canonical dict, table row) of one DOF object; see Skeleton."""
    if not isinstance(raw, dict):
        raise SkeletonError(f"{where}: {key} must be an object, not {raw!r}")
    kind, axis = raw.get("kind"), raw.get("axis")
    if kind not in ("rotation", "translation"):
        raise SkeletonError(f"{where}: {key}.kind must be 'rotation' or "
                            f"'translation', not {kind!r}")
    if not isinstance(axis, str) or axis.upper() not in AXES:
        raise SkeletonError(f"{where}: {key}.axis must be 'X', 'Y' or 'Z', not {axis!r}")
    unit = "deg" if kind == "rotation" else "mm"
    ends = (f"lower_{unit}", f"upper_{unit}")
    _known_keys(raw, ("kind", "axis", *ends), f"{where}: {key}")
    bounds = []
    for end in ends:
        if end not in raw:
            raise SkeletonError(f"{where}: {key} has no {end}")
        bounds.append(float(_finite(raw[end], where, f"{key}.{end}")))
    if bounds[0] > bounds[1]:
        raise SkeletonError(f"{where}: {key} lower bound {bounds[0]} exceeds "
                            f"upper bound {bounds[1]}")
    if kind == "translation":
        lower, upper = bounds
        entry = {"kind": kind, "axis": axis.upper(), "lower_mm": lower, "upper_mm": upper}
    else:
        lower, upper = (math.radians(v) for v in bounds)
        # closed interval: -180 is accepted so a full +-180 deg range is
        # representable; ranges never exceed one period
        if lower < -math.pi - 1e-12 or upper > math.pi + 1e-12:
            raise SkeletonError(f"{where}: {key} rotation bounds {bounds} deg lie "
                                f"outside [-180, 180]")
        entry = {"kind": kind, "axis": axis.upper(),
                 "lower_deg": math.degrees(lower), "upper_deg": math.degrees(upper)}
    return entry, (kind == "rotation", AXES.index(axis.upper()), lower, upper)


def skeleton_from_dict(raw: dict, name=None) -> Skeleton:
    """Check every field of a skeleton config (see the module docstring) and
    build its Skeleton; `name` names a config that has no name."""
    if not isinstance(raw, dict) or not isinstance(raw.get("joints"), list):
        raise SkeletonError("config must contain a 'joints' list")
    _known_keys(raw, _CONFIG_KEYS, "config")
    skel_name = raw.get("name", name or "skeleton")
    if not isinstance(skel_name, str) or not skel_name:
        raise SkeletonError(f"name must be a non-empty string, not {skel_name!r}")

    index, entries, rows, roots = {}, [], [], []
    for u, joint in enumerate(raw["joints"]):
        if not isinstance(joint, dict):
            raise SkeletonError(f"joint #{u} is not an object")
        jname = joint.get("name")
        if not jname or not isinstance(jname, str):
            raise SkeletonError(f"joint #{u} has no name (a non-empty string)")
        if jname in index:
            raise SkeletonError(f"duplicate joint name {jname!r}")
        where = f"joint {jname!r}"
        _known_keys(joint, _JOINT_KEYS, where)

        parent = joint.get("parent")
        if parent is None:
            p = -1
            roots.append(jname)
        elif not isinstance(parent, str):
            raise SkeletonError(f"{where}: unknown parent {parent!r}")
        elif parent == jname:
            raise SkeletonError(f"cycle: joint {jname!r} is its own parent")
        elif parent in index:
            p = index[parent]
        elif any(isinstance(j, dict) and j.get("name") == parent
                 for j in raw["joints"][u + 1:]):
            raise SkeletonError(f"{where} appears before its parent {parent!r} "
                                f"(order must be topological)")
        else:
            raise SkeletonError(f"{where}: unknown parent {parent!r}")

        bone = float(_finite(joint.get("bone_length_mm", 0.0), where, "bone_length_mm"))
        if bone < 0:
            raise SkeletonError(f"{where}: bone_length_mm must be >= 0, not {bone}")
        if p < 0 and bone != 0:
            raise SkeletonError(f"root joint {jname!r} must have bone_length_mm 0")

        rest = joint.get("rest_offset_deg", (0.0, 0.0, 0.0))
        if not isinstance(rest, (list, tuple)) or len(rest) != 3:
            raise SkeletonError(f"{where}: rest_offset_deg must be a list of 3 numbers, "
                                f"not {rest!r}")
        rest = tuple(_finite(v, where, f"rest_offset_deg[{i}]") for i, v in enumerate(rest))

        raw_dofs = joint.get("dofs", [])
        if not isinstance(raw_dofs, list):
            raise SkeletonError(f"{where}: dofs must be a list of objects")
        dofs = [_dof(d, where, f"dofs[{k}]") for k, d in enumerate(raw_dofs)]

        entry = {"name": jname, "parent": parent, "bone_length_mm": bone,
                 "dofs": [dof for dof, _ in dofs]}
        if any(v != 0 for v in rest):
            entry["rest_offset_deg"] = list(rest)
        index[jname] = u
        entries.append(entry)
        rows.append((jname, p, bone, rest, tuple(row for _, row in dofs)))
    if len(roots) != 1:
        raise SkeletonError(f"expected exactly one root joint, found {len(roots)}: {roots}")

    eval_names = raw.get("eval_subset", list(index))
    if not isinstance(eval_names, list):
        raise SkeletonError("eval_subset must be a list of joint names")
    for ename in eval_names:
        if not isinstance(ename, str) or ename not in index:
            raise SkeletonError(f"eval_subset names unknown joint {ename!r}")
        if eval_names.count(ename) > 1:
            raise SkeletonError(f"eval_subset names joint {ename!r} more than once")
    config = {"name": skel_name, "joints": entries, "eval_subset": list(eval_names)}
    return Skeleton(config, rows, [index[e] for e in eval_names])


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


def check_pose_batch(skel: Skeleton, thetas) -> np.ndarray:
    """`thetas` as a float array, refused unless it is a batch of poses (N, D)."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != skel.n_dofs:
        raise ValueError(f"pose array shape {thetas.shape} is not a batch (N, {skel.n_dofs})")
    return thetas


def clamp_pose(skel: Skeleton, thetas) -> np.ndarray:
    """Clamp every component of a batch of poses (N, D) into its DOF's
    [lower, upper] interval."""
    return np.clip(check_pose_batch(skel, thetas), skel.dof_lower, skel.dof_upper)


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
