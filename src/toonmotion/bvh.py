"""BVH motion clip parsing and serialization.

Supports the common BVH 1.0 subset: a single ROOT, OFFSET/CHANNELS per
joint, optional End Site blocks, and a MOTION section with "Frames:" and
"Frame Time:". The root may carry 6 channels (3 positions + 3 rotations),
every other joint exactly 3 rotation channels. Rotation orders ZXY, ZYX and
XYZ are accepted; the serializer always emits ZXY.

Rotations are converted to unit quaternions (w, x, y, z) at the parse
boundary and back to Euler degrees only when serializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BvhSyntaxError,
    FrameCountMismatch,
    SkeletonMismatch,
    UnsupportedChannelLayout,
    ValidationError,
)
from .quat import euler_deg_to_quat, quat_to_euler_deg

SUPPORTED_ROTATION_ORDERS = ("ZXY", "ZYX", "XYZ")
SERIALIZED_ROTATION_ORDER = "ZXY"

_POSITION_CHANNELS = {"Xposition": 0, "Yposition": 1, "Zposition": 2}
_ROTATION_AXIS = {"Xrotation": "X", "Yrotation": "Y", "Zrotation": "Z"}

QUAT_NORM_TOL = 1e-6
OFFSET_MATCH_TOL = 1e-6


@dataclass
class Joint:
    name: str
    parent: int
    offset: np.ndarray
    rotation_order: str
    has_position: bool = False
    end_offset: np.ndarray | None = None


@dataclass
class Skeleton:
    joints: list[Joint]

    def __post_init__(self):
        roots = [j for j in self.joints if j.parent < 0]
        if len(roots) != 1 or self.joints[0].parent != -1:
            raise SkeletonMismatch("skeleton must have exactly one root joint first")
        for i, joint in enumerate(self.joints):
            if joint.parent >= i:
                raise SkeletonMismatch(
                    f"joint {joint.name!r} appears before its parent"
                )

    def children_of(self, index: int) -> list[int]:
        return [i for i, j in enumerate(self.joints) if j.parent == index]

    def matches(self, other: "Skeleton", tol: float = OFFSET_MATCH_TOL) -> bool:
        """Structural equality: names, parentage and offsets (within tol)."""
        if len(self.joints) != len(other.joints):
            return False
        for a, b in zip(self.joints, other.joints):
            if a.name != b.name or a.parent != b.parent:
                return False
            if not np.allclose(a.offset, b.offset, atol=tol, rtol=0.0):
                return False
        return True


@dataclass
class GestureClip:
    skeleton: Skeleton
    fps: float
    root_positions: np.ndarray
    rotations: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.root_positions = np.asarray(self.root_positions, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        n_frames = self.rotations.shape[0]
        if n_frames < 2:
            raise FrameCountMismatch(
                f"clip {self.source_id!r} has {n_frames} frames, need at least 2"
            )
        n_joints = len(self.skeleton.joints)
        if self.rotations.shape != (n_frames, n_joints, 4):
            raise FrameCountMismatch(
                f"rotation array shape {self.rotations.shape} does not match "
                f"{n_frames} frames x {n_joints} joints"
            )
        if self.root_positions.shape != (n_frames, 3):
            raise FrameCountMismatch(
                f"root position shape {self.root_positions.shape} invalid"
            )
        norms = np.linalg.norm(self.rotations, axis=-1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > QUAT_NORM_TOL:
            raise ValidationError(
                f"non-unit quaternion in clip (|norm-1| = {worst:.2e})"
            )

    @property
    def frame_count(self) -> int:
        return self.rotations.shape[0]

    @property
    def duration_s(self) -> float:
        return (self.frame_count - 1) / self.fps


class _TokenStream:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            col = 0
            for raw in line.split():
                col = line.index(raw, col)
                self.tokens.append((raw, line_no, col + 1))
                col += len(raw)
        self.pos = 0

    def peek(self) -> tuple[str, int, int] | None:
        if self.pos >= len(self.tokens):
            return None
        return self.tokens[self.pos]

    def next(self, context: str) -> tuple[str, int, int]:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise BvhSyntaxError(f"unexpected end of file, expected {context}",
                                 line=last[1], column=last[2])
        self.pos += 1
        return tok

    def expect(self, literal: str) -> tuple[str, int, int]:
        tok = self.next(repr(literal))
        if tok[0] != literal:
            raise BvhSyntaxError(
                f"expected {literal!r}, found {tok[0]!r}", line=tok[1], column=tok[2]
            )
        return tok

    def next_float(self, context: str) -> float:
        tok = self.next(context)
        try:
            return float(tok[0])
        except ValueError:
            raise BvhSyntaxError(
                f"expected a number for {context}, found {tok[0]!r}",
                line=tok[1],
                column=tok[2],
            ) from None

    def next_int(self, context: str) -> int:
        tok = self.next(context)
        try:
            return int(tok[0])
        except ValueError:
            raise BvhSyntaxError(
                f"expected an integer for {context}, found {tok[0]!r}",
                line=tok[1],
                column=tok[2],
            ) from None


def _parse_channels(stream: _TokenStream, is_root: bool, joint_name: str):
    """Returns (rotation_order, has_position, channel_slots).

    channel_slots records, in file order, how each motion value routes:
    ("pos", axis_index) or ("rot", slot 0..2).
    """
    kw = stream.next("CHANNELS")
    if kw[0] != "CHANNELS":
        raise BvhSyntaxError(f"expected CHANNELS in joint {joint_name!r}",
                             line=kw[1], column=kw[2])
    count = stream.next_int("channel count")
    names = [stream.next("channel name")[0] for _ in range(count)]

    positions = [n for n in names if n in _POSITION_CHANNELS]
    rotations = [n for n in names if n in _ROTATION_AXIS]
    unknown = [n for n in names if n not in _POSITION_CHANNELS and n not in _ROTATION_AXIS]
    if unknown:
        raise UnsupportedChannelLayout(
            f"joint {joint_name!r} has unknown channel {unknown[0]!r}"
        )
    if len(rotations) != 3:
        raise UnsupportedChannelLayout(
            f"joint {joint_name!r} must have exactly 3 rotation channels"
        )
    if positions and (not is_root or len(positions) != 3):
        raise UnsupportedChannelLayout(
            f"position channels are only supported on the root (joint {joint_name!r})"
        )
    if count != len(positions) + len(rotations):
        raise UnsupportedChannelLayout(
            f"joint {joint_name!r} channel count {count} does not match layout"
        )

    order = "".join(_ROTATION_AXIS[n] for n in rotations)
    if order not in SUPPORTED_ROTATION_ORDERS:
        raise UnsupportedChannelLayout(
            f"rotation order {order} on joint {joint_name!r} is not supported"
        )

    slots = []
    rot_slot = 0
    for n in names:
        if n in _POSITION_CHANNELS:
            slots.append(("pos", _POSITION_CHANNELS[n]))
        else:
            slots.append(("rot", rot_slot))
            rot_slot += 1
    return order, bool(positions), slots


def _parse_offset(stream: _TokenStream) -> np.ndarray:
    stream.expect("OFFSET")
    return np.array(
        [stream.next_float("offset component") for _ in range(3)], dtype=np.float64
    )


def _parse_joint(stream: _TokenStream, joints: list[Joint], joint_slots: list[list],
                 name: str, parent: int):
    """Parse one joint block (after its name) and its children, recursively."""
    stream.expect("{")
    offset = _parse_offset(stream)
    order, has_pos, slots = _parse_channels(stream, parent < 0, name)
    index = len(joints)
    joints.append(Joint(name, parent, offset, order, has_pos))
    joint_slots.append(slots)
    while True:
        tok = stream.next("JOINT, End Site or '}'")
        if tok[0] == "}":
            return
        if tok[0] == "JOINT":
            child_name = stream.next("joint name")[0]
            _parse_joint(stream, joints, joint_slots, child_name, index)
        elif tok[0] == "End":
            site = stream.next("Site")
            if site[0] != "Site":
                raise BvhSyntaxError("expected 'Site' after 'End'",
                                     line=site[1], column=site[2])
            stream.expect("{")
            joints[index].end_offset = _parse_offset(stream)
            stream.expect("}")
        else:
            raise BvhSyntaxError(
                f"unexpected token {tok[0]!r} in joint {name!r}",
                line=tok[1],
                column=tok[2],
            )


def parse_bvh(data: bytes | str, source_id: str = "") -> GestureClip:
    """Parse a BVH document into a quaternion-based GestureClip."""
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    stream = _TokenStream(text)

    stream.expect("HIERARCHY")
    root_kw = stream.next("ROOT")
    if root_kw[0] != "ROOT":
        raise BvhSyntaxError("expected ROOT after HIERARCHY",
                             line=root_kw[1], column=root_kw[2])

    joints: list[Joint] = []
    joint_slots: list[list] = []
    root_name = stream.next("root joint name")[0]
    _parse_joint(stream, joints, joint_slots, root_name, -1)
    skeleton = Skeleton(joints)

    stream.expect("MOTION")
    frames_kw = stream.next("Frames:")
    if frames_kw[0] not in ("Frames:", "Frames"):
        raise BvhSyntaxError("expected 'Frames:'", line=frames_kw[1], column=frames_kw[2])
    if frames_kw[0] == "Frames":
        stream.expect(":")
    declared_frames = stream.next_int("frame count")

    ft1 = stream.next("Frame Time:")
    if ft1[0] != "Frame":
        raise BvhSyntaxError("expected 'Frame Time:'", line=ft1[1], column=ft1[2])
    ft2 = stream.next("Time:")
    if ft2[0] not in ("Time:", "Time"):
        raise BvhSyntaxError("expected 'Time:' after 'Frame'",
                             line=ft2[1], column=ft2[2])
    if ft2[0] == "Time":
        stream.expect(":")
    frame_time = stream.next_float("frame time")
    if frame_time <= 0:
        raise BvhSyntaxError("frame time must be positive",
                             line=ft2[1], column=ft2[2])

    values_per_frame = sum(len(s) for s in joint_slots)
    remaining = stream.tokens[stream.pos:]
    if len(remaining) % values_per_frame != 0:
        tok = remaining[-1] if remaining else ft2
        raise FrameCountMismatch(
            f"motion data has {len(remaining)} values, not a multiple of "
            f"{values_per_frame} channels (near line {tok[1]})"
        )
    actual_frames = len(remaining) // values_per_frame
    if actual_frames != declared_frames:
        raise FrameCountMismatch(
            f"declared {declared_frames} frames but found {actual_frames}"
        )

    try:
        flat = np.array([float(t[0]) for t in remaining], dtype=np.float64)
    except ValueError:
        for t in remaining:
            try:
                float(t[0])
            except ValueError:
                raise BvhSyntaxError(
                    f"expected a number in motion data, found {t[0]!r}",
                    line=t[1],
                    column=t[2],
                ) from None
        raise
    table = flat.reshape(actual_frames, values_per_frame)

    n_joints = len(joints)
    root_positions = np.zeros((actual_frames, 3), dtype=np.float64)
    rotations = np.empty((actual_frames, n_joints, 4), dtype=np.float64)
    col = 0
    for j, slots in enumerate(joint_slots):
        euler = np.empty((actual_frames, 3), dtype=np.float64)
        for kind, slot in slots:
            if kind == "pos":
                if j == 0:
                    root_positions[:, slot] = table[:, col]
            else:
                euler[:, slot] = table[:, col]
            col += 1
        rotations[:, j, :] = euler_deg_to_quat(euler, joints[j].rotation_order)

    return GestureClip(
        skeleton=skeleton,
        fps=1.0 / frame_time,
        root_positions=root_positions,
        rotations=rotations,
        source_id=source_id,
    )


def _write_joint(lines: list[str], skeleton: Skeleton, index: int, depth: int):
    joint = skeleton.joints[index]
    indent = "\t" * depth
    keyword = "ROOT" if joint.parent < 0 else "JOINT"
    lines.append(f"{indent}{keyword} {joint.name}")
    lines.append(f"{indent}{{")
    inner = "\t" * (depth + 1)
    ox, oy, oz = joint.offset
    lines.append(f"{inner}OFFSET {ox:.6f} {oy:.6f} {oz:.6f}")
    if joint.parent < 0:
        lines.append(
            f"{inner}CHANNELS 6 Xposition Yposition Zposition "
            "Zrotation Xrotation Yrotation"
        )
    else:
        lines.append(f"{inner}CHANNELS 3 Zrotation Xrotation Yrotation")
    children = skeleton.children_of(index)
    for child in children:
        _write_joint(lines, skeleton, child, depth + 1)
    if not children or joint.end_offset is not None:
        end = joint.end_offset if joint.end_offset is not None else np.zeros(3)
        lines.append(f"{inner}End Site")
        lines.append(f"{inner}{{")
        ex, ey, ez = end
        lines.append(f"{inner}\tOFFSET {ex:.6f} {ey:.6f} {ez:.6f}")
        lines.append(f"{inner}}}")
    lines.append(f"{indent}}}")


def serialize_bvh(clip: GestureClip) -> bytes:
    """Serialize a clip as BVH text (ZXY rotation order, 6 decimal places)."""
    lines: list[str] = ["HIERARCHY"]
    _write_joint(lines, clip.skeleton, 0, 0)
    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {1.0 / clip.fps:.8f}")

    n_joints = len(clip.skeleton.joints)
    euler = np.empty((clip.frame_count, n_joints, 3), dtype=np.float64)
    for j in range(n_joints):
        euler[:, j, :] = quat_to_euler_deg(
            clip.rotations[:, j, :], SERIALIZED_ROTATION_ORDER
        )
    # Round before formatting so values a hair below zero do not print
    # as "-0.000000"; adding 0.0 then folds -0.0 into +0.0.
    euler = np.round(euler, 6) + 0.0
    for f in range(clip.frame_count):
        parts = [f"{v:.6f}" for v in clip.root_positions[f]]
        for j in range(n_joints):
            parts.extend(f"{v:.6f}" for v in euler[f, j])
        lines.append(" ".join(parts))
    return ("\n".join(lines) + "\n").encode("utf-8")
