"""BVH motion clip parsing and serialization.

Supports the common BVH 1.0 subset: a single ROOT, at most MAX_JOINTS
joints with OFFSET/CHANNELS each, optional End Site blocks, and a MOTION
section with "Frames:" and "Frame Time:". The root may carry 6 channels
(3 positions + 3 rotations), every other joint exactly 3 rotation channels.
Rotation orders ZXY, ZYX and XYZ are accepted; the serializer always emits
ZXY. Every number must be finite: a NaN or infinite offset, frame time or
motion value is a BvhSyntaxError at its line and column.

Rotations are converted to unit quaternions (w, x, y, z) at the parse
boundary and back to Euler degrees only when serializing.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    BvhSyntaxError,
    FrameCountMismatch,
    UnsupportedChannelLayout,
)
from .jsonutil import FORMAT_BLOCK_ROWS, decode_utf8, format_float_blocks, line_col
from .quat import euler_deg_to_quat, quat_to_euler_deg

SUPPORTED_ROTATION_ORDERS = ("ZXY", "ZYX", "XYZ")

_POSITION_CHANNELS = {"Xposition": 0, "Yposition": 1, "Zposition": 2}
_ROTATION_AXIS = {"Xrotation": "X", "Yrotation": "Y", "Zrotation": "Z"}

OFFSET_MATCH_TOL = 1e-6

# Joints per skeleton. The reader and the writer recurse once per nesting
# level, and a chain of this many joints stays well inside Python's default
# limit of 1,000 frames, with room for the caller's stack.
MAX_JOINTS = 512


@dataclass
class Joint:
    name: str
    parent: int
    offset: np.ndarray
    rotation_order: str
    end_offset: np.ndarray | None = None


@dataclass
class Skeleton:
    """Joints in parent-first order under one root, as `parse_bvh` reads them."""

    joints: list[Joint]

    def matches(self, other: "Skeleton") -> bool:
        """Same names and parentage, offsets equal within OFFSET_MATCH_TOL."""
        if len(self.joints) != len(other.joints):
            return False
        for a, b in zip(self.joints, other.joints):
            if a.name != b.name or a.parent != b.parent:
                return False
        return np.allclose(
            np.stack([j.offset for j in self.joints]),
            np.stack([j.offset for j in other.joints]),
            atol=OFFSET_MATCH_TOL, rtol=0.0,
        )


@dataclass
class GestureClip:
    """A motion clip whose values `parse_bvh` or a compose stage has checked:
    at least 2 frames, `rotations` (frames, joints, 4) unit quaternions
    (w, x, y, z) and `root_positions` (frames, 3)."""

    skeleton: Skeleton
    fps: float
    root_positions: np.ndarray
    rotations: np.ndarray
    source_id: str = ""

    @property
    def frame_count(self) -> int:
        return self.rotations.shape[0]

    @property
    def duration_s(self) -> float:
        return (self.frame_count - 1) / self.fps


_TOKEN = re.compile(r"\S+")
# The line breaks of str.splitlines(), which numbers lines for error messages.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class _TokenStream:
    """Whitespace-separated tokens of a BVH text, read one at a time.

    A token is (text, offset). Line and column are counted only for an
    error, so the header costs one regex search per token and the motion
    block, handed over whole by `rest()`, costs nothing here. Every error
    names `file`.
    """

    def __init__(self, text: str, file: str | Path | None):
        self.text = text
        self.file = file
        self.start = 0  # offset of the token read last
        self.end = 0  # offset just past it

    def error(self, message: str, tok: tuple[str, int]) -> BvhSyntaxError:
        return BvhSyntaxError(message, file=self.file,
                              **line_col(self.text, tok[1], _LINE_BREAK))

    def next(self, context: str) -> tuple[str, int]:
        match = _TOKEN.search(self.text, self.end)
        if match is None:
            raise self.error(f"unexpected end of file, expected {context}",
                             ("", self.start))
        self.start, self.end = match.span()
        return match.group(), self.start

    def rest(self) -> list[str]:
        """Every unread token's text, without advancing the stream."""
        return self.text[self.end:].split()

    def locate(self, index: int) -> tuple[str, int]:
        """Reads up to the unread token `index` places on and returns it."""
        for _ in range(index):
            self.next("motion value")
        return self.next("motion value")

    def expect(self, literal: str) -> tuple[str, int]:
        tok = self.next(repr(literal))
        if tok[0] != literal:
            raise self.error(f"expected {literal!r}, found {tok[0]!r}", tok)
        return tok

    def next_float(self, context: str) -> float:
        tok = self.next(context)
        try:
            value = float(tok[0])
        except ValueError:
            raise self.error(
                f"expected a number for {context}, found {tok[0]!r}", tok
            ) from None
        if not math.isfinite(value):
            raise self.error(
                f"expected a finite number for {context}, found {tok[0]!r}", tok
            )
        return value

    def next_int(self, context: str) -> int:
        tok = self.next(context)
        try:
            return int(tok[0])
        except ValueError:
            raise self.error(
                f"expected an integer for {context}, found {tok[0]!r}", tok
            ) from None


def _parse_channels(stream: _TokenStream, is_root: bool, joint_name: str):
    """Returns (rotation_order, channel_slots).

    channel_slots records, in file order, how each motion value routes:
    ("pos", axis_index) or ("rot", slot 0..2).
    """
    kw = stream.next("CHANNELS")
    if kw[0] != "CHANNELS":
        raise stream.error(f"expected CHANNELS in joint {joint_name!r}", kw)
    count = stream.next_int("channel count")
    names = [stream.next("channel name")[0] for _ in range(count)]
    layout_error = partial(UnsupportedChannelLayout, file=stream.file)

    positions = [n for n in names if n in _POSITION_CHANNELS]
    rotations = [n for n in names if n in _ROTATION_AXIS]
    unknown = [n for n in names if n not in _POSITION_CHANNELS and n not in _ROTATION_AXIS]
    if unknown:
        raise layout_error(
            f"joint {joint_name!r} has unknown channel {unknown[0]!r}"
        )
    if len(rotations) != 3:
        raise layout_error(
            f"joint {joint_name!r} must have exactly 3 rotation channels"
        )
    if positions and (not is_root or len(positions) != 3):
        raise layout_error(
            f"position channels are only supported on the root (joint {joint_name!r})"
        )
    if len(set(positions)) != len(positions):
        raise layout_error(f"joint {joint_name!r} repeats a position channel")

    order = "".join(_ROTATION_AXIS[n] for n in rotations)
    if order not in SUPPORTED_ROTATION_ORDERS:
        raise layout_error(
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
    return order, slots


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
    order, slots = _parse_channels(stream, parent < 0, name)
    index = len(joints)
    joints.append(Joint(name, parent, offset, order))
    joint_slots.append(slots)
    while True:
        tok = stream.next("JOINT, End Site or '}'")
        if tok[0] == "}":
            return
        if tok[0] == "JOINT":
            if len(joints) == MAX_JOINTS:
                raise stream.error(f"skeleton has more than {MAX_JOINTS} joints", tok)
            child_name = stream.next("joint name")[0]
            _parse_joint(stream, joints, joint_slots, child_name, index)
        elif tok[0] == "End":
            site = stream.next("Site")
            if site[0] != "Site":
                raise stream.error("expected 'Site' after 'End'", site)
            stream.expect("{")
            joints[index].end_offset = _parse_offset(stream)
            stream.expect("}")
        else:
            raise stream.error(f"unexpected token {tok[0]!r} in joint {name!r}", tok)


def _bad_motion_value(stream: _TokenStream, values: list[str]) -> BvhSyntaxError:
    """The error for the first motion value that is not a finite number."""
    for index, raw in enumerate(values):
        try:
            if math.isfinite(float(raw)):
                continue
            expected = "a finite number"
        except ValueError:
            expected = "a number"
        break
    return stream.error(f"expected {expected} in motion data, found {raw!r}",
                        stream.locate(index))


def parse_bvh(data: bytes | str, source_id: str = "", *,
              file: str | Path | None = None) -> GestureClip:
    """Parse a BVH document into a quaternion-based GestureClip.

    The header is read token by token. The motion block is split once,
    converted with one numpy call, and each distinct rotation order takes
    one Euler-to-quaternion call over all of its joints and frames. Every
    error names *file*, the document's path, when given.
    """
    if isinstance(data, (bytes, bytearray)):
        data = decode_utf8(data, partial(BvhSyntaxError, file=file), _LINE_BREAK)
    stream = _TokenStream(data, file)

    stream.expect("HIERARCHY")
    root_kw = stream.next("ROOT")
    if root_kw[0] != "ROOT":
        raise stream.error("expected ROOT after HIERARCHY", root_kw)

    joints: list[Joint] = []
    joint_slots: list[list] = []
    root_name = stream.next("root joint name")[0]
    _parse_joint(stream, joints, joint_slots, root_name, -1)
    skeleton = Skeleton(joints)

    stream.expect("MOTION")
    frames_kw = stream.next("Frames:")
    if frames_kw[0] not in ("Frames:", "Frames"):
        raise stream.error("expected 'Frames:'", frames_kw)
    if frames_kw[0] == "Frames":
        stream.expect(":")
    declared_frames = stream.next_int("frame count")

    ft1 = stream.next("Frame Time:")
    if ft1[0] != "Frame":
        raise stream.error("expected 'Frame Time:'", ft1)
    ft2 = stream.next("Time:")
    if ft2[0] not in ("Time:", "Time"):
        raise stream.error("expected 'Time:' after 'Frame'", ft2)
    if ft2[0] == "Time":
        stream.expect(":")
    frame_time = stream.next_float("frame time")
    if frame_time <= 0:
        raise stream.error("frame time must be positive", ft2)
    fps = 1.0 / frame_time
    if math.isinf(fps):
        raise stream.error(f"frame time {frame_time!r} is too small", ft2)

    values_per_frame = sum(len(s) for s in joint_slots)
    values = stream.rest()
    mismatch = partial(FrameCountMismatch, file=file)
    if len(values) % values_per_frame != 0:
        last = stream.locate(len(values) - 1) if values else ft2
        raise mismatch(
            f"motion data has {len(values)} values, not a multiple of "
            f"{values_per_frame} channels",
            line=line_col(data, last[1], _LINE_BREAK)["line"],
        )
    actual_frames = len(values) // values_per_frame
    if actual_frames != declared_frames:
        raise mismatch(
            f"declared {declared_frames} frames but found {actual_frames}"
        )
    if actual_frames < 2:
        raise mismatch(
            f"clip {source_id!r} has {actual_frames} frames, need at least 2"
        )

    # numpy converts each string with Python's float(), so the values are
    # the ones float() would give, and a failure means some token is not one.
    try:
        flat = np.array(values, dtype=np.float64)
    except ValueError:
        raise _bad_motion_value(stream, values) from None
    if not np.isfinite(flat).all():
        raise _bad_motion_value(stream, values)
    table = flat.reshape(actual_frames, values_per_frame)

    n_joints = len(joints)
    root_positions = np.zeros((actual_frames, 3), dtype=np.float64)
    euler_columns = np.empty((n_joints, 3), dtype=np.intp)
    col = 0
    for j, slots in enumerate(joint_slots):
        for kind, slot in slots:
            if kind == "pos":
                root_positions[:, slot] = table[:, col]
            else:
                euler_columns[j, slot] = col
            col += 1
    euler = table[:, euler_columns]
    orders = np.array([joint.rotation_order for joint in joints])
    rotations = np.empty((actual_frames, n_joints, 4), dtype=np.float64)
    for order in dict.fromkeys(orders.tolist()):
        of_order = orders == order
        rotations[:, of_order] = euler_deg_to_quat(euler[:, of_order], order)
    # A gesture library shares its parsed clips between loads.
    root_positions.flags.writeable = False
    rotations.flags.writeable = False

    return GestureClip(
        skeleton=skeleton,
        fps=fps,
        root_positions=root_positions,
        rotations=rotations,
        source_id=source_id,
    )


def _write_joint(lines: list[str], skeleton: Skeleton, index: int, depth: int,
                 children: list[list[int]]):
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
    for child in children[index]:
        _write_joint(lines, skeleton, child, depth + 1, children)
    if not children[index] or joint.end_offset is not None:
        end = joint.end_offset if joint.end_offset is not None else np.zeros(3)
        lines.append(f"{inner}End Site")
        lines.append(f"{inner}{{")
        ex, ey, ez = end
        lines.append(f"{inner}\tOFFSET {ex:.6f} {ey:.6f} {ez:.6f}")
        lines.append(f"{inner}}}")
    lines.append(f"{indent}}}")


def _write_hierarchy(lines: list[str], skeleton: Skeleton):
    """Appends every joint block, each joint's children in index order."""
    children: list[list[int]] = [[] for _ in skeleton.joints]
    for index, joint in enumerate(skeleton.joints):
        if joint.parent >= 0:
            children[joint.parent].append(index)
    _write_joint(lines, skeleton, 0, 0, children)


def serialize_bvh(clip: GestureClip) -> bytes:
    """Serialize a clip as BVH text (ZXY rotation order, 6 decimal places)."""
    lines: list[str] = ["HIERARCHY"]
    _write_hierarchy(lines, clip.skeleton)
    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {1.0 / clip.fps:.8f}")
    header = "\n".join(lines).encode("utf-8")
    return b"\n".join([header, *_motion_blocks(clip)]) + b"\n"


def _motion_blocks(clip: GestureClip) -> Iterator[bytes]:
    """The MOTION rows, FORMAT_BLOCK_ROWS frames per bytes object. Each block
    is converted, rounded and formatted before the next, so the temporaries
    of the conversion are sized by the block, not the clip."""
    for start in range(0, clip.frame_count, FORMAT_BLOCK_ROWS):
        stop = start + FORMAT_BLOCK_ROWS
        # Euler angles are rounded to 6 decimals and +0.0 folds -0.0 into
        # +0.0, so angles a hair below zero (identity rotations) do not print
        # as "-0.000000". Root positions are printed unrounded: the frozen
        # bundle goldens hold root values that print as "-0.000000", and
        # rounding them would change bundle bytes.
        euler = quat_to_euler_deg(clip.rotations[start:stop])
        np.round(euler, 6, out=euler)
        euler += 0.0
        table = np.concatenate(
            [clip.root_positions[start:stop], euler.reshape(len(euler), -1)], axis=1
        )
        yield from format_float_blocks(table, " ", "\n")
