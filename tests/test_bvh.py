"""BVH parse/serialize tests: grammar, rotation conversion, round trips."""

import gc
import itertools
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from toonmotion import bvh, quat
from toonmotion.bvh import (
    MAX_JOINTS,
    OFFSET_MATCH_TOL,
    SUPPORTED_ROTATION_ORDERS,
    GestureClip,
    Joint,
    Skeleton,
    _TokenStream,
    _parse_joint,
    _write_hierarchy,
    parse_bvh,
    serialize_bvh,
)
from toonmotion.errors import (
    BvhSyntaxError,
    FrameCountMismatch,
    ToonmotionError,
    UnsupportedChannelLayout,
)
from toonmotion.quat import canonicalize, euler_deg_to_quat, quat_to_euler_deg

from conftest import (
    FIXTURES,
    angle_between,
    awkward_floats,
    chain_bvh,
    constant_clip,
    identity_quats,
    make_skeleton,
)

SIMPLE_BVH = """HIERARCHY
ROOT Hips
{
    OFFSET 0.0 90.0 0.0
    CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
    JOINT Spine
    {
        OFFSET 0.0 10.0 0.0
        CHANNELS 3 Zrotation Xrotation Yrotation
        End Site
        {
            OFFSET 0.0 5.0 0.0
        }
    }
}
MOTION
Frames: 2
Frame Time: 0.033333
0.0 90.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
0.0 90.0 0.0 90.0 0.0 0.0 0.0 0.0 0.0
"""


class TestParse:
    def test_zero_angles_become_identity_quats(self):
        clip = parse_bvh(SIMPLE_BVH, "simple")
        assert clip.frame_count == 2
        assert clip.fps == pytest.approx(1.0 / 0.033333, rel=1e-6)
        np.testing.assert_allclose(
            clip.rotations[0], identity_quats(2), atol=1e-12
        )

    def test_hierarchy_structure(self):
        clip = parse_bvh(SIMPLE_BVH, "simple")
        joints = clip.skeleton.joints
        assert [j.name for j in joints] == ["Hips", "Spine"]
        assert joints[0].parent == -1
        assert joints[1].parent == 0
        np.testing.assert_allclose(joints[0].offset, [0.0, 90.0, 0.0])
        np.testing.assert_allclose(joints[1].end_offset, [0.0, 5.0, 0.0])
        # The root's position channels fill root_positions.
        np.testing.assert_array_equal(clip.root_positions, [[0.0, 90.0, 0.0]] * 2)

    def test_ninety_degree_z_rotation(self):
        clip = parse_bvh(SIMPLE_BVH, "simple")
        half_sqrt2 = np.sqrt(0.5)
        np.testing.assert_allclose(
            clip.rotations[1, 0], [half_sqrt2, 0.0, 0.0, half_sqrt2], atol=1e-9
        )

    def test_zyx_and_xyz_orders_accepted(self):
        for order in ("ZYX", "XYZ"):
            chans = " ".join(f"{axis}rotation" for axis in order)
            text = (
                "HIERARCHY\nROOT A\n{\n  OFFSET 0 0 0\n"
                f"  CHANNELS 6 Xposition Yposition Zposition {chans}\n"
                "  End Site\n  {\n    OFFSET 0 1 0\n  }\n}\n"
                "MOTION\nFrames: 2\nFrame Time: 0.05\n"
                "0 0 0 10 20 30\n0 0 0 0 0 0\n"
            )
            clip = parse_bvh(text, order)
            assert clip.skeleton.joints[0].rotation_order == order
            expected = euler_deg_to_quat(np.array([10.0, 20.0, 30.0]), order)
            assert angle_between(clip.rotations[0, 0], expected) < 1e-6

    def test_declared_frames_must_match_rows(self):
        text = SIMPLE_BVH.replace("Frames: 2", "Frames: 3")
        with pytest.raises(FrameCountMismatch):
            parse_bvh(text, "bad")

    def test_single_frame_rejected(self):
        lines = SIMPLE_BVH.strip().splitlines()
        text = "\n".join(lines[:-1]).replace("Frames: 2", "Frames: 1") + "\n"
        with pytest.raises(FrameCountMismatch, match="'short' has 1 frames"):
            parse_bvh(text, "short")

    def test_syntax_error_reports_position(self):
        with pytest.raises(BvhSyntaxError) as info:
            parse_bvh("HIERARCHY\nJOINT oops\n", "bad")
        assert info.value.line == 2
        assert "line 2" in str(info.value)

    def test_garbage_motion_value(self):
        text = SIMPLE_BVH.replace("90.0 0.0 0.0 0.0 0.0 0.0\n", "banana 0 0 0 0 0\n")
        with pytest.raises(BvhSyntaxError):
            parse_bvh(text, "bad")

    def test_unsupported_rotation_order(self):
        text = SIMPLE_BVH.replace(
            "CHANNELS 3 Zrotation Xrotation Yrotation",
            "CHANNELS 3 Yrotation Xrotation Zrotation",
        )
        with pytest.raises(UnsupportedChannelLayout):
            parse_bvh(text, "bad")

    def test_unsupported_channel_count(self):
        text = SIMPLE_BVH.replace(
            "CHANNELS 3 Zrotation Xrotation Yrotation",
            "CHANNELS 4 Zrotation Xrotation Yrotation Xposition",
        )
        with pytest.raises(UnsupportedChannelLayout):
            parse_bvh(text, "bad")

    def test_two_rotation_channels(self):
        text = SIMPLE_BVH.replace(
            "CHANNELS 3 Zrotation Xrotation Yrotation", "CHANNELS 2 Zrotation Xrotation"
        )
        with pytest.raises(UnsupportedChannelLayout,
                           match="'Spine' must have exactly 3 rotation channels"):
            parse_bvh(text, "bad")

    def test_repeated_position_channel(self):
        text = SIMPLE_BVH.replace("Xposition Yposition Zposition",
                                  "Xposition Xposition Xposition")
        with pytest.raises(UnsupportedChannelLayout,
                           match="^joint 'Hips' repeats a position channel$"):
            parse_bvh(text, "bad")

    def test_ragged_motion_names_the_line_of_its_last_value(self):
        text = SIMPLE_BVH.rstrip() + " 0.0\n"
        with pytest.raises(FrameCountMismatch) as info:
            parse_bvh(text, "bad")
        assert str(info.value) == (
            "line 20: motion data has 19 values, not a multiple of 9 channels")

    def test_errors_name_the_file_when_given(self):
        faults = [("Frames: 2", "Frames: 3"), ("Yposition", "Wposition"),
                  ("OFFSET 0.0 90.0", "OFFSET zz 90.0")]
        for old, new in faults:
            with pytest.raises(ToonmotionError) as info:
                parse_bvh(SIMPLE_BVH.replace(old, new).encode(), "bad", file="a.bvh")
            assert str(info.value).startswith("a.bvh: ")

    def test_frames_colon_spacing_variants(self):
        text = SIMPLE_BVH.replace("Frames: 2", "Frames : 2")
        clip = parse_bvh(text, "spaced")
        assert clip.frame_count == 2

    def test_accepts_bytes(self):
        clip = parse_bvh(SIMPLE_BVH.encode("utf-8"), "bytes")
        assert clip.frame_count == 2


class TestSerialize:
    def test_golden_zero_pose(self):
        golden = (FIXTURES / "goldens" / "zero_pose.bvh").read_bytes()
        skeleton = Skeleton([
            Joint("Hips", -1, np.array([0.0, 90.0, 0.0]), "ZXY"),
            Joint("Spine", 0, np.array([0.0, 10.0, 0.0]), "ZXY",
                  end_offset=np.array([0.0, 5.0, 0.0])),
        ])
        rotations = np.zeros((2, 2, 4))
        rotations[:, :, 0] = 1.0
        root = np.tile(np.array([0.0, 90.0, 0.0]), (2, 1))
        clip = GestureClip(skeleton, 30.0, root, rotations, "zero_pose")
        assert serialize_bvh(clip) == golden

    def test_output_reparses_identically(self):
        clip = parse_bvh(SIMPLE_BVH, "simple")
        again = parse_bvh(serialize_bvh(clip), "again")
        assert again.skeleton.matches(clip.skeleton)
        assert again.frame_count == clip.frame_count

    def test_no_negative_zero_in_output(self):
        skeleton = make_skeleton(2)
        clip = constant_clip(skeleton, identity_quats(2), frame_count=2)
        assert b"-0.000000" not in serialize_bvh(clip)


def quat_to_euler_deg_oracle(q):
    """(w, x, y, z) quats to ZXY degrees through scipy's compiled as_euler."""
    flat = np.asarray(q, dtype=np.float64).reshape(-1, 4)
    xyzw = np.concatenate([flat[:, 1:4], flat[:, 0:1]], axis=1)
    angles = Rotation.from_quat(xyzw).as_euler(
        "ZXY", degrees=True, suppress_warnings=True)
    return angles.reshape(np.shape(q)[:-1] + (3,))


def rounded(angles):
    """Angles as the BVH writer prints them: 6 decimals, no negative zero."""
    return np.round(angles, 6) + 0.0


def serialize_bvh_per_value(clip: GestureClip) -> bytes:
    """Reference serializer: one scipy Euler conversion per joint, one
    f-string per value."""
    lines = ["HIERARCHY"]
    _write_hierarchy(lines, clip.skeleton)
    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {1.0 / clip.fps:.8f}")
    n_joints = len(clip.skeleton.joints)
    euler = np.empty((clip.frame_count, n_joints, 3))
    for j in range(n_joints):
        euler[:, j, :] = quat_to_euler_deg_oracle(clip.rotations[:, j, :])
    euler = rounded(euler)
    for f in range(clip.frame_count):
        parts = [f"{v:.6f}" for v in clip.root_positions[f]]
        for j in range(n_joints):
            parts.extend(f"{v:.6f}" for v in euler[f, j])
        lines.append(" ".join(parts))
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestSerializeMatchesPerValueReference:
    @given(
        st.one_of(st.sampled_from([255, 256, 257, 512, 513]),
                  st.integers(min_value=2, max_value=700)),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_clips_byte_for_byte(self, frames, joints, seed):
        rng = np.random.default_rng(seed)
        root = awkward_floats(rng, (frames, 3), 1e5)
        eulers = awkward_floats(rng, (frames, joints, 3), 180.0)
        rotations = euler_deg_to_quat(eulers, "ZXY").reshape(frames, joints, 4)
        clip = GestureClip(make_skeleton(joints), 30.0, root, rotations, "rand")
        assert serialize_bvh(clip) == serialize_bvh_per_value(clip)

    def test_fixture_clips_byte_for_byte(self, gesture_dataset):
        for entry in gesture_dataset.entries:
            clip = gesture_dataset.clip_for(entry.id)
            assert serialize_bvh(clip) == serialize_bvh_per_value(clip), entry.id

    def test_negative_zero_root_positions_are_kept(self):
        clip = constant_clip(make_skeleton(2), identity_quats(2), frame_count=2)
        clip.root_positions[0, 0] = -1e-9
        assert b"\n-0.000000 90.000000 0.000000 0.000000" in serialize_bvh(clip)


class _PerTokenStream:
    """Every token of the text with its line and column, listed up front."""

    file = None  # the path errors name, read by the shared _parse_joint

    def __init__(self, text: str):
        self.tokens = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            col = 0
            for raw in line.split():
                col = line.index(raw, col)
                self.tokens.append((raw, line_no, col + 1))
                col += len(raw)
        self.pos = 0

    def error(self, message, tok):
        return BvhSyntaxError(message, line=tok[1], column=tok[2])

    def next(self, context):
        if self.pos >= len(self.tokens):
            last = self.tokens[-1] if self.tokens else ("", 1, 1)
            raise self.error(f"unexpected end of file, expected {context}", last)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, literal):
        tok = self.next(repr(literal))
        if tok[0] != literal:
            raise self.error(f"expected {literal!r}, found {tok[0]!r}", tok)
        return tok

    def finite(self, tok, where):
        try:
            value = float(tok[0])
        except ValueError:
            raise self.error(f"expected a number {where}, found {tok[0]!r}", tok) from None
        if not math.isfinite(value):
            raise self.error(f"expected a finite number {where}, found {tok[0]!r}", tok)
        return value

    def next_float(self, context):
        return self.finite(self.next(context), f"for {context}")

    def next_int(self, context):
        tok = self.next(context)
        try:
            return int(tok[0])
        except ValueError:
            raise self.error(
                f"expected an integer for {context}, found {tok[0]!r}", tok
            ) from None


def euler_deg_to_quat_2d(angles, order):
    """euler_deg_to_quat through scipy's 2-D (N, 3) path."""
    angles = np.asarray(angles, dtype=np.float64)
    xyzw = Rotation.from_euler(order, angles.reshape(-1, 3), degrees=True).as_quat()
    wxyz = np.concatenate([xyzw[:, 3:4], xyzw[:, :3]], axis=1)
    return canonicalize(wxyz.reshape(angles.shape[:-1] + (4,)))


def parse_bvh_per_token(text: str, source_id: str = "") -> GestureClip:
    """Reference parser: every token carries its line and column, each motion
    value is one float() call and each joint one Euler conversion."""
    stream = _PerTokenStream(text)
    stream.expect("HIERARCHY")
    root_kw = stream.next("ROOT")
    if root_kw[0] != "ROOT":
        raise stream.error("expected ROOT after HIERARCHY", root_kw)
    joints, joint_slots = [], []
    _parse_joint(stream, joints, joint_slots, stream.next("root joint name")[0], -1)
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
    if math.isinf(1.0 / frame_time):
        raise stream.error(f"frame time {frame_time!r} is too small", ft2)

    values_per_frame = sum(len(s) for s in joint_slots)
    remaining = stream.tokens[stream.pos:]
    if len(remaining) % values_per_frame != 0:
        tok = remaining[-1] if remaining else ft2
        raise FrameCountMismatch(
            f"motion data has {len(remaining)} values, not a multiple of "
            f"{values_per_frame} channels", line=tok[1]
        )
    frames = len(remaining) // values_per_frame
    if frames != declared_frames:
        raise FrameCountMismatch(f"declared {declared_frames} frames but found {frames}")
    if frames < 2:
        raise FrameCountMismatch(f"clip {source_id!r} has {frames} frames, need at least 2")
    flat = [stream.finite(tok, "in motion data") for tok in remaining]
    table = np.array(flat, dtype=np.float64).reshape(frames, values_per_frame)

    root = np.zeros((frames, 3))
    rotations = np.empty((frames, len(joints), 4))
    col = 0
    for j, slots in enumerate(joint_slots):
        euler = np.empty((frames, 3))
        for kind, slot in slots:
            if kind == "pos":
                root[:, slot] = table[:, col]
            else:
                euler[:, slot] = table[:, col]
            col += 1
        rotations[:, j] = euler_deg_to_quat_2d(euler, joints[j].rotation_order)
    return GestureClip(skeleton, 1.0 / frame_time, root, rotations, source_id)


def assert_same_clip(a: GestureClip, b: GestureClip):
    assert a.fps == b.fps
    assert a.root_positions.tobytes() == b.root_positions.tobytes()
    assert a.rotations.tobytes() == b.rotations.tobytes()
    assert len(a.skeleton.joints) == len(b.skeleton.joints)
    for ja, jb in zip(a.skeleton.joints, b.skeleton.joints):
        assert (ja.name, ja.parent, ja.rotation_order) == (
            jb.name, jb.parent, jb.rotation_order)
        assert ja.offset.tobytes() == jb.offset.tobytes()
        assert (ja.end_offset is None) == (jb.end_offset is None)
        if ja.end_offset is not None:
            assert ja.end_offset.tobytes() == jb.end_offset.tobytes()


def assert_same_outcome(text: str):
    """parse_bvh and the reference load equal clips or raise equal errors."""
    outcomes = []
    for parse in (parse_bvh, parse_bvh_per_token):
        try:
            outcomes.append(parse(text, "doc"))
        except ToonmotionError as exc:
            outcomes.append((type(exc), str(exc)))
    new, ref = outcomes
    if isinstance(ref, GestureClip) and isinstance(new, GestureClip):
        assert_same_clip(new, ref)
    else:
        assert new == ref


_SEPARATORS = [" ", "  ", "\t", " \t", "\xa0", "\u3000"]
# Every line break str.splitlines() knows, so line numbers are checked for each.
_NEWLINES = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]
# Spellings float() accepts, full-width digits included.
_NUMBER_SPELLINGS = ["-0", "+0", "0", "1_0", "\uff11\uff12", ".5", "5.", "0.5e1",
                     "-1E-3", "+180"]
_FRAMES_LINES = ["Frames: {}", "Frames : {}", "Frames:\t{}", "Frames  :  {}"]
_FRAME_TIME_LINES = ["Frame Time: {}", "Frame Time : {}", "Frame\tTime:  {}"]
_FRAME_TIMES = ["0.033333", "0.05", repr(1 / 30), "3.3333e-2", "1", "0.008333"]

numbers = st.one_of(
    st.tuples(
        st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False),
        st.sampled_from(["{:.6f}", "{!r}", "{:.3e}", "{:g}"]),
    ).map(lambda vf: vf[1].format(vf[0])),
    st.integers(-180_000_000, 180_000_000).map(lambda k: f"{k / 1e6:.6f}"),
    st.sampled_from(_NUMBER_SPELLINGS),
)


class BvhDocument:
    """A valid BVH text of the supported subset, with its motion values kept
    as rows of tokens so a test can corrupt them and render it again."""

    def __init__(self, head, rows, sep, nl, frames_line, time_line, on_time_line,
                 blank_after):
        self.head = head
        self.rows = rows
        self.sep = sep
        self.nl = nl
        self.frames_line = frames_line
        self.time_line = time_line
        self.on_time_line = on_time_line
        self.blank_after = blank_after

    def render(self, rows=None, frames=None) -> str:
        rows = self.rows if rows is None else rows
        frames = len(rows) if frames is None else frames
        values = [tok for row in rows for tok in row]
        time_values = values[:self.on_time_line]
        lines = [*self.head, self.frames_line.format(frames),
                 self.sep.join([self.time_line, *time_values])]
        rest = values[self.on_time_line:]
        width = len(rows[0]) if rows else 1
        for i in range(0, len(rest), width):
            lines.append(self.sep.join(rest[i:i + width]))
            if i // width in self.blank_after:
                lines.append(self.sep)
        return self.nl.join(lines) + self.nl


@st.composite
def bvh_documents(draw, max_joints=5):
    n_joints = draw(st.integers(1, max_joints))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n_joints)]
    sep = draw(st.sampled_from(_SEPARATORS))
    offsets = st.lists(numbers, min_size=3, max_size=3)
    head = ["HIERARCHY"]
    channel_count = 0

    def write(index, depth):
        nonlocal channel_count
        indent = sep * depth
        order = draw(st.sampled_from(SUPPORTED_ROTATION_ORDERS))
        channels = [f"{axis}rotation" for axis in order]
        if index == 0 and draw(st.booleans()):
            for name in draw(st.permutations(["Xposition", "Yposition", "Zposition"])):
                channels.insert(draw(st.integers(0, len(channels))), name)
        channel_count += len(channels)
        head.append(f"{indent}{'ROOT' if index == 0 else 'JOINT'} J{index}")
        head.append(indent + "{")
        head.append(sep.join([f"{indent}{sep}OFFSET", *draw(offsets)]))
        head.append(sep.join([f"{indent}{sep}CHANNELS", str(len(channels)), *channels]))
        for child in (k for k in range(n_joints) if parents[k] == index):
            write(child, depth + 1)
        if draw(st.booleans()):
            head.append(f"{indent}{sep}End Site")
            head.append(f"{indent}{sep}{{")
            head.append(sep.join([f"{indent}{sep}{sep}OFFSET", *draw(offsets)]))
            head.append(f"{indent}{sep}}}")
        head.append(indent + "}")

    write(0, 0)
    head.append("MOTION")
    frames = draw(st.integers(2, 5))
    rows = [draw(st.lists(numbers, min_size=channel_count, max_size=channel_count))
            for _ in range(frames)]
    return BvhDocument(
        head=head,
        rows=rows,
        sep=sep,
        nl=draw(st.sampled_from(_NEWLINES)),
        frames_line=draw(st.sampled_from(_FRAMES_LINES)),
        time_line=draw(st.sampled_from(_FRAME_TIME_LINES)).format(
            draw(st.sampled_from(_FRAME_TIMES))),
        on_time_line=draw(st.integers(0, channel_count)),
        blank_after=draw(st.sets(st.integers(0, frames - 1))),
    )


@st.composite
def corrupted_documents(draw):
    doc = draw(bvh_documents())
    rows = [list(row) for row in doc.rows]
    frames = len(rows)
    kind = draw(st.sampled_from(
        ["truncate", "extra", "missing", "garbage", "non_finite", "moved", "frames"]))
    if kind == "truncate":
        text = doc.render()
        return text[:draw(st.integers(0, len(text)))]
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, len(rows[r]) - 1))
    if kind == "extra":
        rows[r].insert(c, draw(numbers))
    elif kind == "missing":
        del rows[r][c]
    elif kind == "garbage":
        rows[r][c] = draw(st.sampled_from(
            ["banana", "1.0.0", "0x10", "--1", "1e", "_1", "1__0", "#", "1,5"]))
    elif kind == "non_finite":
        rows[r][c] = draw(st.sampled_from(["nan", "-inf", "Infinity", "1e400", "NaN"]))
    elif kind == "moved":
        rows[(r + 1) % len(rows)].append(rows[r].pop(c))
    else:
        frames = draw(st.sampled_from([0, 1, frames - 1, frames + 1, frames + 7]))
    return doc.render(rows, frames)


class TestParseMatchesPerTokenReference:
    @given(bvh_documents())
    @settings(max_examples=100, deadline=None)
    def test_valid_layouts_give_bit_identical_clips(self, doc):
        text = doc.render()
        clip = parse_bvh(text, "doc")
        assert_same_clip(clip, parse_bvh_per_token(text, "doc"))
        assert_same_clip(parse_bvh(text.encode("utf-8"), "doc"), clip)

    @given(corrupted_documents())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_bodies_fail_the_same_way(self, text):
        assert_same_outcome(text)

    def test_fixture_clips(self):
        for path in sorted((FIXTURES / "gestures" / "clips").glob("*.bvh")):
            text = path.read_text(encoding="utf-8")
            assert_same_clip(parse_bvh(text, path.stem),
                             parse_bvh_per_token(text, path.stem))

    @pytest.mark.parametrize("old,new", [
        ("0.0 90.0 0.0 90.0", "0.0 90.0 0.0 banana"),
        ("Frames: 2", "Frames: 3"),
        ("Frames: 2", "Frames: two"),
        ("Frame Time: 0.033333", "Frame Time: -1"),
        ("Frame Time: 0.033333", "Frame Time: 0.033333 0.0"),
        ("0.0 0.0 0.0\n0.0 90.0 0.0 90.0", "0.0 0.0\n0.0 90.0 0.0 90.0"),
        ("JOINT Spine", "JOINT"),
        ("End Site", "End Zone"),
    ])
    def test_known_corruptions(self, old, new):
        assert old in SIMPLE_BVH
        assert_same_outcome(SIMPLE_BVH.replace(old, new))

    def test_truncated_at_every_character(self):
        for cut in range(len(SIMPLE_BVH) + 1):
            assert_same_outcome(SIMPLE_BVH[:cut])

    def test_one_conversion_per_rotation_order(self, monkeypatch):
        text = (
            "HIERARCHY\nROOT A\n{\n OFFSET 0 0 0\n"
            " CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation\n"
            " JOINT B\n {\n  OFFSET 0 1 0\n  CHANNELS 3 Zrotation Yrotation Xrotation\n"
            "  JOINT C\n  {\n   OFFSET 0 1 0\n   CHANNELS 3 Zrotation Xrotation Yrotation\n"
            "   End Site\n   {\n    OFFSET 0 1 0\n   }\n  }\n }\n"
            " JOINT D\n {\n  OFFSET 1 0 0\n  CHANNELS 3 Xrotation Yrotation Zrotation\n"
            " }\n}\nMOTION\nFrames: 2\nFrame Time: 0.05\n"
            "1 2 3 10 20 30 40 50 60 70 80 90 -10 -20 -30\n"
            "0 0 0 90 45 -45 0 0 0 180 -90 10 5 6 7\n"
        )
        calls = []
        real = bvh.euler_deg_to_quat

        def counting(angles, order):
            calls.append((order, angles.shape))
            return real(angles, order)

        monkeypatch.setattr(bvh, "euler_deg_to_quat", counting)
        clip = parse_bvh(text, "mixed")
        assert sorted(calls) == [("XYZ", (2, 1, 3)), ("ZXY", (2, 2, 3)),
                                 ("ZYX", (2, 1, 3))]
        assert_same_clip(clip, parse_bvh_per_token(text, "mixed"))


_MUTATION_BYTES = st.one_of(
    st.integers(0, 255), st.sampled_from(list(b"0123456789.-+eE \t\r\n{}:nafi")))


@given(st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 2**16), _MUTATION_BYTES),
    min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_mutated_bytes_load_or_raise_a_package_error(mutations):
    data = bytearray(SIMPLE_BVH.encode("utf-8"))
    for op, at, byte in mutations:
        if op == "insert":
            data.insert(at % (len(data) + 1), byte)
        elif op == "replace":
            data[at % len(data)] = byte
        else:
            del data[at % len(data)]
    try:
        clip = parse_bvh(bytes(data), "mutated")
    except ToonmotionError:
        clip = None
    if clip is not None:
        assert np.isfinite(clip.rotations).all()
        assert np.isfinite(clip.root_positions).all()
    try:
        text = bytes(data).decode("utf-8")
    except UnicodeDecodeError:
        return
    assert_same_outcome(text)


@given(st.one_of(
    st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc")), max_size=12),
    st.from_regex(r"[+-]?[0-9_]{0,4}\.?[0-9_]{0,4}([eE][+-]?[0-9_]{1,4})?", fullmatch=True),
    st.sampled_from(["nan", "-NaN", "inf", "+Infinity", "1e400", "-1e-400"]),
))
@settings(max_examples=300, deadline=None)
def test_numpy_converts_tokens_as_float_does(token):
    try:
        expected = np.array([float(token)]).tobytes()
    except ValueError:
        with pytest.raises(ValueError):
            np.array([token], dtype=np.float64)
    else:
        assert np.array([token], dtype=np.float64).tobytes() == expected


_AWKWARD_ANGLES = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 270.0, -270.0, 720.0,
                   -720.0, 1e5, -1e5, 1e-10, -1e-10, 5e-324, 123.456789]


class TestEulerToQuatMatchesScipy2d:
    angles = st.one_of(
        st.sampled_from(_AWKWARD_ANGLES),
        st.floats(-720.0, 720.0),
        st.floats(-1e5, 1e5),
        st.integers(-180_000_000, 180_000_000).map(lambda k: k / 1e6),
        st.floats(-1e-9, 1e-9),
    )

    @given(st.sampled_from(SUPPORTED_ROTATION_ORDERS),
           st.lists(st.tuples(angles, angles, angles), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_rows_bit_for_bit(self, order, rows):
        a = np.array(rows)
        got = euler_deg_to_quat(a, order)
        assert got.tobytes() == euler_deg_to_quat_2d(a, order).tobytes()

    @pytest.mark.parametrize("order", SUPPORTED_ROTATION_ORDERS)
    def test_many_awkward_rows_bit_for_bit(self, order):
        rng = np.random.default_rng(11)
        a = np.concatenate([
            awkward_floats(rng, (20_000, 3), 180.0),
            awkward_floats(rng, (20_000, 3), 1e5),
            rng.choice(_AWKWARD_ANGLES, size=(20_000, 3)),
        ]).reshape(600, 100, 3)
        got = euler_deg_to_quat(a, order)
        assert got.shape == (600, 100, 4)
        assert got.tobytes() == euler_deg_to_quat_2d(a, order).tobytes()

    @pytest.mark.parametrize("order", SUPPORTED_ROTATION_ORDERS)
    def test_signed_zero_and_right_angle_rows_bit_for_bit(self, order):
        values = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 270.0, -270.0, 360.0, -360.0]
        a = np.array(list(itertools.product(values, repeat=3)))
        got = euler_deg_to_quat(a, order)
        assert got.tobytes() == euler_deg_to_quat_2d(a, order).tobytes()


def exact_band_rows(rng, n):
    """Quaternions whose ZXY angles fall in the exact band of
    quat_to_euler_deg, by kind, and rows just outside it."""
    def zxy(a, b, c):
        return euler_deg_to_quat(np.stack([a, b, c], axis=-1), "ZXY")

    outer = rng.uniform(-180.0, 180.0, (2, n))
    sign = rng.choice([-1.0, 1.0], n)
    # |s| = sin(b), on both sides of the band's edge at 1 - 1e-7.
    s = 1.0 - 1e-7 * rng.choice([0.5, 0.9, 1.1, 2.0], n)
    # Angles half a millionth of a degree off a 6-decimal value.
    tie = (rng.integers(-180_000_000, 180_000_000, (3, n)) + 0.5) / 1e6
    tie[1] = (rng.integers(-89_000_000, 89_000_000, n) + 0.5) / 1e6
    # Middle angles at +-90 degrees, and off it by less and by more than
    # the 1e-7 rad within which scipy treats a rotation as gimbal locked.
    off_lock = np.degrees(rng.choice([0.0, 5e-9, 5e-8, 2e-7], n))
    return {
        "gimbal_lock": zxy(outer[0], sign * (90.0 - off_lock), outer[1]),
        "gimbal_edge": zxy(outer[0], sign * np.degrees(np.arcsin(s)), outer[1]),
        "at_180": zxy(180.0 * sign, rng.uniform(-89.0, 89.0, n),
                      rng.choice([-180.0, 180.0], n) + rng.uniform(-1e-10, 1e-10, n)),
        "ties": zxy(*tie),
    }


class TestQuatToEulerMatchesScipy:
    def test_a_million_random_rotations_after_rounding(self):
        q = np.random.default_rng(24).normal(size=(10**6, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        got = quat_to_euler_deg(q.reshape(1000, 1000, 4))
        assert got.shape == (1000, 1000, 3)
        want = quat_to_euler_deg_oracle(q).reshape(1000, 1000, 3)
        assert rounded(got).tobytes() == rounded(want).tobytes()

    @pytest.mark.parametrize("kind", ["gimbal_lock", "gimbal_edge", "at_180", "ties"])
    def test_band_rows_bit_for_bit(self, kind):
        rng = np.random.default_rng(7)
        q = exact_band_rows(rng, 4000)[kind]
        # Sign and scale must not matter: the exact path normalizes as
        # scipy does, and the closed form divides by |q|^2.
        q[::3] *= -1.0
        q[1::3] *= rng.uniform(0.25, 4.0, (len(q[1::3]), 1))
        want = quat_to_euler_deg_oracle(q)
        assert quat._euler_zxy_exact(q).tobytes() == want.tobytes()
        got = quat_to_euler_deg(q)
        assert rounded(got).tobytes() == rounded(want).tobytes()
        w, x, y, z = q.T
        s = 2.0 * (y * z + w * x) / np.sum(q * q, axis=1)
        # Rows a hair outside the gimbal band may take the closed form;
        # every other built row is in the band.
        exact = np.abs(s) > 1.0 - 0.95e-7 if kind == "gimbal_edge" else slice(None)
        assert got[exact].tobytes() == want[exact].tobytes()

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError, match="zero quaternion"):
            quat_to_euler_deg(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e400"])
    def test_motion_value(self, value):
        text = SIMPLE_BVH.replace("0.0 90.0 0.0 90.0", f"0.0 90.0 0.0 {value}")
        with pytest.raises(BvhSyntaxError, match="finite number in motion data") as info:
            parse_bvh(text, "bad")
        assert (info.value.line, info.value.column) == (20, 14)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_frame_time(self, value):
        text = SIMPLE_BVH.replace("Frame Time: 0.033333", f"Frame Time: {value}")
        with pytest.raises(BvhSyntaxError, match="finite number for frame time") as info:
            parse_bvh(text, "bad")
        assert (info.value.line, info.value.column) == (18, 13)

    def test_frame_time_too_small_for_a_finite_rate(self):
        text = SIMPLE_BVH.replace("Frame Time: 0.033333", "Frame Time: 1e-320")
        with pytest.raises(BvhSyntaxError, match="too small"):
            parse_bvh(text, "bad")

    @pytest.mark.parametrize("old,new,position", [
        ("OFFSET 0.0 10.0 0.0", "OFFSET 0.0 nan 0.0", (8, 20)),
        ("OFFSET 0.0 5.0 0.0", "OFFSET 0.0 5.0 -inf", (12, 28)),
    ])
    def test_offset(self, old, new, position):
        with pytest.raises(BvhSyntaxError, match="finite number for offset") as info:
            parse_bvh(SIMPLE_BVH.replace(old, new), "bad")
        assert (info.value.line, info.value.column) == position

    def test_invalid_utf8_reports_its_position(self):
        data = SIMPLE_BVH.encode("utf-8").replace(
            b"0.0 90.0 0.0 90.0", b"0.0 90.0 0.0 \xff0.0")
        with pytest.raises(BvhSyntaxError, match="invalid UTF-8 byte 0xff") as info:
            parse_bvh(data, "bad")
        assert (info.value.line, info.value.column) == (20, 14)

    @pytest.mark.parametrize("fault", [b"\xff0.0", b"oops"])
    @pytest.mark.parametrize("brk", _NEWLINES)
    def test_every_fault_counts_every_break(self, brk, fault):
        """An undecodable byte and a bad token at one spot get one position."""
        data = SIMPLE_BVH.replace("\n", brk).encode("utf-8").replace(
            b"0.0 90.0 0.0 90.0", b"0.0 90.0 0.0 " + fault)
        with pytest.raises(BvhSyntaxError) as info:
            parse_bvh(data, "bad")
        assert (info.value.line, info.value.column) == (20, 14)


# Every triple of these angles is parsed once, in each rotation order.
_EXTREME_ANGLES = [0.0, 90.0, -90.0, 1.7e308, -1.7e308]


@pytest.mark.parametrize("order", SUPPORTED_ROTATION_ORDERS)
@given(rows=st.lists(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
                     min_size=2, max_size=20))
@example(rows=list(itertools.product(_EXTREME_ANGLES, repeat=3)))
@settings(max_examples=100, deadline=None)
def test_finite_angles_parse_to_unit_quaternions(order, rows):
    """A clip from parse_bvh needs no norm check: every finite angle in every
    supported order gives a quaternion of norm 1 within 1e-12."""
    channels = " ".join(f"{axis}rotation" for axis in order)
    text = (f"HIERARCHY\nROOT A\n{{\n  OFFSET 0 0 0\n  CHANNELS 3 {channels}\n"
            "  End Site\n  {\n    OFFSET 0 1 0\n  }\n}\n"
            f"MOTION\nFrames: {len(rows)}\nFrame Time: 0.05\n"
            + "".join(" ".join(map(repr, row)) + "\n" for row in rows))
    clip = parse_bvh(text, "unit")
    norms = np.linalg.norm(clip.rotations, axis=-1)
    assert float(np.max(np.abs(norms - 1.0))) <= 1e-12


def test_gimbal_lock_pose_serializes_without_warning():
    pose = euler_deg_to_quat(np.array([[10.0, 90.0, 20.0], [0.0, 0.0, 0.0]]), "ZXY")
    clip = constant_clip(make_skeleton(2), pose, frame_count=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        data = serialize_bvh(clip)
    assert [str(w.message) for w in caught] == []
    back = parse_bvh(data, "back")
    assert float(np.max(angle_between(back.rotations, clip.rotations))) < 1e-6


class TestSkeletonMatches:
    def test_offsets_within_tolerance_match(self):
        other = make_skeleton(4)
        other.joints[-1].offset = other.joints[-1].offset + 0.5 * OFFSET_MATCH_TOL
        assert make_skeleton(4).matches(other)

    def test_last_joint_offset_beyond_tolerance_rejected(self):
        other = make_skeleton(4)
        other.joints[-1].offset = other.joints[-1].offset + np.array(
            [0.0, 2.0 * OFFSET_MATCH_TOL, 0.0]
        )
        assert not make_skeleton(4).matches(other)
        assert not other.matches(make_skeleton(4))

    def test_nan_offset_rejected(self):
        other = make_skeleton(4)
        other.joints[2].offset = np.array([0.0, np.nan, 0.0])
        assert not make_skeleton(4).matches(other)
        assert not other.matches(other)

    def test_name_parent_and_count_differences_rejected(self):
        renamed = make_skeleton(3)
        renamed.joints[2].name = "Other"
        assert not make_skeleton(3).matches(renamed)
        assert not make_skeleton(3).matches(make_skeleton(4))
        reparented = make_skeleton(3)
        reparented.joints[2].parent = 0
        assert not make_skeleton(3).matches(reparented)


class TestRoundTrip:
    def test_fixture_clips_round_trip_within_tolerance(self, gesture_dataset):
        for entry in gesture_dataset.entries:
            clip = gesture_dataset.clip_for(entry.id)
            back = parse_bvh(serialize_bvh(clip), entry.id)
            assert back.frame_count == clip.frame_count
            assert back.skeleton.matches(clip.skeleton)
            worst = float(np.max(angle_between(back.rotations, clip.rotations)))
            assert worst <= 1e-4, f"{entry.id}: {worst} rad"
            np.testing.assert_allclose(
                back.root_positions, clip.root_positions, atol=5e-7
            )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_clip_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        skeleton = make_skeleton(3)
        frames, joints = 4, 3
        eulers = rng.uniform(-170.0, 170.0, size=(frames, joints, 3))
        rotations = euler_deg_to_quat(eulers, "ZXY").reshape(frames, joints, 4)
        root = rng.uniform(-50.0, 50.0, size=(frames, 3))
        clip = GestureClip(skeleton, 30.0, root, rotations, f"rand{seed}")
        back = parse_bvh(serialize_bvh(clip), "back")
        worst = float(np.max(angle_between(back.rotations, clip.rotations)))
        assert worst <= 1e-4


class TestJointCap:
    """The reader and the writer recurse once per nesting level, so the
    joint count is capped well inside Python's recursion limit."""

    def test_a_chain_of_the_cap_parses_and_round_trips(self):
        clip = parse_bvh(chain_bvh(MAX_JOINTS), "chain")
        assert len(clip.skeleton.joints) == MAX_JOINTS
        assert [j.parent for j in clip.skeleton.joints] == list(range(-1, MAX_JOINTS - 1))
        again = parse_bvh(serialize_bvh(clip), "again")
        assert again.skeleton.matches(clip.skeleton)
        np.testing.assert_array_equal(again.rotations, clip.rotations)
        np.testing.assert_array_equal(again.root_positions, clip.root_positions)

    @pytest.mark.parametrize("n_joints", [MAX_JOINTS + 1, 3000])
    def test_one_joint_more_is_rejected_at_its_joint_token(self, n_joints):
        with pytest.raises(BvhSyntaxError) as info:
            parse_bvh(chain_bvh(n_joints), "chain", file="chain.bvh")
        assert str(info.value) == (
            f"chain.bvh: line {2 + 4 * MAX_JOINTS}, col 1: "
            f"skeleton has more than {MAX_JOINTS} joints")


class TestClipValidation:
    def test_duration(self):
        skeleton = make_skeleton(2)
        clip = constant_clip(skeleton, identity_quats(2), frame_count=31, fps=30)
        assert clip.duration_s == pytest.approx(1.0)


def test_parse_leaves_no_token_stream_for_the_cycle_collector(monkeypatch):
    created = []

    class RecordedStream(_TokenStream):
        def __init__(self, *args):
            super().__init__(*args)
            created.append(weakref.ref(self))

    monkeypatch.setattr(bvh, "_TokenStream", RecordedStream)
    data = (FIXTURES / "gestures" / "clips" / "g_big.bvh").read_bytes()
    head, last_row = data.rstrip().rsplit(b"\n", 1)
    bad = head + b"\nbanana" + last_row[last_row.index(b" "):] + b"\n"
    gc.collect()  # streams left in cycles by earlier tests' tracebacks
    gc.disable()
    try:
        for _ in range(10):
            parse_bvh(data, "g_big")
            try:
                parse_bvh(bad, "bad")
            except BvhSyntaxError:
                pass
        alive = [ref for ref in created if ref() is not None]
        streams = [o for o in gc.get_objects() if isinstance(o, _TokenStream)]
    finally:
        gc.enable()
    assert len(created) == 20
    assert alive == []
    assert streams == []
