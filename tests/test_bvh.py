"""BVH parse/serialize tests: grammar, rotation conversion, round trips."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toonmotion.bvh import (
    OFFSET_MATCH_TOL,
    SERIALIZED_ROTATION_ORDER,
    GestureClip,
    Joint,
    Skeleton,
    _TokenStream,
    _write_joint,
    parse_bvh,
    serialize_bvh,
)
from toonmotion.errors import (
    BvhSyntaxError,
    FrameCountMismatch,
    UnsupportedChannelLayout,
    ValidationError,
)
from toonmotion.quat import angle_between, euler_deg_to_quat, quat_to_euler_deg

from conftest import (
    FIXTURES,
    awkward_floats,
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
        assert joints[0].has_position
        assert not joints[1].has_position

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
        with pytest.raises(FrameCountMismatch):
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
            Joint("Hips", -1, np.array([0.0, 90.0, 0.0]), "ZXY",
                  has_position=True),
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


def serialize_bvh_per_value(clip: GestureClip) -> bytes:
    """Reference serializer: one Euler conversion per joint, one f-string per value."""
    lines = ["HIERARCHY"]
    _write_joint(lines, clip.skeleton, 0, 0)
    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {1.0 / clip.fps:.8f}")
    n_joints = len(clip.skeleton.joints)
    euler = np.empty((clip.frame_count, n_joints, 3))
    for j in range(n_joints):
        euler[:, j, :] = quat_to_euler_deg(
            clip.rotations[:, j, :], SERIALIZED_ROTATION_ORDER
        )
    euler = np.round(euler, 6) + 0.0
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
    @pytest.mark.filterwarnings("ignore:Gimbal lock detected")
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


class TestClipValidation:
    def test_requires_two_frames(self):
        skeleton = make_skeleton(2)
        with pytest.raises(FrameCountMismatch):
            constant_clip(skeleton, identity_quats(2), frame_count=1)

    def test_rejects_non_unit_quaternions(self):
        skeleton = make_skeleton(2)
        bad = identity_quats(2) * 2.0
        with pytest.raises(ValidationError):
            constant_clip(skeleton, bad)

    def test_duration(self):
        skeleton = make_skeleton(2)
        clip = constant_clip(skeleton, identity_quats(2), frame_count=31, fps=30)
        assert clip.duration_s == pytest.approx(1.0)


def test_parse_leaves_no_token_stream_for_the_cycle_collector():
    data = (FIXTURES / "gestures" / "clips" / "g_big.bvh").read_bytes()
    gc.collect()  # streams left in cycles by earlier tests' tracebacks
    gc.disable()
    try:
        for _ in range(10):
            parse_bvh(data, "g_big")
        streams = [o for o in gc.get_objects() if isinstance(o, _TokenStream)]
    finally:
        gc.enable()
    assert streams == []
