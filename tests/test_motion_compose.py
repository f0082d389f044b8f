"""Stitching and retiming tests for gesture clips."""

import itertools
import math
import random

import numpy as np
import pytest

from toonmotion.bvh import GestureClip
from toonmotion.curves import smoothstep
from toonmotion.errors import ValidationError
from toonmotion.motion_compose import retime_to_speech, stitch_clips
from toonmotion.pipeline import Config
from toonmotion.quat import euler_deg_to_quat, normalize, slerp

from conftest import (
    angle_between,
    constant_clip,
    identity_quats,
    make_skeleton,
    max_frame_jump,
)


def z_rotation_quats(n_joints, degrees):
    quats = identity_quats(n_joints)
    quats[0] = euler_deg_to_quat(np.array([degrees, 0.0, 0.0]), "ZXY")
    return quats


def blend_frames(track, a, b):
    """Frames of a stitch of two constant clips that hold neither clip's pose."""
    return [
        f for f, pose in enumerate(track.rotations)
        if not np.array_equal(pose, a.rotations[0])
        and not np.array_equal(pose, b.rotations[0])
    ]


class TestStitch:
    def test_single_clip_passthrough(self):
        skeleton = make_skeleton(3)
        clip = constant_clip(skeleton, identity_quats(3))
        track = stitch_clips([clip], blend_s=Config.blend_s)
        assert track.frame_count == clip.frame_count
        np.testing.assert_array_equal(track.rotations, clip.rotations)

    def test_seam_shares_one_frame(self):
        skeleton = make_skeleton(2)
        a = constant_clip(skeleton, identity_quats(2), frame_count=31)
        b = constant_clip(skeleton, identity_quats(2), frame_count=46)
        track = stitch_clips([a, b], blend_s=Config.blend_s)
        assert track.frame_count == 31 + 46 - 1

    def test_identical_constant_clips_stay_constant(self):
        skeleton = make_skeleton(2)
        pose = z_rotation_quats(2, 30.0)
        a = constant_clip(skeleton, pose, frame_count=31)
        b = constant_clip(skeleton, pose, frame_count=31)
        track = stitch_clips([a, b], blend_s=Config.blend_s)
        assert max_frame_jump(track.rotations) < 1e-9

    def test_seam_frame_is_halfway_pose(self):
        skeleton = make_skeleton(2)
        a = constant_clip(skeleton, identity_quats(2), frame_count=31)
        b = constant_clip(skeleton, z_rotation_quats(2, 90.0), frame_count=31)
        track = stitch_clips([a, b], blend_s=0.3)
        seam = 30
        angle = angle_between(track.rotations[seam, 0], identity_quats(1)[0])
        assert angle == pytest.approx(math.pi / 4.0, abs=1e-9)

    def test_blend_window_bounds_and_provenance(self):
        skeleton = make_skeleton(2)
        a = constant_clip(skeleton, identity_quats(2), frame_count=31)
        b = constant_clip(skeleton, z_rotation_quats(2, 90.0), frame_count=31)
        track = stitch_clips([a, b], blend_s=0.3)
        # w = 0.3s at 30 fps puts 4.5 frames either side of seam frame 30.
        assert blend_frames(track, a, b) == list(range(26, 35))
        np.testing.assert_array_equal(track.rotations[:26], a.rotations[:26])
        np.testing.assert_array_equal(track.rotations[35:], b.rotations[5:])

    def test_window_shrinks_for_short_clips(self):
        skeleton = make_skeleton(2)
        short = constant_clip(skeleton, identity_quats(2), frame_count=7)
        other = constant_clip(skeleton, z_rotation_quats(2, 90.0), frame_count=31)
        track = stitch_clips([short, other], blend_s=0.3)
        # w = min(0.3, 0.1, 0.5) = 0.1s -> 1.5 frames either side of seam 6.
        assert blend_frames(track, short, other) == [5, 6, 7]

    def test_zero_blend_is_a_hard_cut(self):
        skeleton = make_skeleton(2)
        a = constant_clip(skeleton, identity_quats(2), frame_count=31)
        b = constant_clip(skeleton, z_rotation_quats(2, 90.0), frame_count=31)
        track = stitch_clips([a, b], blend_s=0.0)
        assert blend_frames(track, a, b) == []
        np.testing.assert_array_equal(track.rotations[:30], a.rotations[:30])
        np.testing.assert_array_equal(track.rotations[30:], b.rotations)

    def test_blend_spreads_the_pose_change(self):
        skeleton = make_skeleton(2)
        a = constant_clip(skeleton, identity_quats(2), frame_count=31)
        b = constant_clip(skeleton, z_rotation_quats(2, 90.0), frame_count=31)
        cut = stitch_clips([a, b], blend_s=0.0)
        blended = stitch_clips([a, b], blend_s=0.3)
        assert max_frame_jump(blended.rotations) < max_frame_jump(cut.rotations) / 3

    def test_fixture_clips_add_no_jumps(self, gesture_dataset):
        ids = [e.id for e in gesture_dataset.entries]
        for combo in itertools.combinations(ids, 3):
            clips = [gesture_dataset.clip_for(i) for i in combo]
            source_max = max(max_frame_jump(c.rotations) for c in clips)
            track = stitch_clips(clips, blend_s=Config.blend_s)
            assert max_frame_jump(track.rotations) <= source_max + 1e-6, combo

    def test_output_quats_stay_unit(self, gesture_dataset):
        ids = [e.id for e in gesture_dataset.entries][:4]
        clips = [gesture_dataset.clip_for(i) for i in ids]
        track = stitch_clips(clips, blend_s=Config.blend_s)
        norms = np.linalg.norm(track.rotations, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5


class TestRetime:
    def make_track(self, frame_count=61, fps=30.0):
        skeleton = make_skeleton(2)
        return constant_clip(
            skeleton, identity_quats(2), frame_count=frame_count, fps=fps
        )

    def ramp_track(self, frame_count=61, fps=30.0):
        """Clip whose first joint sweeps 0..60 degrees about Z."""
        skeleton = make_skeleton(2)
        rotations = np.zeros((frame_count, 2, 4))
        for f in range(frame_count):
            rotations[f] = z_rotation_quats(2, f * 60.0 / (frame_count - 1))
        clip = constant_clip(skeleton, identity_quats(2), frame_count=frame_count,
                             fps=fps)
        return GestureClip(clip.skeleton, fps, clip.root_positions, rotations, "ramp")

    def test_matching_duration_is_identity(self):
        track = self.ramp_track()
        out = retime_to_speech(track, 2.0)
        assert out.frame_count == track.frame_count
        assert np.max(np.abs(out.rotations - track.rotations)) < 1e-9

    def test_stretch_two_to_three_seconds(self):
        track = self.ramp_track()
        out = retime_to_speech(track, 3.0)
        assert out.frame_count == 91
        assert not np.array_equal(out.rotations[-2], out.rotations[-1])
        # Full sweep still ends at 60 degrees.
        end_angle = angle_between(out.rotations[-1, 0], identity_quats(1)[0])
        assert end_angle == pytest.approx(math.radians(60.0), abs=1e-9)

    def test_clamped_stretch_holds_final_pose(self):
        track = self.ramp_track()  # 2s source
        out = retime_to_speech(track, 5.0)  # k clamps at 2.0, motion ends at 4s
        assert out.frame_count == 151
        # Frame 120 lands on the final source frame; the rest hold it.
        final = np.broadcast_to(track.rotations[-1], out.rotations[120:].shape)
        np.testing.assert_array_equal(out.rotations[120:], final)
        assert not np.array_equal(out.rotations[119], track.rotations[-1])

    def test_clamped_compression_truncates(self):
        track = self.ramp_track()  # 2s source
        out = retime_to_speech(track, 0.8)  # k clamps at 0.5
        assert out.frame_count == 25
        assert not np.array_equal(out.rotations[-2], out.rotations[-1])
        # At k = 0.5 the last output frame samples source frame 48 of 60.
        end_angle = angle_between(out.rotations[-1, 0], identity_quats(1)[0])
        assert end_angle == pytest.approx(math.radians(48.0), abs=1e-6)

    def test_frame_count_tracks_speech_duration(self):
        track = self.make_track()
        for speech in (1.0, 1.5, 2.0, 2.5, 3.9):
            out = retime_to_speech(track, speech)
            assert out.frame_count == int(round(speech * 30.0)) + 1

    def test_rejects_non_positive_duration(self):
        for speech in (0.0, -1.0):
            with pytest.raises(ValidationError, match="need at least 2"):
                retime_to_speech(self.make_track(), speech)

    def test_rejects_duration_shorter_than_two_frames(self):
        with pytest.raises(ValidationError, match=r"1e-09s at 30\.0 fps"):
            retime_to_speech(self.make_track(), 1e-9)

    def test_unit_norms_preserved(self, gesture_dataset):
        clip = gesture_dataset.clip_for("g_big")
        out = retime_to_speech(clip, 2.7)
        norms = np.linalg.norm(out.rotations, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5


def reference_stitch(clips, blend_s):
    """Per-frame loop form of the seam crossfade: (root positions, rotations)."""
    fps = clips[0].fps
    starts = [0]
    for clip in clips[:-1]:
        starts.append(starts[-1] + clip.frame_count - 1)
    total = starts[-1] + clips[-1].frame_count
    root = np.zeros((total, 3))
    rots = np.zeros((total,) + clips[0].rotations.shape[1:])
    for start, clip in zip(starts, clips):
        root[start:start + clip.frame_count] = clip.root_positions
        rots[start:start + clip.frame_count] = clip.rotations
    for idx, (out_clip, in_clip) in enumerate(zip(clips, clips[1:])):
        w = min(blend_s, out_clip.duration_s / 2.0, in_clip.duration_s / 2.0)
        if w <= 0.0:
            continue
        seam = starts[idx + 1]
        half = w * fps / 2.0
        for f in range(max(0, math.ceil(seam - half - 1e-9)),
                       min(total - 1, math.floor(seam + half + 1e-9)) + 1):
            out_local = min(f - starts[idx], out_clip.frame_count - 1)
            in_local = max(f - seam, 0)
            s = smoothstep(((f - seam) / fps + w / 2.0) / w)
            rots[f] = slerp(out_clip.rotations[out_local],
                            in_clip.rotations[in_local], s)
            root[f] = ((1.0 - s) * out_clip.root_positions[out_local]
                       + s * in_clip.root_positions[in_local])
    return root, rots


def reference_retime(clip, speech_duration_s):
    """Per-frame loop form of retiming: (root positions, rotations)."""
    k = min(max(speech_duration_s / clip.duration_s, 0.5), 2.0)
    count = int(round(speech_duration_s * clip.fps)) + 1
    last = clip.frame_count - 1
    root = np.zeros((count, 3))
    rots = np.zeros((count,) + clip.rotations.shape[1:])
    for i in range(count):
        src = i / k
        if src >= last - 1e-9:
            lo, frac = last, 0.0
        else:
            lo = math.floor(src)
            frac = src - lo
        if frac < 1e-12:
            root[i] = clip.root_positions[lo]
            rots[i] = clip.rotations[lo]
        else:
            root[i] = ((1.0 - frac) * clip.root_positions[lo]
                       + frac * clip.root_positions[lo + 1])
            rots[i] = slerp(clip.rotations[lo], clip.rotations[lo + 1], frac)
    return root, rots


def random_clips(rng, count):
    """Clips on one skeleton and fps; random walks from near-still to jumpy."""
    skeleton = make_skeleton(rng.randint(1, 4))
    fps = rng.choice([24.0, 29.97, 30.0, 60.0])
    n_joints = len(skeleton.joints)
    nrng = np.random.default_rng(rng.randrange(2**32))
    clips = []
    for _ in range(count):
        frames = rng.randint(2, 60)
        step = rng.choice([1e-7, 0.05, 1.0])
        walk = nrng.normal(size=(1, n_joints, 4)) + np.cumsum(
            nrng.normal(scale=step, size=(frames, n_joints, 4)), axis=0)
        root = nrng.normal(scale=10.0, size=(frames, 3))
        clips.append(GestureClip(skeleton, fps, root, normalize(walk)))
    return clips


class TestAgainstPerFrameReference:
    """Stitch and retime must equal the per-frame slerp loops bit for bit."""

    def check(self, clips, blend_s, speeches):
        stitched = stitch_clips(clips, blend_s)
        root, rots = reference_stitch(clips, blend_s)
        np.testing.assert_array_equal(stitched.root_positions, root)
        np.testing.assert_array_equal(stitched.rotations, rots)
        for speech in speeches:
            out = retime_to_speech(stitched, speech)
            root, rots = reference_retime(stitched, speech)
            np.testing.assert_array_equal(out.root_positions, root)
            np.testing.assert_array_equal(out.rotations, rots)

    def test_random_clips_and_durations(self):
        rng = random.Random(2024)
        for _ in range(40):
            clips = random_clips(rng, rng.randint(1, 8))
            duration = sum(c.duration_s for c in clips)
            self.check(
                clips,
                rng.choice([0.0, 0.1, 0.3, rng.uniform(0.0, 2.0)]),
                # Exact, near-exact (tiny fractions), clamped-stretch,
                # clamped-compression and free scales.
                [duration, duration * (1.0 + 1e-9), duration * 3.0, duration * 0.3,
                 rng.uniform(2.0 / clips[0].fps, 2.5 * duration + 0.1)],
            )

    def test_fixture_clips(self, gesture_dataset):
        ids = [e.id for e in gesture_dataset.entries]
        rng = random.Random(7)
        for _ in range(10):
            combo = [rng.choice(ids) for _ in range(rng.randint(1, 6))]
            clips = [gesture_dataset.clip_for(i) for i in combo]
            self.check(clips, 0.3, [rng.uniform(0.5, 12.0)])


class TestMaxFrameJump:
    def test_constant_track_has_zero_jump(self):
        skeleton = make_skeleton(2)
        clip = constant_clip(skeleton, z_rotation_quats(2, 20.0))
        assert max_frame_jump(clip.rotations) == 0.0

    def test_single_frame_is_zero(self):
        assert max_frame_jump(identity_quats(2)[np.newaxis]) == 0.0

    def test_measures_geodesic_step(self):
        frames = np.stack([identity_quats(1), z_rotation_quats(1, 10.0)])
        assert max_frame_jump(frames) == pytest.approx(math.radians(10.0), abs=1e-9)
