"""Gesture sequence composition: stitching clips and retiming to speech.

Both steps take and return `GestureClip`s and work on whole frame arrays:
each output frame is either a copy of a source pose or a lerp (root) and
slerp (rotations) between two source poses. A stitched sequence concatenates
clips so each boundary frame is shared (total frames = sum of clip frames
minus one per seam) and crossfades a window centered on every seam.
Retiming applies a uniform time scale, clamped to [0.5, 2.0], then holds the
final pose or truncates so the clip covers the requested speech duration.
"""

from __future__ import annotations

import math

import numpy as np

from .bvh import GestureClip
from .curves import smoothstep
from .errors import ValidationError
from .quat import slerp

MIN_TIME_SCALE = 0.5
MAX_TIME_SCALE = 2.0

# slerp allocates its temporaries at the size of its input; blending in
# blocks of this many frames keeps them small on long tracks.
_BLOCK_FRAMES = 256


def _blend_into(root, rots, frames, src_root, src_rots, a_idx, b_idx, weights):
    """Lerp roots and slerp rotations from source frames a_idx to b_idx into
    `frames`."""
    for start in range(0, len(frames), _BLOCK_FRAMES):
        block = slice(start, start + _BLOCK_FRAMES)
        w = weights[block, np.newaxis]
        ia, ib = a_idx[block], b_idx[block]
        dst = frames[block]
        root[dst] = (1.0 - w) * src_root[ia] + w * src_root[ib]
        rots[dst] = slerp(src_rots[ia], src_rots[ib], w)


def stitch_clips(clips: list[GestureClip], blend_s: float) -> GestureClip:
    """Concatenate clips in order with a smoothstep slerp crossfade per seam.

    The clips, at least one, share one skeleton and frame rate, as every
    clip of a loaded gesture library does. The crossfade window at each
    seam is min(blend_s, half of either neighboring clip's duration),
    centered on the seam. Frames inside the window blend the outgoing clip
    (held at its end when the window runs past it) into the incoming clip
    (held at its start before its first frame).
    """
    first = clips[0]
    fps = first.fps
    # Baseline concatenation: the shared seam frame takes the incoming pose.
    root = np.concatenate(
        [c.root_positions[:-1] for c in clips[:-1]] + [clips[-1].root_positions]
    )
    rots = np.concatenate(
        [c.rotations[:-1] for c in clips[:-1]] + [clips[-1].rotations]
    )
    total_frames = rots.shape[0]

    # Every seam blends in one call. Its source frames are indexed in a
    # table that holds each distinct clip once, however often it repeats.
    distinct = {id(c): c for c in clips}
    offsets, table_frames = {}, 0
    for key, clip in distinct.items():
        offsets[key] = table_frames
        table_frames += clip.frame_count
    window_frames, out_idx, in_idx, ramps = [], [], [], []
    seam = 0
    for out_clip, in_clip in zip(clips, clips[1:]):
        out_start = seam
        seam += out_clip.frame_count - 1
        w = min(blend_s, out_clip.duration_s / 2.0, in_clip.duration_s / 2.0)
        if w <= 0.0:
            continue
        half_frames = w * fps / 2.0
        f_lo = max(0, int(math.ceil(seam - half_frames - 1e-9)))
        f_hi = min(total_frames - 1, int(math.floor(seam + half_frames + 1e-9)))
        frames = np.arange(f_lo, f_hi + 1)
        window_frames.append(frames)
        out_idx.append(offsets[id(out_clip)]
                       + np.minimum(frames - out_start, out_clip.frame_count - 1))
        in_idx.append(offsets[id(in_clip)] + np.maximum(frames - seam, 0))
        ramps.append(((frames - seam) / fps + w / 2.0) / w)
    if window_frames:
        _blend_into(root, rots, np.concatenate(window_frames),
                    np.concatenate([c.root_positions for c in distinct.values()]),
                    np.concatenate([c.rotations for c in distinct.values()]),
                    np.concatenate(out_idx), np.concatenate(in_idx),
                    smoothstep(np.concatenate(ramps)))

    return GestureClip(first.skeleton, fps, root, rots, "stitched")


def retime_to_speech(clip: GestureClip, speech_duration_s: float) -> GestureClip:
    """Uniformly rescale a clip to cover the speech duration.

    The time scale k = speech/clip duration is clamped to [0.5, 2.0]. The
    output always spans round(speech * fps) + 1 frames at the original fps:
    when the clamped motion runs out early the last pose is held, and when
    it would overrun it is truncated at speech end. A duration that gives
    fewer than 2 frames, zero and negative ones included, is rejected.
    """
    fps = clip.fps
    target_count = int(round(speech_duration_s * fps)) + 1
    if target_count < 2:
        raise ValidationError(
            f"speech duration {speech_duration_s}s at {fps} fps gives "
            f"{target_count} body frame, need at least 2"
        )
    k = speech_duration_s / clip.duration_s
    k = min(max(k, MIN_TIME_SCALE), MAX_TIME_SCALE)

    last = clip.frame_count - 1
    src = np.arange(target_count) / k
    held = src >= last - 1e-9
    lo = np.floor(src)
    frac = src - lo
    lo = np.where(held, last, lo).astype(np.intp)

    # Held frames and frames landing on a source frame copy that pose.
    root = clip.root_positions[lo]
    rots = clip.rotations[lo]
    between = np.flatnonzero(~held & (frac >= 1e-12))
    _blend_into(root, rots, between, clip.root_positions, clip.rotations,
                lo[between], lo[between] + 1, frac[between])

    return GestureClip(clip.skeleton, fps, root, rots, clip.source_id)
