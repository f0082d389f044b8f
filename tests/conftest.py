import numpy as np
import pytest

from pathlib import Path

from toonmotion.bvh import GestureClip, Joint, Skeleton
from toonmotion.gesture_retrieval import load_gesture_dataset
from toonmotion.providers import ReferenceEmbedder

FIXTURES = Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "goldens"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def goldens_dir() -> Path:
    return GOLDENS


@pytest.fixture(scope="session")
def embedder():
    return ReferenceEmbedder()


@pytest.fixture(scope="session")
def gesture_dataset(embedder):
    return load_gesture_dataset(FIXTURES / "gestures" / "gestures.jsonl", embedder)


def put(doc, path: tuple, value):
    """*doc* with the value at *path* (keys and indexes) replaced by *value*;
    the empty path replaces the whole document."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def make_skeleton(n_joints: int = 2) -> Skeleton:
    joints = [Joint("Hips", -1, np.array([0.0, 90.0, 0.0]), "ZXY")]
    for i in range(1, n_joints):
        joints.append(
            Joint(f"J{i}", i - 1, np.array([0.0, 10.0, 0.0]), "ZXY")
        )
    return Skeleton(joints)


def chain_bvh(n_joints: int) -> str:
    """A 2-frame BVH clip whose joints form one chain, each joint on 4 lines
    from line 2: the root's ROOT line, then joint i's JOINT line at
    2 + 4 * i."""
    lines = ["HIERARCHY", "ROOT J0", "{", "OFFSET 0 0 0",
             "CHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation"]
    for i in range(1, n_joints):
        lines += [f"JOINT J{i}", "{", "OFFSET 0 1 0",
                  "CHANNELS 3 Zrotation Xrotation Yrotation"]
    lines += ["}"] * n_joints
    frame = " ".join(["0"] * (3 + 3 * n_joints))
    lines += ["MOTION", "Frames: 2", "Frame Time: 0.0333333", frame, frame]
    return "\n".join(lines) + "\n"


def constant_clip(
    skeleton: Skeleton,
    quat_by_joint: np.ndarray,
    frame_count: int = 31,
    fps: float = 30.0,
    source_id: str = "clip",
) -> GestureClip:
    n = len(skeleton.joints)
    rotations = np.tile(np.asarray(quat_by_joint).reshape(1, n, 4), (frame_count, 1, 1))
    root = np.tile(np.array([0.0, 90.0, 0.0]), (frame_count, 1))
    return GestureClip(skeleton, fps, root, rotations, source_id)


def identity_quats(n_joints: int) -> np.ndarray:
    q = np.zeros((n_joints, 4))
    q[:, 0] = 1.0
    return q


def awkward_floats(rng, shape, scale: float) -> np.ndarray:
    """Floats that stress 6-decimal formatting, the kind chosen per element.

    Values within 1e-7 of zero (they print as "-0.000000" when negative),
    exact +/-0.0, values on half-micro rounding boundaries near zero and
    near whole degrees, and magnitudes up to *scale*.
    """
    choices = np.stack([
        rng.uniform(-1e-7, 1e-7, size=shape),
        np.where(rng.random(shape) < 0.5, -0.0, 0.0),
        (rng.integers(-10**6, 10**6, size=shape) + 0.5) * 1e-6,
        (rng.integers(-10**3, 10**3, size=shape) + 0.5) * 1e-6
        + rng.integers(-180, 180, size=shape),
        rng.uniform(-scale, scale, size=shape),
    ])
    pick = rng.integers(0, len(choices), size=shape)
    return np.take_along_axis(choices, pick[np.newaxis], axis=0)[0]


def angle_between(q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Geodesic rotation angle in radians between unit quaternions.

    Uses the atan2 form (4 * atan2(|q0 - q1|, |q0 + q1|) after sign
    alignment), which stays well conditioned near zero where arccos loses
    half the mantissa; identical inputs give exactly 0.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    dot = np.sum(q0 * q1, axis=-1, keepdims=True)
    q1 = np.where(dot < 0.0, -q1, q1)
    diff = np.linalg.norm(q0 - q1, axis=-1)
    summ = np.linalg.norm(q0 + q1, axis=-1)
    return 4.0 * np.arctan2(diff, summ)


def max_frame_jump(rotations: np.ndarray) -> float:
    """Largest per-joint geodesic rotation step between consecutive frames."""
    if rotations.shape[0] < 2:
        return 0.0
    steps = angle_between(rotations[:-1], rotations[1:])
    return float(np.max(steps))
