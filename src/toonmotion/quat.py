"""Quaternion helpers for joint rotations.

Quaternions are stored (w, x, y, z) in float64 numpy arrays. All functions
broadcast over leading dimensions, so a whole track of shape (frames, joints, 4)
goes through in one call. Euler conversions delegate to scipy and use
intrinsic rotation orders ("ZXY" etc., matching BVH channel order).

Dot products and norms over the length-4 axis are written out as
``((a0*b0 + a1*b1) + a2*b2) + a3*b3`` (``_dot4``) instead of a per-row
``np.sum`` or ``np.linalg.norm``. That is the order numpy's ``add.reduce``
sums four values in, so results are bit-identical;
tests/test_fast_path_equivalence.py pins the order with rows where another
order rounds differently.
"""

from __future__ import annotations

import warnings

import numpy as np

_NLERP_DOT_THRESHOLD = 1.0 - 1e-9


def _dot4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last, length-4 axis, keeping it as length 1."""
    p = a * b
    dot = p[..., 0:1] + p[..., 1:2]
    dot += p[..., 2:3]
    dot += p[..., 3:4]
    return dot


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    norm = np.sqrt(_dot4(q, q))
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm

def canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0 (quaternion double cover)."""
    q = np.asarray(q, dtype=np.float64)
    flip = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * flip


def euler_deg_to_quat(angles_deg: np.ndarray, order: str) -> np.ndarray:
    """Intrinsic euler angles in degrees (per `order`) to (w,x,y,z) quats.

    `angles_deg` has shape (..., 3) with components in the same order as the
    `order` string, exactly as they appear in a BVH MOTION row.
    """
    # scipy is imported here, not at module level: it takes about 0.4 s, and
    # commands that convert no rotation should not pay for it.
    from scipy.spatial.transform import Rotation

    angles = np.asarray(angles_deg, dtype=np.float64)
    # scipy 1.17 sends a 2-D (N, 3) array through its Cython backend, one
    # rotation at a time (about 2 us each), and an array of three or more
    # dimensions through its vectorized numpy backend, several times faster
    # on long clips. The extra axis only picks the backend: both give
    # bit-identical quaternions, which tests/test_bvh.py pins for each order.
    rows = angles.reshape(-1, 1, 3)
    xyzw = Rotation.from_euler(order.upper(), rows, degrees=True).as_quat()
    xyzw = xyzw.reshape(-1, 4)
    wxyz = np.concatenate([xyzw[:, 3:4], xyzw[:, :3]], axis=1)
    return canonicalize(wxyz.reshape(angles.shape[:-1] + (4,)))


def quat_to_euler_deg(q: np.ndarray, order: str) -> np.ndarray:
    """(w,x,y,z) quats to intrinsic euler angles in degrees (per `order`)."""
    from scipy.spatial.transform import Rotation

    q = np.asarray(q, dtype=np.float64)
    flat = q.reshape(-1, 4)
    xyzw = np.concatenate([flat[:, 1:4], flat[:, 0:1]], axis=1)
    with warnings.catch_warnings():
        # With the middle angle at +-90 degrees scipy warns that it sets the
        # third angle to zero. The angles it returns still describe the same
        # rotation, so the warning says nothing a caller can act on.
        warnings.filterwarnings("ignore", message="Gimbal lock detected",
                                category=UserWarning)
        angles = Rotation.from_quat(xyzw).as_euler(order.upper(), degrees=True)
    return angles.reshape(q.shape[:-1] + (3,))


def slerp(q0: np.ndarray, q1: np.ndarray, t) -> np.ndarray:
    """Shortest-arc spherical interpolation, broadcasting over leading dims.

    `t` may be a scalar or an array broadcastable against the quats' leading
    shape. Inputs are assumed unit length; nearly parallel pairs fall back to
    normalized lerp.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)[..., np.newaxis]

    dot = _dot4(q0, q1)
    q1 = np.where(dot < 0.0, -q1, q1)
    dot = np.abs(dot, out=dot)

    # Stable angles; each weight is computed in its own buffer.
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    sin_theta[sin_theta < 1e-12] = 1.0
    s = 1.0 - t
    w0 = s * theta
    np.sin(w0, out=w0)
    w0 /= sin_theta
    w1 = t * theta
    np.sin(w1, out=w1)
    w1 /= sin_theta

    # Nearly parallel pairs take normalized lerp: their weights, one per
    # row, become 1 - t and t.
    near = dot > _NLERP_DOT_THRESHOLD
    out = np.where(near, s, w0) * q0
    out += np.where(near, t, w1) * q1
    return normalize(out)
