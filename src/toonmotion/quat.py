"""Quaternion helpers for joint rotations.

Quaternions are stored (w, x, y, z) in float64 numpy arrays. All functions
broadcast over leading dimensions, so a whole track of shape (frames, joints, 4)
goes through in one call. Euler angles are intrinsic, in the channel order of
a BVH joint ("ZXY" etc.).

Dot products and norms over the length-4 axis are written out as
``((a0*b0 + a1*b1) + a2*b2) + a3*b3`` (``_dot4``) instead of a per-row
``np.sum`` or ``np.linalg.norm``. That is the order numpy's ``add.reduce``
sums four values in, so results are bit-identical;
tests/test_fast_path_equivalence.py pins the order with rows where another
order rounds differently.

The Euler conversions give what ``Rotation`` 1.17 of ``spatial.transform``
gives. tests/test_bvh.py keeps that class as the oracle; nothing here
imports it, since its import alone takes about 0.4 s.

- ``euler_deg_to_quat`` is bit-identical to ``Rotation.from_euler(order,
  angles, degrees=True)`` on an array of three or more dimensions. It
  repeats that numpy code operation for operation: degrees times
  ``pi / 180``, one quaternion per axis built from zeros with the cosine and
  sine of half its angle, composed by ``_compose_xyzw`` with its cross
  product and its zero terms, so that signed zeros agree too. Parsed
  rotations are blended unrounded, so anything less would change bundle
  bytes.
- ``quat_to_euler_deg`` gives ZXY, the order BVH files are written in, and
  equals ``as_euler("ZXY", degrees=True)`` after ``np.round(..., 6)``, the
  rounding the writer applies. It uses a closed form: the middle angle is
  the arcsine of ``s = 2(yz + wx) / |q|^2`` and the other two are
  arctangents. Its error is a few ulps times ``1 / sqrt(1 - s^2)``, the
  condition of the arcsine at ``s`` and of the arctangents, whose arguments
  shrink with the cosine of the middle angle. Outside the band
  ``|s| > 1 - 1e-7`` that factor is at most about 2,240, and 1.7e5
  rotations built next to the band's edge were at most 4.3e-11 degrees off
  the oracle. So the two round alike unless an angle lies within
  ``_TIE_DEG`` (1e-9 degrees) of a 6-decimal rounding tie, or of +-180
  degrees, where the oracle's wrap may pick the other sign. Rows in the
  band or with such an angle, gimbal lock included, are recomputed by
  ``_euler_zxy_exact``, a port of the oracle's compiled per-rotation loop
  that is bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np

_NLERP_DOT_THRESHOLD = 1.0 - 1e-9

# Where quat_to_euler_deg leaves its closed form for the exact path: |s|
# above _GIMBAL_BAND, or an angle within _TIE_DEG of a rounding tie or of
# +-180 degrees.
_GIMBAL_BAND = 1.0 - 1e-7
_TIE_DEG = 1e-9

# Positions of the axes in the oracle's (x, y, z, w) layout.
_AXES = {"X": 0, "Y": 1, "Z": 2}

# libm's atan2, one Python call per value. numpy's vectorized arctan2
# differs from it in the last bit on some inputs, and the exact path must
# match the oracle's compiled code, which calls libm. (np.hypot is libm's.)
_libm_atan2 = np.frompyfunc(math.atan2, 2, 1)


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


def _compose_xyzw(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The product p q of (x, y, z, w) quaternions, term for term as the oracle."""
    cross = np.linalg.cross(p[..., :3], q[..., :3])
    qx = p[..., 3] * q[..., 0] + q[..., 3] * p[..., 0] + cross[..., 0]
    qy = p[..., 3] * q[..., 1] + q[..., 3] * p[..., 1] + cross[..., 1]
    qz = p[..., 3] * q[..., 2] + q[..., 3] * p[..., 2] + cross[..., 2]
    qw = (p[..., 3] * q[..., 3] - p[..., 0] * q[..., 0]
          - p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2])
    return np.stack([qx, qy, qz, qw], axis=-1)


def euler_deg_to_quat(angles_deg: np.ndarray, order: str) -> np.ndarray:
    """Intrinsic euler angles in degrees (per `order`) to (w,x,y,z) quats.

    `angles_deg` has shape (..., 3) with components in the same order as the
    `order` string, exactly as they appear in a BVH MOTION row.
    """
    angles = np.asarray(angles_deg, dtype=np.float64) * (np.pi / 180.0)
    xyzw = None
    for n, axis in enumerate(order.upper()):
        half = angles[..., n] / 2.0
        elementary = np.zeros(half.shape + (4,))
        elementary[..., 3] = np.cos(half)
        elementary[..., _AXES[axis]] = np.sin(half)
        xyzw = elementary if xyzw is None else _compose_xyzw(xyzw, elementary)
    return canonicalize(np.roll(xyzw, 1, axis=-1))


def quat_to_euler_deg(q: np.ndarray) -> np.ndarray:
    """(w,x,y,z) quats to intrinsic ZXY euler angles in degrees, (..., 3).

    Equal to the oracle's after rounding to 6 decimals; see the module docstring.
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm2 = (ww + xx) + (yy + zz)
    if not norm2.all():
        raise ValueError("cannot convert a zero quaternion")
    s = 2.0 * (y * z + w * x) / norm2
    ww_xx, yy_zz = ww - xx, yy - zz
    angles = np.stack([
        np.arctan2(2.0 * (w * z - x * y), ww_xx + yy_zz),
        np.arcsin(np.clip(s, -1.0, 1.0)),
        np.arctan2(2.0 * (w * y - x * z), ww_xx - yy_zz),
    ], axis=-1)
    np.rad2deg(angles, out=angles)
    # np.round(v, 6) rounds v * 1e6 to an integer.
    millionths = angles * 1e6
    near = np.abs(millionths - np.rint(millionths)) > 0.5 - _TIE_DEG * 1e6
    near |= np.abs(angles) > 180.0 - _TIE_DEG
    exact = np.abs(s) > _GIMBAL_BAND
    exact |= near[..., 0] | near[..., 1] | near[..., 2]
    if exact.any():
        angles[exact] = _euler_zxy_exact(q[exact])
    return angles


def _euler_zxy_exact(q: np.ndarray) -> np.ndarray:
    """(n, 4) (w,x,y,z) quats to ZXY degrees, operation for operation as
    the oracle's compiled ``as_euler("ZXY", degrees=True)``."""
    w, x, y, z = q.T
    norm = np.sqrt(((x * x + y * y) + z * z) + w * w)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    # Intrinsic ZXY is extrinsic YXZ, an odd permutation of the axes.
    a, b, c, d = w - x, y - z, x + w, -z - y
    middle = 2.0 * _libm_atan2(np.hypot(c, d), np.hypot(a, b)).astype(np.float64)
    half_sum = _libm_atan2(b, a).astype(np.float64)
    half_diff = _libm_atan2(d, c).astype(np.float64)
    # A middle angle within 1e-7 rad of 0 or pi is gimbal lock: the third
    # angle is set to 0 and the first carries the whole turn.
    at_zero = np.abs(middle) <= 1e-7
    locked = at_zero | (np.abs(middle - np.pi) <= 1e-7)
    first = np.where(locked, 2.0 * np.where(at_zero, half_sum, half_diff),
                     half_sum + half_diff)
    third = np.where(locked, 0.0, half_sum - half_diff)
    angles = np.stack([-first, middle - np.pi / 2, third], axis=-1)
    angles[angles < -np.pi] += 2 * np.pi
    angles[angles > np.pi] -= 2 * np.pi
    return np.rad2deg(angles)


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
