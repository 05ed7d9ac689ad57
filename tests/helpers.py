"""Fixtures that only the tests need."""

import math

import numpy as np


def junction_label_maps(angles_deg, size: int = 41, ray_len: int = 14):
    """Contour/segment maps of rays meeting at the center.

    One contour id per ray; segment ids fill the angular sectors between
    consecutive rays. Useful for exercising the junction classifier on
    T, Y, arrow and plus configurations.
    """
    center = size // 2
    contours = np.zeros((size, size), dtype=np.int64)
    for cid, deg in enumerate(angles_deg, start=1):
        phi = math.radians(deg)
        for t in range(1, ray_len + 1):
            r = center + int(round(t * math.sin(phi)))
            c = center + int(round(t * math.cos(phi)))
            if 0 <= r < size and 0 <= c < size:
                contours[r, c] = cid
    segments = np.zeros((size, size), dtype=np.int64)
    rr, cc = np.mgrid[0:size, 0:size]
    ang = np.degrees(np.arctan2(rr - center, cc - center)) % 360.0
    bounds = sorted(a % 360.0 for a in angles_deg)
    segments[:] = len(bounds)
    for rid in range(len(bounds) - 1):
        segments[(ang >= bounds[rid]) & (ang < bounds[rid + 1])] = rid + 1
    return contours, segments
