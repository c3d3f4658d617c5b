"""JSON files of reduction scenes.

``scene_to_json`` writes a ReductionScene with its manifest, sampled
points and derived data; ``scene_from_json`` reads it back and raises
ValueError on any malformed file.  Kept apart from ``reduction`` so that
runs which never read or write scene files do not load it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import SplitQuaternion
from .linalg import PQVector
from .projspace import SpherePoint
from .reduction import (FLAT_LEVEL, LEVELS, ReductionScene, _weights,
                        flat_circle_moment)


def scene_to_json(scene: ReductionScene) -> str:
    """Exact coordinates are written as rational strings, float ones as
    JSON numbers (which round-trip exactly)."""
    def encode_point(pt):
        if isinstance(pt, SpherePoint):
            pt = pt.x
        return [[x if isinstance(x, float) else str(x)
                 for x in h.coefficients()] for h in pt.entries]

    def plain(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, tuple):
            return [plain(v) for v in value]
        if isinstance(value, list):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    payload = {
        "manifest": scene.manifest(),
        "points": [encode_point(p) for p in scene.points],
        "derived": plain(scene.derived),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def scene_from_json(text: str) -> ReductionScene:
    """Inverse of scene_to_json.  A malformed scene raises ValueError:
    invalid JSON, a missing key, an unknown action, weights or a rank the
    action does not allow, a level that does not match the action, a
    point without `rank` entries or an entry without four coefficients, a
    coordinate that is neither a rational string nor a number, an
    off-sphere point of the pq scene (a float point within the reader's
    bound ReductionScene.tolerance = 1e-9, whatever the manifest's
    `tolerance`), and a point of the flat scene that is not exact
    (rational strings) or lies off its level set FLAT_LEVEL."""
    try:
        return _scene_from_payload(json.loads(text))
    except (KeyError, TypeError, ZeroDivisionError) as err:
        raise ValueError(f"malformed scene: {type(err).__name__} {err}") from err


def _scene_from_payload(payload) -> ReductionScene:
    man = payload["manifest"]
    scene = ReductionScene(
        action=man["action"], rank=man["rank"], p=man["p"], q=man["q"],
        seed=man["seed"], tolerance=man["tolerance"])
    if scene.action not in LEVELS:
        raise ValueError(f"unknown action {scene.action!r}")
    if scene.action == "pq":
        _weights(scene.p, scene.q)
        if scene.rank != 3:
            raise ValueError(f"the pq scene has rank 3, not {scene.rank!r}")
    if tuple(Fraction(x) for x in man["xi"]) != scene.xi:
        raise ValueError(f"manifest level {man['xi']} does not match "
                         f"action {scene.action!r}")
    for coords in payload["points"]:
        if len(coords) != scene.rank or any(len(h) != 4 for h in coords):
            raise ValueError(f"point {coords!r} is not {scene.rank!r} "
                             f"entries of four coefficients")
        vec = PQVector(SplitQuaternion(*map(_coordinate, h)) for h in coords)
        if scene.action == "pq":
            floating = isinstance(vec.entries[0].a, float)
            # the bound of float points is the reader's, not the file's
            scene.points.append(SpherePoint(
                vec, tol=ReductionScene.tolerance if floating else 0))
        elif any(not isinstance(c, str) for h in coords for c in h) \
                or flat_circle_moment(vec) != FLAT_LEVEL:
            raise ValueError(f"point {coords!r} is not an exact point of "
                             f"the flat level set")
        else:
            scene.points.append(vec)
    scene.derived = payload["derived"]
    return scene


def _coordinate(c):
    """A point coordinate: a rational string (exact) or a JSON number."""
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, bool) or not isinstance(c, (int, float)):
        raise ValueError(f"coordinate {c!r} is neither a rational string "
                         f"nor a number")
    return float(c)
