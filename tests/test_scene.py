import dataclasses

import numpy as np
import pytest

from pszsim.scene import (
    ListenerDisplacement,
    Scene,
    default_scene,
    move_listener,
    validate,
)


def test_default_scene_speaker_spacing():
    scene = default_scene()
    gaps = np.diff(scene.speakers[:, 0])
    assert scene.n_speakers == 8
    assert np.allclose(gaps, 0.25)
    assert np.allclose(scene.speakers[:, 1:], 0.0)


def test_default_scene_ear_spacing():
    scene = default_scene()
    for zone in (scene.zone_a, scene.zone_b):
        a, b = scene.control_points[list(zone)]
        assert np.linalg.norm(a - b) == pytest.approx(0.168, abs=1e-15)


def test_default_scene_zone_midpoints_one_meter_apart():
    scene = default_scene()
    mid_a = scene.control_points[list(scene.zone_a)].mean(axis=0)
    mid_b = scene.control_points[list(scene.zone_b)].mean(axis=0)
    assert np.linalg.norm(mid_a - mid_b) == pytest.approx(1.0, abs=1e-15)
    assert mid_a[1] == pytest.approx(1.0)  # one meter in front of the array


def test_default_scene_is_exactly_mirror_symmetric():
    scene = default_scene()
    # negating x maps speakers onto reversed speakers and zone A onto
    # reversed zone B, bit for bit
    assert np.array_equal(scene.speakers[::-1, 0], -scene.speakers[:, 0])
    a_pts = scene.control_points[list(scene.zone_a)]
    b_pts = scene.control_points[list(scene.zone_b)]
    assert np.array_equal(b_pts[::-1, 0], -a_pts[:, 0])
    assert np.array_equal(b_pts[:, 1:], a_pts[:, 1:])


def test_default_scene_channel_layout():
    scene = default_scene()
    assert scene.program_a == (0, 1)
    assert scene.program_b == (2, 3)
    assert scene.virtual_source_map == (0, 3, 4, 7)


def test_move_listener_zero_displacement_is_identity():
    scene = default_scene()
    moved = move_listener(scene, ListenerDisplacement("A", 0.0, 0.0))
    assert np.array_equal(moved.control_points, scene.control_points)
    assert moved.zone_a == scene.zone_a


def test_move_listener_shifts_rigidly():
    scene = default_scene()
    moved = move_listener(scene, ListenerDisplacement("A", -0.3, -0.2))
    idx = list(scene.zone_a)
    shift = moved.control_points[idx] - scene.control_points[idx]
    assert np.allclose(shift, [-0.3, -0.2, 0.0])
    # the other zone stays put
    other = list(scene.zone_b)
    assert np.array_equal(moved.control_points[other], scene.control_points[other])
    # inter-ear distance preserved to machine precision
    a, b = moved.control_points[idx]
    assert np.linalg.norm(a - b) == pytest.approx(0.168, abs=1e-15)


def test_move_listener_b_midpoint_moves():
    scene = default_scene()
    moved = move_listener(scene, ListenerDisplacement("B", 0.1, 0.0))
    mid_before = scene.control_points[list(scene.zone_b)].mean(axis=0)
    mid_after = moved.control_points[list(moved.zone_b)].mean(axis=0)
    assert mid_after[0] - mid_before[0] == pytest.approx(0.1, abs=1e-15)


def test_move_listener_unknown_id():
    with pytest.raises(ValueError, match="unknown listener"):
        move_listener(default_scene(), ListenerDisplacement("C", 0.1, 0.1))


def test_validate_default_scene_clean():
    assert validate(default_scene()) == []


def test_validate_reports_zone_overlap():
    scene = default_scene()
    broken = Scene(
        speakers=scene.speakers,
        control_points=scene.control_points,
        zone_a=(0, 1),
        zone_b=(0, 1),
        program_a=scene.program_a,
        program_b=scene.program_b,
        virtual_source_map=scene.virtual_source_map,
    )
    messages = validate(broken)
    assert any("share control point" in m for m in messages)
    assert any("not assigned" in m for m in messages)


def test_validate_reports_coincident_speaker_and_point():
    scene = default_scene()
    points = scene.control_points.copy()
    points[0] = scene.speakers[2]
    broken = Scene(
        speakers=scene.speakers,
        control_points=points,
        zone_a=scene.zone_a,
        zone_b=scene.zone_b,
        program_a=scene.program_a,
        program_b=scene.program_b,
        virtual_source_map=scene.virtual_source_map,
    )
    messages = validate(broken)
    assert any("coincides with speaker 2" in m for m in messages)


def test_validate_reports_bad_virtual_source():
    scene = default_scene()
    broken = Scene(
        speakers=scene.speakers,
        control_points=scene.control_points,
        zone_a=scene.zone_a,
        zone_b=scene.zone_b,
        program_a=scene.program_a,
        program_b=scene.program_b,
        virtual_source_map=(0, 3, 4, 99),
    )
    assert any("virtual source" in m for m in validate(broken))


FAR = [[-0.584, 1.0, 0.0], [-0.416, 1.0, 0.0], [0.416, 1.0, 0.0], [1e200, 1.0, 0.0]]


@pytest.mark.parametrize(
    "changes, violation",
    [
        ({"zone_a": ()}, "zone A has no control points"),
        ({"zone_b": ()}, "zone B has no control points"),
        ({"program_a": ()}, "program A has no channels"),
        ({"program_b": ()}, "program B has no channels"),
        ({"zone_b": (2, 3, 4)}, "zone indices out of range: [4]"),
        ({"program_b": (1, 2, 3)}, "programs A and B share channel(s) [1]"),
        ({"program_b": (2, 3, 4)}, "program channel indices out of range: [4]"),
        ({"control_points": FAR}, "control point(s) [3]: distance to a speaker overflows"),
    ],
    ids=["empty zone A", "empty zone B", "empty program A", "empty program B",
         "zone index out of range", "shared channel", "channel out of range", "far point"],
)
@pytest.mark.filterwarnings("error")  # an overflowing distance is reported, not warned about
def test_validate_reports_each_violation(changes, violation):
    assert violation in validate(dataclasses.replace(default_scene(), **changes))


def test_scene_arrays_are_read_only():
    scene = default_scene()
    with pytest.raises(ValueError):
        scene.speakers[0, 0] = 1.0
    with pytest.raises(ValueError):
        scene.control_points[0, 0] = 1.0


def test_scene_rejects_malformed_positions():
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        Scene(
            speakers=[[0.0, 0.0]],
            control_points=[[0.0, 1.0, 0.0]],
            zone_a=(0,),
            zone_b=(0,),
            program_a=(0,),
            program_b=(1,),
            virtual_source_map=(0, 0),
        )
