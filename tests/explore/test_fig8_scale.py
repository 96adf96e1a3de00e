"""The Fig 8 lock kernel at 256 images under ``VirtualTimeOrder``, pinned.

``golden_traces.json`` pins the deterministic order at 8 and 48 images;
this cell pins it where the order's per-decision cost starts to matter
(Titan, UHCAF-Cray-SHMEM, 256 images × 8 acquires, ``engine="vt"``).
The counters, the sha256 of the choice list and the elapsed virtual
microseconds were recorded before the ready heap replaced the choice
list under ``VirtualTimeOrder``; any change to which PE runs when moves
at least one of them.
"""

from tests.explore.test_golden_traces import _sha, run_fig8

GOLDEN_256x8 = {
    "stats": {"steps": 25842, "switches": 13318, "deliveries": 4094, "parks": 3578,
              "polls": 10975, "wakes": 3578, "dirty": 7397, "max_parked": 255},
    "trace_sha256": "b22fd963238a169c5f67a0288239abb0429bff05c6af61fe6c63dc307f1e9729",
    "virtual_us": 9889.557107154076,
}


def test_fig8_256_images_schedule_is_pinned():
    sched, virtual_us = run_fig8(256, 8)
    assert {
        "stats": sched.stats,
        "trace_sha256": _sha(",".join(sched.trace)),
        "virtual_us": virtual_us,
    } == GOLDEN_256x8
