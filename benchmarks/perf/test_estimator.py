"""Self-test of the estimators on synthetic samples with the two kinds of host
noise measured while sizing the benchmark: a 17 % machine-phase drift and a
persistent 4x slow mode in one of three processes."""

import random
import statistics

import estimator


def _process(rng, reps, base_s, calib_s, drift=1.0, mode=1.0):
    """Raw walls of one process: every wall (repetition and calibration alike)
    is stretched by ``drift``; only repetitions are stretched by ``mode``."""
    walls = [base_s * drift * mode * rng.uniform(0.97, 1.03) for _ in range(reps)]
    calibs = [calib_s * drift * rng.uniform(0.99, 1.01) for _ in range(reps + 1)]
    return walls, calibs


def test_calibration_removes_machine_phase_drift():
    rng = random.Random(7)
    steady = _process(rng, 40, 0.150, 0.005)
    drifted = _process(rng, 40, 0.150, 0.005, drift=1.17)
    raw_shift = statistics.median(drifted[0]) / statistics.median(steady[0]) - 1
    cal_shift = (statistics.median(estimator.calibrated_costs(*drifted))
                 / statistics.median(estimator.calibrated_costs(*steady)) - 1)
    assert raw_shift > 0.15
    assert abs(cal_shift) < 0.02


def test_pooling_survives_a_persistent_slow_mode_single_process_does_not():
    rng = random.Random(11)
    clean = [estimator.calibrated_costs(*_process(rng, 40, 0.150, 0.005)) for _ in range(3)]
    # the same three processes, but the second one is stuck in a 4x slow mode
    # and the third one ran during a 17 % drift phase
    noisy = [
        estimator.calibrated_costs(*_process(rng, 40, 0.150, 0.005)),
        estimator.calibrated_costs(*_process(rng, 40, 0.150, 0.005, mode=4.0)),
        estimator.calibrated_costs(*_process(rng, 40, 0.150, 0.005, drift=1.17)),
    ]
    reference = estimator.pooled(clean)
    pooled = estimator.pooled(noisy)
    assert abs(pooled["median"] / reference["median"] - 1) < 0.05
    assert abs(pooled["p25"] / reference["p25"] - 1) < 0.05
    assert statistics.median(noisy[1]) / reference["median"] > 3.5
    assert pooled["samples"] == 120 and pooled["processes"] == 3
    # a 4x mode on a third of the samples shows in the convoy ratio instead
    assert pooled["mean"] / pooled["p25"] > 1.8


def test_percentile_is_only_quoted_with_ten_samples_beyond_it():
    assert estimator.pooled([[float(i) for i in range(40)]])["p90"] is None
    many = estimator.pooled([[float(i) for i in range(200)]])
    assert many["p90"] is not None and many["beyond_p90"] >= 10


def test_calibration_pairs_are_adjacent():
    costs = estimator.calibrated_costs([1.0, 3.0], [0.5, 0.5, 1.5])
    assert costs == [2.0, 3.0]
    try:
        estimator.calibrated_costs([1.0], [0.5])
    except ValueError:
        pass
    else:
        raise AssertionError("one calibration per side is required")


def test_calibration_kernel_runs_and_is_positive():
    assert estimator.calibration_kernel() > 0.0
