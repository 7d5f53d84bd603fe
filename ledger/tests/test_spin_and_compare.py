"""Spin normalisation and compare.py verdicts, on synthetic numbers."""

import copy

import pytest

from ledger import compare, metrics, spin


def _marks(*slices):
    """(starts, ends) from (start, duration) pairs."""
    return [s for s, __ in slices], [s + d for s, d in slices]


def test_reference_seconds_are_host_seconds_at_reference_speed():
    ref = spin.SLICE_REF_S
    starts, ends = _marks((0.0, ref), (2.0 + ref, ref))
    assert spin.reference_seconds(starts, ends, 0, 1) == pytest.approx(2.0)


def test_normalisation_cancels_a_uniformly_slower_host():
    # 30 000 records in 2 s at reference speed; on a host running 1.5x
    # slower the work takes 3 s and every slice takes 1.5x as long.
    slow = 1.5 * spin.SLICE_REF_S
    starts, ends = _marks((0.0, slow), (3.0 + slow, slow))
    seconds = spin.reference_seconds(starts, ends, 0, 1)
    assert 30000 / seconds == pytest.approx(30000 / 2.0)


def test_each_stretch_is_divided_by_the_speed_its_own_slices_saw():
    # 1 s of work at reference speed, then 2 s on a host twice as slow.
    ref = spin.SLICE_REF_S
    starts, ends = _marks(
        (0.0, ref), (1.0 + ref, ref), (3.5, 2 * ref), (6.0, 2 * ref)
    )
    first = spin.reference_seconds(starts, ends, 0, 1)
    third = spin.reference_seconds(starts, ends, 2, 3)
    assert first == pytest.approx(1.0)
    assert third == pytest.approx((6.0 - 3.5 - 2 * ref) / 2.0)
    assert spin.reference_seconds(starts, ends, 0, 3) > first + third


def test_a_slice_hit_by_a_preemption_is_read_as_typical():
    ref = spin.SLICE_REF_S
    clean = _marks((0.0, ref), (1.0, ref), (2.0, ref), (3.0, ref))
    hit = _marks((0.0, ref), (1.0, ref), (2.0, 10 * ref), (3.0 + 9 * ref, ref))
    assert spin.reference_seconds(*hit, 0, 3) == pytest.approx(
        spin.reference_seconds(*clean, 0, 3)
    )


def test_pacer_skips_slices_while_the_last_is_fresh():
    pacer = spin.Pacer()
    first = pacer.mark()
    pacer.pace()  # within MIN_GAP_S of the mark: skipped
    assert len(pacer.ends) == first + 1 == 1
    last = pacer.mark()
    assert pacer.host_seconds(first, last) >= 0
    assert pacer.reference_seconds(first, last) >= 0
    assert all(duration > 0 for duration in pacer.durations())


def test_noisy_means_the_speed_moved_more_than_15_percent():
    assert not spin.is_noisy([1.00, 1.05, 1.10])
    assert spin.is_noisy([1.00, 1.05, 1.25])
    assert not spin.is_noisy([1.00])
    assert spin.summary([0.1, 0.2, 0.3])["median"] == pytest.approx(200.0)


def test_verdicts_respect_direction_and_bound():
    assert compare.verdict(100.0, 95.0, "higher", 0.10) == "within"
    assert compare.verdict(100.0, 89.0, "higher", 0.10) == "WORSE"
    assert compare.verdict(100.0, 111.0, "higher", 0.10) == "better"
    assert compare.verdict(2.0, 2.3, "lower", 0.10) == "WORSE"
    assert compare.verdict(2.0, 1.7, "lower", 0.10) == "better"
    assert compare.verdict(0.0, 0.0, "lower", 0.10) == "within"


def _row(**values):
    base = {
        "setup_s": 0.4, "norm_records_per_s": 12000.0, "norm_commands_per_s": 20.0,
        "norm_pack_records_per_s": 60000.0, "bytes_per_record": 68.4,
        "records_committed": 30069, "peak_rss_mb": 150.0,
    }
    base.update(values)
    units = metrics.units()
    return {
        "workload": "farm_live", "trace": False, "noisy": False,
        "attempted": 1000, "failed": 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in base.items()},
    }


def _outcomes(old, new):
    lines, regressed = compare.compare_rows(old, new, metrics.bounds())
    return {name: outcome for name, __, __, outcome in lines}, regressed


def test_compare_flags_a_regression_beyond_the_bound():
    outcomes, regressed = _outcomes(_row(), _row(norm_records_per_s=10000.0))
    assert outcomes["norm_records_per_s"] == "WORSE" and regressed
    outcomes, regressed = _outcomes(_row(), _row(norm_records_per_s=11500.0))
    assert outcomes["norm_records_per_s"] == "within" and not regressed
    assert outcomes["records_committed"] == "identical"


def test_compare_is_unresolved_when_noisy_or_exact_columns_differ():
    noisy = _row(norm_records_per_s=10000.0)
    noisy["noisy"] = True
    outcomes, regressed = _outcomes(_row(), noisy)
    assert outcomes["norm_records_per_s"] == "unresolved" and not regressed
    outcomes, __ = _outcomes(_row(), _row(bytes_per_record=68.5))
    assert outcomes["norm_records_per_s"] == "unresolved"
    assert outcomes["bytes_per_record"].endswith("(exact metric changed)")


def test_compare_refuses_rows_that_did_different_work():
    outcomes, regressed = _outcomes(_row(), _row(records_committed=30070))
    assert list(outcomes) == ["records_committed"]
    assert outcomes["records_committed"].startswith("REFUSED") and not regressed


def test_more_failed_operations_is_always_a_regression():
    worse = copy.deepcopy(_row())
    worse["failed"] = 1
    outcomes, regressed = _outcomes(_row(), worse)
    assert outcomes["ops_failed_frac"] == "WORSE" and regressed
    document = {"rows": [_row()]}
    report, status = compare.compare_documents(
        document, {"rows": [worse]}, metrics.bounds()
    )
    assert status == 1 and "ops_failed_frac" in report
    assert compare.compare_documents(document, document, metrics.bounds())[1] == 0
