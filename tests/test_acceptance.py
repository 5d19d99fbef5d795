"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Each test drives a seeded sweep (or a direct golden check), prints its
verdict line on the real terminal even under pytest capture, and then
asserts.  Counts and tolerances follow the package's validation contract:
oracle sweeps run at 10,000 cases, schedule/abelian checks at 1,000,
recorded deletion games at 500, Eulerian instances at 100.
"""

from __future__ import annotations

import time

import pytest

from rotorchip.intlinalg import primitive_period_vector
from rotorchip.multigraph import DirectedMultigraph
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure, pi_r, reach_rotor, route
from rotorchip.sweeps import SWEEPS

SEED = 2026


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
        tag = "PASS" if ok else "FAIL"
        line = f"[{tag}] criterion {num:02d} {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


def _run_sweep(name: str, count: int, seed: int = SEED):
    report = SWEEPS[name](count=count, seed=seed)
    detail = f"{report.total} cases, {report.elapsed:.1f}s"
    return report, detail


def test_criterion_01_rotor_reach_oracle(announce) -> None:
    report, detail = _run_sweep("rotor-reach", 10_000)
    ok = report.ok and report.total >= 10_000 and report.elapsed < 600.0
    announce(1, "rotor reachability matches BFS oracle", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 10_000
    assert report.elapsed < 600.0


def test_criterion_02_chip_reach_oracle(announce) -> None:
    report, detail = _run_sweep("chip-reach", 10_000)
    ok = report.ok and report.total >= 10_000
    announce(2, "chip reachability matches BFS oracle", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 10_000


def test_criterion_03_odometer_formula(announce) -> None:
    report, detail = _run_sweep("odometer", 10_000)
    ok = report.ok and report.total >= 10_000
    announce(3, "odometer S1/S2 formula matches simulation", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 10_000


def test_criterion_04_abelian_schedules(announce) -> None:
    report, detail = _run_sweep("abelian", 1_000)
    ok = report.ok and report.total >= 1_000
    announce(4, "independently seeded maximal schedules agree", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 1_000


def test_criterion_05_deletion_property(announce) -> None:
    report, detail = _run_sweep("deletion", 500)
    ok = report.ok and report.total >= 500
    announce(5, "deletion-transformed sequences stay legal", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 500


def test_criterion_06_eulerian_periods(announce) -> None:
    report, detail = _run_sweep("eulerian", 100)
    ok = report.ok and report.total >= 100
    announce(6, "Eulerian instances have all-ones period, per = |V|", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 100


def test_criterion_07_exact_linalg(announce) -> None:
    report, detail = _run_sweep("reduce", 10_000)
    d21 = DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)])
    period_ok = primitive_period_vector(d21) == (1, 2)
    ok = report.ok and report.total >= 10_000 and period_ok
    announce(7, "exact solve/reduce invariants hold", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 10_000
    assert period_ok


def test_criterion_08_recurrence_triple(announce) -> None:
    report, detail = _run_sweep("recurrence", 2_000)
    ok = report.ok and report.total >= 2_000
    announce(8, "recurrence: engine, via-reach, BFS all agree", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 2_000


def test_criterion_09_halting_certificates(announce) -> None:
    report, detail = _run_sweep("halting", 1_000)
    ok = report.ok and report.total >= 1_000
    announce(9, "halting verdicts carry verified certificates", ok, detail)
    assert not report.failures, report.failures[:5]
    assert report.total >= 1_000


def test_criterion_10_golden_trace(announce) -> None:
    # Four-vertex demo: t=0, b=1, l=2, sink r=3; route l then t.
    g = DirectedMultigraph.from_edges(4, [
        (0, 2, 1), (0, 1, 1), (0, 3, 1),
        (1, 0, 1), (1, 2, 1), (1, 3, 1),
        (2, 1, 1), (2, 0, 1),
    ])
    ribbon = RibbonStructure(runs=(
        ((2, 1), (1, 1), (3, 1)),
        ((0, 1), (2, 1), (3, 1)),
        ((1, 1), (0, 1)),
        (),
    ))
    assert ribbon.graph == g
    left = ChipRotorConfig((0, 0, 1, 0), (0, 0, 0, None))
    middle = route(ribbon, left, 2)
    right = route(ribbon, middle, 0)
    verdict = reach_rotor(g, ribbon, left, right)
    ok = (
        middle == ChipRotorConfig((1, 0, 0, 0), (0, 0, 1, None))
        and right == ChipRotorConfig((0, 1, 0, 0), (1, 0, 1, None))
        and verdict.decision == "YES"
        and verdict.routing_vector == (1, 0, 1, 0)
    )
    announce(10, "golden trace reproduces demo panels", ok)
    assert middle == ChipRotorConfig((1, 0, 0, 0), (0, 0, 1, None))
    assert right == ChipRotorConfig((0, 1, 0, 0), (1, 0, 1, None))
    assert verdict.decision == "YES"
    assert verdict.routing_vector == (1, 0, 1, 0)


def test_criterion_11_succinct_performance(announce) -> None:
    big = 10 ** 18

    # Two-vertex instance: one run of multiplicity 10^18, full turn.
    pair = RibbonStructure(runs=(((1, big),), ((0, 1),)))
    assert pair.graph == DirectedMultigraph.from_edges(2, [(0, 1, big), (1, 0, 1)])
    start = ChipRotorConfig((big, 0), (0, 0))
    t0 = time.perf_counter()
    out_pair = pi_r(pair, start, (big, 0))
    elapsed_pair = time.perf_counter() - t0
    pair_ok = (
        elapsed_pair < 1.0
        and out_pair.chips == (0, big)
        and out_pair.rotors == (0, 0)
    )

    # Run-boundary case: runs ((u, 10^18), (w, 1)), r = 10^18.
    rib_big = RibbonStructure(runs=(((1, big), (2, 1)), ((0, 1),), ((0, 1),)))
    t0 = time.perf_counter()
    out_big = pi_r(rib_big, ChipRotorConfig((big, 0, 0), (0, 0, 0)), (big, 0, 0))
    elapsed_big = time.perf_counter() - t0
    big_ok = (
        elapsed_big < 1.0
        and out_big.chips == (0, big - 1, 1)
        and out_big.rotors == (big, 0, 0)
    )

    # Cross-check: the multiplicity-4 analog, simulated one step at a time,
    # shows the same outflow pattern with 4 substituted for 10^18.
    rib_small = RibbonStructure(runs=(((1, 4), (2, 1)), ((0, 1),), ((0, 1),)))
    cur = ChipRotorConfig((4, 0, 0), (0, 0, 0))
    for _ in range(4):
        cur = route(rib_small, cur, 0)
    analog_ok = cur.chips == (0, 4 - 1, 1) and cur.rotors == (4, 0, 0)

    ok = pair_ok and big_ok and analog_ok
    detail = f"pi_r at 1e18 in {max(elapsed_pair, elapsed_big) * 1000:.2f}ms"
    announce(11, "succinct pi_r runs in bit-length-polynomial time", ok, detail)
    assert pair_ok, (elapsed_pair, out_pair)
    assert big_ok, (elapsed_big, out_big)
    assert analog_ok, cur
