from __future__ import annotations

import sys

import pytest

from rotorchip import chipfiring, cli, intlinalg, multigraph, rotorrouting
from rotorchip.multigraph import DirectedMultigraph
from rotorchip.rotorrouting import ChipRotorConfig, RibbonStructure


@pytest.fixture
def digit_limit():
    """CPython's default int-string limit, 4300 digits, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def forbid_connectivity_passes(monkeypatch):
    """A call after which every connectivity pass raises.

    scc_decompose, is_strongly_connected and strongly_connected_balance
    are replaced in every module that binds them.
    """
    def refuse(g: DirectedMultigraph):
        raise AssertionError("connectivity pass")

    def forbid() -> None:
        for module in (multigraph, intlinalg, chipfiring, rotorrouting, cli):
            for name in ("scc_decompose", "is_strongly_connected", "strongly_connected_balance"):
                if name in vars(module):
                    monkeypatch.setattr(module, name, refuse)

    return forbid


@pytest.fixture
def c2() -> DirectedMultigraph:
    """Directed 2-cycle: one edge each way."""
    return DirectedMultigraph.from_edges(2, [(0, 1, 1), (1, 0, 1)])


@pytest.fixture
def d21() -> DirectedMultigraph:
    """Two vertices, double edge 0->1, single edge 1->0."""
    return DirectedMultigraph.from_edges(2, [(0, 1, 2), (1, 0, 1)])


@pytest.fixture
def d21_ribbon() -> RibbonStructure:
    return RibbonStructure(runs=(((1, 2),), ((0, 1),)))


# Four-vertex demo instance: vertices t=0, b=1, l=2 and a sink r=3.
# Ribbon orders: t -> (l, b, r), b -> (t, l, r), l -> (b, t).
FIG_EDGES = [
    (0, 2, 1), (0, 1, 1), (0, 3, 1),
    (1, 0, 1), (1, 2, 1), (1, 3, 1),
    (2, 1, 1), (2, 0, 1),
]


@pytest.fixture
def fig1() -> DirectedMultigraph:
    return DirectedMultigraph.from_edges(4, FIG_EDGES)


@pytest.fixture
def fig1_ribbon() -> RibbonStructure:
    return RibbonStructure(runs=(
        ((2, 1), (1, 1), (3, 1)),
        ((0, 1), (2, 1), (3, 1)),
        ((1, 1), (0, 1)),
        (),
    ))


@pytest.fixture
def fig1_left() -> ChipRotorConfig:
    return ChipRotorConfig(chips=(0, 0, 1, 0), rotors=(0, 0, 0, None))


@pytest.fixture
def fig1_middle() -> ChipRotorConfig:
    return ChipRotorConfig(chips=(1, 0, 0, 0), rotors=(0, 0, 1, None))


@pytest.fixture
def fig1_right() -> ChipRotorConfig:
    return ChipRotorConfig(chips=(0, 1, 0, 0), rotors=(1, 0, 1, None))
