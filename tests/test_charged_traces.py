"""Pinned round/bit traces of the paths whose cost is mostly charged.

The weak-orientation waves, path-decomposition relays, dual-rounding bit
exchanges, primal convergecasts and cluster ORs are accounted centrally
rather than delivered by the engine, so only these pins catch a change in
what they charge. Each case records (rounds, max message bits, total bits,
number of violations).
"""

from fractions import Fraction

import pytest

from densub.detect_congest import approx_densest, congest_detect
from densub.graphs import complete, erdos_renyi
from densub.mwu import integral_primal
from densub.orient import (
    _split_edge_list,
    _weak_orient_edges,
    orient_low_outdegree_detailed,
)

G40 = erdos_renyi(40, 0.3, seed=0)


def _summary(trace):
    return (
        trace.rounds_executed,
        trace.max_message_bits,
        trace.total_bits,
        len(trace.violations),
    )


def _orient_k129():
    rep = orient_low_outdegree_detailed(
        complete(129), 128, Fraction(1, 4), T_override=64
    )
    return rep.trace


def _weak_g40():
    res = _weak_orient_edges(G40.n, [x for e in G40.edges for x in e])
    assert res.phases == 3
    return res.charge


def _split_g40():
    _o, trace = _split_edge_list(G40.n, list(G40.edges), Fraction(1, 8))
    return trace


def _primal_g40():
    _sub, trace = integral_primal(G40, 3, Fraction(1, 8), T_override=64)
    return trace


def _primal_capped():
    g = erdos_renyi(14, 0.6, seed=0)
    _sub, trace = integral_primal(
        g, 3, Fraction(1, 8), T_override=64, cap_bits=6
    )
    charged = [v for v in trace.violations if v[1] == -1]
    assert len(charged) == 5
    assert charged[0] == (2, -1, 8)
    return trace


def _congest_g40():
    _sub, trace = congest_detect(G40, Fraction(5, 2), Fraction(1, 8), 0)
    return trace


def _approx_g16():
    _sub, dhat, trace = approx_densest(
        erdos_renyi(16, 0.5, seed=0), Fraction(1, 8), 0
    )
    assert dhat == Fraction(45, 16)
    return trace


CASES = [
    ("orient_k129", _orient_k129, (3858, 14, 5_965_877, 0)),
    ("weak_g40", _weak_g40, (58, 9, 4_511, 0)),
    ("split_g40", _split_g40, (972, 9, 22_166, 0)),
    ("primal_g40", _primal_g40, (19, 9, 2_239, 0)),
    ("primal_capped", _primal_capped, (19, 8, 744, 33)),
    ("congest_g40", _congest_g40, (9171, 9, 49_567, 0)),
    ("approx_g16", _approx_g16, (511_341, 8, 36_872_272, 0)),
]


@pytest.mark.parametrize(
    "build,expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_charged_trace(build, expected):
    assert _summary(build()) == expected
