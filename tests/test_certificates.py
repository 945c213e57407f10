"""The guarantee certificates and checks can fire.

Each row corrupts what one check judges, the selection a certificate
judges, the coloring the class sweep gets, the edges a sweep takes, the
buckets a builder cuts or the mixed sum a cap scales, through a
monkeypatch on the call that hands it over, and the check must raise its
message. No check is loosened: the corrupted runs go through the
library's own code up to the check.
"""

import dataclasses

import numpy as np
import pytest

import dpar.hitting
import dpar.matching
import dpar.mis
import dpar.rounding
from dpar.generate import complete_graph
from dpar.hitting import BipartiteInstance, hitting_set
from dpar.matching import maximal_matching
from dpar.mis import MisAuxInstance, core_mis_hitting, edge_buckets, maximal_independent_set
from dpar.rounding import CliqueGroup, RoundingInstance, local_round, max_cut_half


def corrupt_rounding(monkeypatch, module, select):
    """Make module's local_round return select(in_set) as its selection."""
    real = dpar.rounding.local_round

    def corrupted(inst, work=None):
        res = real(inst, work=work)
        return dataclasses.replace(res, in_set=select(res.in_set))

    monkeypatch.setattr(module, "local_round", corrupted)


def rounding_certificate(monkeypatch):
    """Two nodes with utility 1 and a pair cost of 10: the objective is
    judged on the set that takes both, 2 - 10, below the bound
    1 - (1/4 + eps) * 10."""
    real = dpar.rounding.evaluate_objective
    monkeypatch.setattr(
        dpar.rounding, "evaluate_objective", lambda inst, in_set: real(inst, np.ones_like(in_set))
    )
    inst = RoundingInstance(
        utils=np.ones(2), cost_i=np.array([0]), cost_j=np.array([1]), cost_c=np.array([10.0]), eps=0.1
    )
    local_round(inst)


def potential_certificate(monkeypatch):
    """Two watchers of 90 candidates at level 5 fill high-regime buckets;
    a halving that keeps no candidate leaves both watchers unhit."""
    corrupt_rounding(monkeypatch, dpar.hitting, np.zeros_like)
    n = 90
    inst = BipartiteInstance(
        imp=np.ones(2),
        levels=np.full(n, 5),
        edge_u=np.repeat([0, 1], n),
        edge_v=np.tile(np.arange(n), 2),
        size_param=1 << 16,
    )
    hitting_set(inst)


def cut_certificate(monkeypatch):
    """A side that holds no node cuts nothing of K5's 10 edges."""
    corrupt_rounding(monkeypatch, dpar.rounding, np.zeros_like)
    max_cut_half(complete_graph(5), 0.25)


def clique_class_check(monkeypatch):
    """A layout that puts every node in class 0 puts the three members
    of a bucket clique in one class, which the class sweep refuses."""
    monkeypatch.setattr(
        dpar.rounding, "layout_start", lambda n, w: (np.zeros(n, dtype=np.int64), 1)
    )
    group = CliqueGroup(members=np.array([2, 0, 1]), coefs=np.array([1.0]), b=3)
    inst = RoundingInstance(
        utils=np.full(4, 2.0), cost_i=np.array([0]), cost_j=np.array([3]), cost_c=np.array([1.0]),
        eps=0.1, cliques=[group],
    )
    local_round(inst)


def matching_sweep_progress(monkeypatch):
    """A sweep whose extraction takes none of K5's selected edges matches
    nothing."""
    real = dpar.matching._extract_matching

    def take_nothing(e_u, e_v, n, work):
        taken, col = real(e_u, e_v, n, work)
        return np.zeros_like(taken), col

    monkeypatch.setattr(dpar.matching, "_extract_matching", take_nothing)
    maximal_matching(complete_graph(5))


def mis_sweep_progress(monkeypatch):
    """A class sweep that keeps no node leaves the MIS sweep with nothing
    chosen."""
    real = dpar.mis.greedy_classes
    monkeypatch.setattr(dpar.mis, "greedy_classes", lambda *args: np.zeros_like(real(*args)))
    maximal_independent_set(complete_graph(5))


def edge_bucket_leftover(monkeypatch):
    """A bucket builder that cuts no bucket leaves all 10 edges of K5 over,
    at least b^3 = 8 for b = 2."""
    monkeypatch.setattr(
        dpar.mis,
        "_group_full_buckets",
        lambda *args, **kw: (np.zeros(0, dtype=np.int64), None, None),
    )
    i, j = np.triu_indices(5, k=1)
    edge_buckets(5, i, j, 2)


def zero_mixed_start(monkeypatch):
    """Make the MIS core's regimes start from a mixed sum of 0, the value
    its drift and its selected-weight caps scale."""
    real = dpar.mis.MisRegimeDriver.start

    def start(self, sub, regime):
        real(self, sub, regime)
        self.mixed_start = self.mixed = 0.0

    monkeypatch.setattr(dpar.mis.MisRegimeDriver, "start", start)


def core_near_pairs(level):
    """200 candidates at one level, joined by an aux edge of weight 1 when
    their ids differ by at most 10; two watchers of 6 * 2^level of them
    each, so both have mass 6."""
    n, deg = 200, 6 * 2**level
    i, j = np.triu_indices(n, k=1)
    near = j - i <= 10
    return MisAuxInstance(
        imp=np.ones(2),
        levels=np.full(n, level),
        edge_u=np.repeat([0, 1], deg),
        edge_v=np.concatenate([np.arange(deg), np.arange(n - deg, n)]),
        aux_i=i[near],
        aux_j=j[near],
        aux_w=np.ones(int(near.sum())),
        vert_w=np.zeros(n),
        size_param=n,
    )


def aux_selected_cap(monkeypatch):
    """Candidates at the floor level skip every high round and all stay
    selected, with their 1 945 aux edges; from a mixed sum of 0 the cap
    on that weight is 0."""
    zero_mixed_start(monkeypatch)
    core_mis_hitting(core_near_pairs(dpar.hitting.ParamSet.desk().high_floor_mis))


def aux_mixed_drift(monkeypatch):
    """One high round halves candidates one level above the floor and
    keeps some aux edge; from a mixed sum of 0 no aux weight may stay."""
    zero_mixed_start(monkeypatch)
    core_mis_hitting(core_near_pairs(dpar.hitting.ParamSet.desk().high_floor_mis + 1))


CERTIFICATES = [
    (rounding_certificate, "rounding certificate violated"),
    (potential_certificate, "potential certificate violated"),
    (cut_certificate, "cut certificate violated"),
    (clique_class_check, "two members of a clique share a class"),
    (matching_sweep_progress, "matching sweep matched nothing"),
    (mis_sweep_progress, "sweep made no progress"),
    (edge_bucket_leftover, "edge bucketing leftover exceeded b\\^3"),
    (aux_selected_cap, "selected aux weight exceeds its certified cap"),
    (aux_mixed_drift, "aux mixed-sum drift certificate violated"),
]
ROWS = [run.__name__ for run, _ in CERTIFICATES]


@pytest.mark.parametrize("corrupted_run, message", CERTIFICATES, ids=ROWS)
def test_certificate_fires_on_a_corrupted_selection(monkeypatch, corrupted_run, message):
    with pytest.raises(RuntimeError, match=message):
        corrupted_run(monkeypatch)


class NoPatch:
    """A monkeypatch that patches nothing."""

    def setattr(self, *args):
        pass


@pytest.mark.parametrize("corrupted_run, message", CERTIFICATES, ids=ROWS)
def test_certificate_holds_without_the_corruption(corrupted_run, message):
    """The same runs with the library's own selection pass, so each row
    fails only through its corruption."""
    corrupted_run(NoPatch())
