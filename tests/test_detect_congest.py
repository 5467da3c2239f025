from fractions import Fraction

import pytest

from densub import detect_congest
from densub.detect_congest import approx_densest, congest_detect, default_trials
from densub.graphs import (
    Graph,
    complete,
    cycle,
    density,
    erdos_renyi,
    planted_dense,
)
from densub.mwu import integral_primal
from densub.oracle import exact_densest


def two_cliques(k, gap):
    """Two K_k components; `gap` only labels the construction."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [
        (gap + i, gap + j) for i in range(k) for j in range(i + 1, k)
    ]
    return Graph(gap + k, edges)


def many_components():
    """100 K2, 50 K3, 30 K4 and 20 P6 side by side, then 7 isolated
    vertices: 207 components on 597 vertices."""
    edges, n = [], 0
    for k, count in ((2, 100), (3, 50), (4, 30)):
        for _ in range(count):
            edges += [(n + a, n + b) for a in range(k) for b in range(a + 1, k)]
            n += k
    for _ in range(20):
        edges += [(n + a, n + a + 1) for a in range(5)]
        n += 6
    return Graph(n + 7, edges)


def k5_plus_k9():
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5 + i, 5 + j) for i in range(9) for j in range(i + 1, 9)]
    return Graph(14, edges)


class TestCongestDetect:
    def test_k8_whole_clique(self):
        g = complete(8)
        out, trace = congest_detect(g, Fraction(3), Fraction(1, 8), seed=1)
        assert len(out) > 0
        assert density(g, out) >= Fraction(7, 8) * 3
        assert out == tuple(range(8))

    def test_overshoot_gives_empty(self):
        g = cycle(20)
        out, _ = congest_detect(g, Fraction(10), Fraction(1, 8), seed=3)
        assert len(out) == 0

    def test_two_far_cliques_both_marked(self):
        # a clustering may shave one vertex off a clique; the shaved vertex
        # then sits in clusters with marked neighbors and is skipped for
        # good, so assert a K5 core from each side plus the union bound
        g = two_cliques(6, 100)
        for seed in range(20):
            out, _ = congest_detect(g, Fraction(2), Fraction(1, 8), seed=seed)
            assert len(set(range(6)) & set(out)) >= 5
            assert len(set(range(100, 106)) & set(out)) >= 5
            assert density(g, out) >= Fraction(7, 8) * 2

    def test_soundness_every_seed(self):
        g = erdos_renyi(24, 0.35, seed=4)
        dtilde, eps = Fraction(2), Fraction(1, 8)
        for seed in range(10):
            out, _ = congest_detect(g, dtilde, eps, seed=seed)
            if len(out):
                assert density(g, out) >= (1 - eps) * dtilde

    def test_congest_compliance(self):
        g = erdos_renyi(32, 0.3, seed=7)
        out, trace = congest_detect(g, Fraction(3), Fraction(1, 8), seed=2)
        assert trace.violations == []
        assert trace.max_message_bits <= 2 * 5

    def test_completeness_at_oracle_density(self):
        g = complete(9)
        d = exact_densest(g).value
        hits = 0
        for seed in range(10):
            out, _ = congest_detect(g, d, Fraction(1, 8), seed=seed)
            if len(out):
                assert density(g, out) >= Fraction(7, 8) * d
                hits += 1
        assert hits == 10

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            congest_detect(complete(4), Fraction(1), Fraction(1, 2), seed=0)

    def test_zero_dtilde_marks_everyone_for_free(self):
        out, trace = congest_detect(cycle(5), 0, Fraction(1, 8), seed=1)
        assert out == tuple(range(5))
        assert trace.to_json() == {
            "rounds": 0, "max_message_bits": 0, "total_bits": 0,
            "violations": [],
        }

    def test_phase_count(self):
        assert [detect_congest.phase_count(n, Fraction(1)) for n in range(6)] == [
            0, 0, 1, 2, 2, 3,
        ]

    @pytest.mark.parametrize("dtilde", [0, 1])
    def test_rejects_non_positive_trials(self, dtilde):
        with pytest.raises(ValueError, match="trials_override must be positive"):
            congest_detect(
                complete(4), dtilde, Fraction(1, 8), seed=0, trials_override=0
            )

    def test_determinism(self):
        g = erdos_renyi(20, 0.4, seed=9)
        a = congest_detect(g, Fraction(2), Fraction(1, 8), seed=5)
        b = congest_detect(g, Fraction(2), Fraction(1, 8), seed=5)
        assert a[0] == b[0]
        assert a[1].to_json() == b[1].to_json()

    def test_default_trials(self):
        assert default_trials(64) == 11


    def test_planted_2048_trace_pinned(self):
        # one big cluster per trial: its exact diameter, the LDD race and
        # the primal scans at n = 2048, m = 104,916; the trace is pinned
        g = planted_dense(2048, 8, 1)
        out, trace = congest_detect(g, Fraction(7, 2), Fraction(1, 8), seed=1)
        assert len(out) == 2048
        assert trace.rounds_executed == 27_180
        assert trace.total_bits == 38_253_778
        assert trace.max_message_bits == 18
        assert trace.violations == []

class TestManyComponents:
    """Outputs and traces on 207 components, pinned."""

    def test_detect_pinned(self):
        g = many_components()
        out, trace = congest_detect(g, Fraction(3, 2), Fraction(1, 8), seed=2)
        # exactly the 30 K4s (density 3/2) pass (7/8) * 3/2
        assert out == tuple(range(350, 470))
        assert trace.to_json() == {
            "rounds": 51_239,
            "max_message_bits": 11,
            "total_bits": 23_297_150,
            "violations": [],
        }

    def test_primal_pinned(self):
        g = many_components()
        # vertices 200..349 are the K3s, 350..469 the K4s, 470..589 the P6s
        want = {
            Fraction(1, 2): (range(590), 27, 20320),
            Fraction(1): (range(200, 590), 27, 19520),
            Fraction(3, 2): (range(200, 470), 21, 18720),
            Fraction(2): (range(350, 470), 21, 17920),
        }
        for z, (ids, rounds, bits) in want.items():
            sub, trace = integral_primal(g, z, Fraction(1, 8), T_override=32)
            assert sub == tuple(ids)
            assert trace.to_json() == {
                "rounds": rounds,
                "max_message_bits": 8,
                "total_bits": bits,
                "violations": [],
            }


class TestApproxDensest:
    def test_k5_union_k9(self):
        g = k5_plus_k9()
        d = exact_densest(g).value
        assert d == 4
        eps = Fraction(1, 8)
        out, dhat, _ = approx_densest(g, eps, seed=11)
        assert set(range(5, 14)) <= set(out)
        assert dhat >= (1 - eps) * d / (1 + eps)
        assert dhat == density(g, out)

    def test_single_edge_empty(self):
        # guesses start at 1 and the only subgraph has density 1/2, below
        # every acceptance threshold, so nothing is ever marked
        g = Graph(2, [(0, 1)])
        out, dhat, _ = approx_densest(g, Fraction(1, 8), seed=0)
        assert len(out) == 0
        assert dhat == 0

    def test_edgeless(self):
        g = Graph(3, [])
        out, dhat, _ = approx_densest(g, Fraction(1, 8), seed=0)
        assert len(out) == 0 and dhat == 0

    def test_random_graph_guarantee(self):
        eps = Fraction(1, 8)
        for seed in range(3):
            g = erdos_renyi(18, 0.5, seed=40 + seed)
            d = exact_densest(g).value
            out, dhat, _ = approx_densest(g, eps, seed=seed)
            assert dhat >= (1 - eps) * d / (1 + eps)


class TestPrimalReplay:
    """A congest_detect call runs the primal once per distinct unmarked
    cluster; a repeat is charged its first run's trace."""

    @staticmethod
    def spy(monkeypatch):
        """Per congest_detect call: its clusterings and primal calls."""
        calls = []
        detect, ldd, primal = (
            detect_congest.congest_detect,
            detect_congest.ldd_traced,
            detect_congest.integral_primal,
        )

        def spy_detect(*args, **kwargs):
            calls.append({"clusterings": [], "primal": []})
            return detect(*args, **kwargs)

        def spy_ldd(*args, **kwargs):
            out = ldd(*args, **kwargs)
            calls[-1]["clusterings"].append(out[0])
            return out

        def spy_primal(sub, *args, **kwargs):
            out = primal(sub, *args, **kwargs)
            calls[-1]["primal"].append((sub, out[0]))
            return out

        monkeypatch.setattr(detect_congest, "congest_detect", spy_detect)
        monkeypatch.setattr(detect_congest, "ldd_traced", spy_ldd)
        monkeypatch.setattr(detect_congest, "integral_primal", spy_primal)
        return calls

    def test_one_primal_per_distinct_unmarked_cluster(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = erdos_renyi(12, 0.5, seed=2)
        out, dhat, trace = detect_congest.approx_densest(g, Fraction(1, 8), seed=2)
        assert len(calls) == 23
        pairs = primal_calls = 0
        for call in calls:
            # replay the call's marking: every (trial, cluster) pair with no
            # marked member and at least one edge either is the first of its
            # member set in this call and runs the primal, or repeats a miss
            marked: set[int] = set()
            missed: set[tuple[int, ...]] = set()
            runs = iter(call["primal"])
            for clustering in call["clusterings"]:
                for _center, members in sorted(clustering.clusters().items()):
                    sub, old_ids = g.induced(members)
                    if marked & set(members) or sub.m == 0:
                        continue
                    pairs += 1
                    if tuple(members) in missed:
                        continue
                    ran_on, got = next(runs)
                    assert ran_on == sub
                    if got is None:
                        missed.add(tuple(members))
                    else:
                        marked.update(old_ids[i] for i in got)
            assert next(runs, None) is None
            primal_calls += len(call["primal"])
        assert (primal_calls, pairs) == (38, 141)
        # output and trace as before the replay
        assert out == (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11)
        assert dhat == Fraction(27, 11)
        assert trace.to_json() == {
            "rounds": 615_720,
            "max_message_bits": 8,
            "total_bits": 38_640_776,
            "violations": [],
        }

    def test_no_replay_across_calls(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = erdos_renyi(12, 0.5, seed=2)  # D = 27/11 < 3: every run misses
        results = [
            detect_congest.congest_detect(g, Fraction(3), Fraction(1, 8), seed=4)
            for _ in range(2)
        ]
        assert [len(call["primal"]) for call in calls] == [4, 4]
        (out_a, trace_a), (out_b, trace_b) = results
        assert len(out_a) == 0 and out_a == out_b
        assert trace_a.to_json() == trace_b.to_json()
