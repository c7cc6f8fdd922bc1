"""Tests for SEU/SET analysis, FIT budgeting, CDN SETs, statistics and ML."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import load
from repro.soft_error import (
    ASIL_FIT_TARGETS,
    ComponentSER,
    FAILURE,
    FitBudget,
    GcnRegressor,
    LATENT,
    MASKED,
    MlpRegressor,
    RegressionMetrics,
    RidgeRegressor,
    build_clock_tree,
    electrical_survival,
    extract_features,
    failure_rate_vs_pulse_width,
    headroom_bits,
    inject_seu,
    latch_window_probability,
    logical_derating,
    random_workload,
    run_campaign,
    run_cdn_campaign,
    run_study,
    set_derating,
    split_indices,
    standardize,
    validate_against_event_sim,
)
from repro.soft_error.ml import FEATURE_NAMES


def _flipped_reference(circuit, net, pis, n_patterns, state):
    """``logical_derating`` the long way: the whole circuit re-evaluated
    with ``net`` inverted, observables compared with the good machine."""
    from repro.sim.logic import eval_gate, mask_of, simulate

    mask = mask_of(n_patterns)
    good = simulate(circuit, pis, n_patterns, state)
    values = {n: good[n] for n in list(circuit.inputs) + list(circuit.flops)}
    if net in values:
        values[net] = ~values[net] & mask
    for gate in circuit.topo_order():
        v = eval_gate(gate, values, mask)
        values[gate.output] = ~v & mask if gate.output == net else v
    observables = list(circuit.outputs) + [f.d for f in circuit.flops.values()]
    diff = 0
    for obs in observables:
        diff |= good[obs] ^ values[obs]
    return bin(diff).count("1") / n_patterns


class TestFitBudget:
    def test_overshoot_story(self):
        """A modest unprotected SRAM blows the ASIL-D budget; ECC restores it."""
        unprotected = FitBudget("ASIL-D").add(ComponentSER(
            "l1", 1 << 20, "28nm", functional_derating=0.2))
        assert not unprotected.meets_target
        protected = FitBudget("ASIL-D").add(ComponentSER(
            "l1", 1 << 20, "28nm", functional_derating=0.2, protected=True))
        assert protected.meets_target

    def test_derating_chain_multiplies(self):
        c = ComponentSER("x", 1_000_000, "28nm", logical_derating=0.5,
                         timing_derating=0.5, functional_derating=0.5)
        assert c.effective_fit == pytest.approx(c.raw_fit * 0.125)

    def test_headroom_far_below_soc_state(self):
        bits = headroom_bits("ASIL-D", "28nm", mean_derating=0.1)
        assert bits < 10_000_000  # a real SoC has orders of magnitude more

    def test_asil_targets_table(self):
        assert ASIL_FIT_TARGETS["ASIL-D"] == 10.0
        assert ASIL_FIT_TARGETS["ASIL-B"] == 100.0

    def test_unknown_asil_raises(self):
        budget = FitBudget("ASIL-Z")
        with pytest.raises(KeyError):
            _ = budget.target_fit

    def test_margin(self):
        budget = FitBudget("ASIL-D").add(ComponentSER(
            "tiny", 1000, "28nm", functional_derating=0.01))
        assert budget.margin() > 1.0


class TestSeuCampaign:
    def test_outcomes_partition(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=1)
        res = run_campaign(c, wl)
        assert res.total == len(c.flops) * 10
        assert res.count(MASKED) + res.count(LATENT) + res.count(FAILURE) \
            == res.total

    def test_single_injection_reproducible(self):
        c = load("rand_seq")
        wl = random_workload(c, 8, seed=2)
        flop = sorted(c.flops)[0]
        assert inject_seu(c, wl, flop, 3) == inject_seu(c, wl, flop, 3)

    def test_late_injection_more_likely_latent_or_masked(self):
        """An SEU on the final cycle cannot corrupt earlier outputs."""
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=3)
        res_late = run_campaign(c, wl, cycles=[9])
        res_early = run_campaign(c, wl, cycles=[0])
        assert res_late.failure_rate <= res_early.failure_rate + 0.25

    def test_sampled_campaign_subset(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=4)
        res = run_campaign(c, wl, sample=30, seed=5)
        assert res.total == 30

    def test_no_flop_circuit_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(load("c17"), [{}])

    def test_avf_per_flop_in_unit_interval(self):
        c = load("rand_seq")
        wl = random_workload(c, 8, seed=6)
        for avf in run_campaign(c, wl).avf_per_flop().values():
            assert 0.0 <= avf <= 1.0


class TestStatisticalStudy:
    def test_estimates_converge(self):
        c = load("rand_seq")
        wl = random_workload(c, 12, seed=7)
        study = run_study(c, wl, sample_sizes=(20, 80, 200), seed=8)
        errors = [p.abs_error for p in study.points]
        assert errors[-1] <= errors[0] + 0.02

    def test_full_sample_is_exact(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=9)
        study = run_study(c, wl, sample_sizes=(10**9,), seed=1)
        assert study.points[0].abs_error == pytest.approx(0.0)

    def test_table_lookup_equals_fresh_runs(self):
        # a fresh sampled campaign (real re-injection) reads every drawn
        # point's outcome off the exhaustive table
        c = load("rand_seq")
        wl = random_workload(c, 8, seed=11)
        table = {(inj.flop, inj.cycle): inj.outcome
                 for inj in run_campaign(c, wl).injections}
        sampled = run_campaign(c, wl, sample=25, seed=12).injections
        assert len(sampled) == 25
        assert all(table[(inj.flop, inj.cycle)] == inj.outcome
                   for inj in sampled)

    def test_recommended_n_uses_leveugle(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=13)
        study = run_study(c, wl, margin=0.05)
        assert 0 < study.recommended_n <= study.population


class TestSetAnalysis:
    def test_electrical_survival_monotone_in_depth(self):
        shallow = electrical_survival(1.0, 2)
        deep = electrical_survival(1.0, 8)
        assert shallow >= deep

    def test_narrow_pulse_dies(self):
        assert electrical_survival(0.25, 5, attenuation_per_gate=0.1) == 0.0

    def test_latch_window_bounds(self):
        assert latch_window_probability(0.0, 10.0) == 0.0
        assert latch_window_probability(100.0, 10.0) == 1.0
        assert 0 < latch_window_probability(1.0, 10.0) < 1

    def test_logical_derating_parity_tree_is_one(self):
        """Every net in a XOR tree always propagates a flip."""
        c = load("par8")
        stim = {pi: 0b1011 for pi in c.inputs}
        for gate in c.topo_order():
            assert logical_derating(c, gate.output, stim, 4) == 1.0

    def test_set_derating_decomposition(self):
        c = load("c17")
        res = set_derating(c, n_patterns=16, seed=1)
        for s in res.values():
            assert 0 <= s.logical <= 1
            assert 0 <= s.electrical <= 1
            assert 0 <= s.latch_window <= 1
            assert s.combined == pytest.approx(
                s.logical * s.electrical * s.latch_window)

    @pytest.mark.parametrize("name", ("c17", "s27", "rand_seq"))
    def test_set_derating_equals_per_net_logical_derating(self, name):
        # set_derating simulates the good machine once per call; every
        # net's logical factor must equal a logical_derating call (its
        # own simulation) on the same stimulus and state, and both must
        # equal a whole-circuit re-evaluation with the net flipped
        import random as _r

        c = load(name)
        n, seed = 32, 7
        rng = _r.Random(seed)  # the draw order set_derating uses
        stim = {pi: rng.getrandbits(n) for pi in c.inputs}
        state = {q: rng.getrandbits(n) for q in c.flops}
        nets = list(c.inputs) + list(c.flops) + [g.output
                                                 for g in c.topo_order()]
        res = set_derating(c, nets=nets, n_patterns=n, seed=seed)
        assert list(res) == nets
        for net in nets:
            alone = logical_derating(c, net, stim, n, state)
            assert res[net].logical == alone, net
            assert alone == _flipped_reference(c, net, stim, n, state), net

    @pytest.mark.parametrize("call", ("logical_derating", "set_derating"))
    def test_unknown_net_raises(self, call):
        # a misspelt net used to read as 0.0, i.e. "fully masked"
        c = load("s27")
        with pytest.raises(ValueError, match="typo"):
            if call == "logical_derating":
                logical_derating(c, "typo", {pi: 1 for pi in c.inputs}, 1)
            else:
                set_derating(c, nets=["typo"])

    def test_analytic_vs_event_sim_on_tree(self):
        """On a fanout-free XOR tree the two engines must agree."""
        c = load("par8")
        pattern = {pi: (i % 2) for i, pi in enumerate(c.inputs)}
        for gate in list(c.topo_order())[:5]:
            assert validate_against_event_sim(c, gate.output, pattern)


class TestCdn:
    def test_tree_partitions_flops(self):
        c = load("rand_seq")
        tree = build_clock_tree(c, depth=2)
        all_flops = sorted(
            f for group in tree.leaf_groups for f in group)
        assert all_flops == sorted(c.flops)

    def test_root_hits_more_flops_than_leaf(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=3)
        res = run_cdn_campaign(c, wl, build_clock_tree(c, 3),
                               strikes_per_level=24, seed=4)
        assert res.level_flops_hit[0] >= res.level_flops_hit[3]

    def test_cdn_amplification_over_datapath(self):
        c = load("rand_seq")
        wl = random_workload(c, 10, seed=5)
        res = run_cdn_campaign(c, wl, strikes_per_level=32, seed=6)
        assert res.amplification(0) >= 1.0

    @pytest.mark.parametrize("name", ("s27", "rand_seq"))
    @pytest.mark.parametrize("seed", (0, 11))
    def test_campaign_equals_per_strike_reference(self, name, seed):
        # the campaign reads each strike's D values off the fault-free
        # replay; the reference re-simulates the cycle per strike
        import random as _r

        from repro.sim.logic import simulate
        from repro.sim.sequential import SequentialSim

        c = load(name)
        wl = random_workload(c, 40, seed=seed + 1)
        tree = build_clock_tree(c, 3)
        strikes = 24
        got = run_cdn_campaign(c, wl, tree, strikes_per_level=strikes,
                               seed=seed)

        sim = SequentialSim(c, 1)
        states = []
        for stim in wl:
            states.append(dict(sim.state))
            sim.step(stim)

        def errors(cyc, affected):
            values = simulate(c, wl[cyc], 1, states[cyc])
            return sum(1 for q in affected
                       if values[c.flops[q].d] & 1 != states[cyc][q] & 1)

        rng = _r.Random(seed)
        rates, hits = {}, {}
        for level in range(tree.depth + 1):
            upsets = hit = 0
            for _ in range(strikes):
                cyc = rng.randrange(len(wl))
                buf = rng.randrange(tree.buffers_at_level(level))
                e = errors(cyc, tree.flops_under(level, buf))
                hit += e
                upsets += bool(e)
            rates[level] = upsets / strikes
            hits[level] = hit / strikes
        flops = sorted(c.flops)
        trials = strikes * max(1, tree.depth)
        upsets = 0
        for _ in range(trials):
            cyc = rng.randrange(len(wl))
            upsets += bool(errors(cyc, [rng.choice(flops)]))

        assert got.level_failure_rate == rates
        assert got.level_flops_hit == hits
        assert got.datapath_failure_rate == upsets / trials
        assert any(rates.values())  # the comparison is not all zeros

    @pytest.mark.parametrize("stimuli_n, strikes, match", (
        (0, 8, "stimul"), (5, 0, "strikes_per_level"),
        (5, -3, "strikes_per_level")))
    def test_campaign_rejects_empty_inputs(self, stimuli_n, strikes, match):
        c = load("s27")
        wl = random_workload(c, stimuli_n, seed=1)
        with pytest.raises(ValueError, match=match):
            run_cdn_campaign(c, wl, strikes_per_level=strikes)

    def test_pulse_width_curve_monotone(self):
        curve = failure_rate_vs_pulse_width([0.1, 0.5, 1.0, 2.0, 5.0])
        values = [v for _w, v in curve]
        assert values == sorted(values)
        assert values[0] == 0.0


class TestMl:
    @pytest.fixture(scope="class")
    def dataset(self):
        import random as _r
        c = load("rand500")
        nets = [g.output for g in c.topo_order()][:150]
        stim = {pi: _r.Random(3).getrandbits(64) for pi in c.inputs}
        labels = np.array([logical_derating(c, n, stim, 64) for n in nets])
        feats = extract_features(c, nets)
        return c, nets, feats, labels

    def test_feature_matrix_shape(self, dataset):
        _c, nets, feats, _labels = dataset
        assert feats.shape == (len(nets), len(FEATURE_NAMES))
        assert np.isfinite(feats).all()

    def test_ridge_beats_mean_predictor(self, dataset):
        _c, _nets, feats, labels = dataset
        tr, te = split_indices(len(labels), 0.7, seed=2)
        xtr, xte = standardize(feats[tr], feats[te])
        model = RidgeRegressor().fit(xtr, labels[tr])
        metrics = RegressionMetrics.of(labels[te], model.predict(xte))
        assert metrics.r2 > 0.0

    def test_mlp_trains(self, dataset):
        _c, _nets, feats, labels = dataset
        tr, te = split_indices(len(labels), 0.7, seed=2)
        xtr, xte = standardize(feats[tr], feats[te])
        model = MlpRegressor(epochs=150, seed=0).fit(xtr, labels[tr])
        preds = model.predict(xte)
        assert preds.shape == labels[te].shape
        assert ((preds >= 0) & (preds <= 1)).all()

    def test_gcn_semi_supervised(self, dataset):
        c, nets, feats, labels = dataset
        mu, sd = feats.mean(0), feats.std(0)
        sd[sd == 0] = 1
        fn = (feats - mu) / sd
        tr, te = split_indices(len(labels), 0.7, seed=2)
        mask = np.zeros(len(labels), bool)
        mask[tr] = True
        model = GcnRegressor(epochs=200, lr=0.02).fit(c, nets, fn, labels, mask)
        metrics = RegressionMetrics.of(labels[te], model.predict(fn)[te])
        assert metrics.mse < 0.25  # far better than random guessing

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeRegressor().predict(np.zeros((1, len(FEATURE_NAMES))))
        with pytest.raises(RuntimeError):
            MlpRegressor().predict(np.zeros((1, len(FEATURE_NAMES))))


@settings(max_examples=20, deadline=None)
@given(width=st.floats(0.1, 5.0), depth=st.integers(0, 20))
def test_survival_fraction_bounds(width, depth):
    s = electrical_survival(width, depth)
    assert 0.0 <= s <= 1.0
