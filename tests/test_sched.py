import numpy as np
import pytest

from conftest import random_topology
from trea import net, sched, sharp
from trea.errors import DomainError
from trea.mac import MacMode
from trea.naf import AfSelect
from trea.sched import ArrayConfig, CycleTrace, EventKind, cpfi_analytic, mac_cycles_total, plan_layer, simulate


def _dense_layer(out, k, mode=MacMode.FXP8):
    rng = np.random.default_rng(out * 31 + k)
    layer = net.LayerDescriptor("dense", AfSelect.TANH, mode,
                                rng.normal(size=(out, k)) * 0.3, np.zeros(out))
    layer.refresh_mn_scale()
    return layer


def _conv_net(pruned: bool, mode: MacMode, kernel=3, channels=(1, 4, 4), size=10):
    rng = np.random.default_rng(5)
    layers = []
    for cin, cout in zip(channels, channels[1:]):
        w = rng.normal(size=(cout, cin, kernel, kernel)) * 0.3
        layer = net.LayerDescriptor("conv2d", AfSelect.TANH, mode, w,
                                    np.zeros(cout), padding="same")
        if pruned:
            layer.mask = sharp.prune_conv_weights(w)
            layer.weights = w * layer.mask.flags
        layer.refresh_mn_scale()
        layers.append(layer)
    return net.NetworkDescriptor("convnet", (channels[0], size, size), layers)


class TestPlanLayer:
    def test_exact_fit_one_tile(self):
        plan = plan_layer(_dense_layer(100, 40), ArrayConfig(), n_outputs=100)
        assert plan.tile_sizes == (100,)

    def test_ceiling_partition(self):
        plan = plan_layer(_dense_layer(250, 40), ArrayConfig(), n_outputs=250)
        assert plan.tile_sizes == (100, 100, 50)

    def test_pruned_conv_single_cycle_per_output(self):
        model = _conv_net(pruned=True, mode=MacMode.FXP4_SIMD, channels=(1, 2))
        plan = sched.plan_network(model, ArrayConfig())[0]
        assert plan.mac_cycles_per_tile == 1

    def test_no_outputs_rejected(self):
        with pytest.raises(DomainError):
            plan_layer(_dense_layer(1, 1), ArrayConfig(), n_outputs=0)


class TestSimulate:
    def test_scores_bit_equal_forward_quant(self, desk_model, desk_data):
        x = desk_data.test_x[0]
        scores, _ = simulate(desk_model, x, ArrayConfig())
        np.testing.assert_array_equal(scores, net.forward_quant(desk_model, x))

    def test_layer_latency_law(self, desk_model, desk_data):
        cfg = ArrayConfig()
        _, trace = simulate(desk_model, desk_data.test_x[0], cfg)
        plans = sched.plan_network(desk_model, cfg)
        done = {e.layer: e.cycle for e in trace.events
                if e.kind is EventKind.LAYER_DONE}
        start = 0
        for plan in plans:
            mac = plan.mac_cycles_per_tile * len(plan.tile_sizes)
            assert done[plan.layer_index] == start + mac + 9 + plan.n_outputs
            start = done[plan.layer_index]

    def test_trace_invariants(self, desk_model, desk_data):
        _, trace = simulate(desk_model, desk_data.test_x[0], ArrayConfig())
        trace.validate()
        kinds = [e.kind for e in trace.events]
        assert kinds.count(EventKind.DNN_DONE) == 1
        assert trace.cpfi == max(e.cycle for e in trace.events)

    def test_analytic_matches_trace(self, desk_model, desk_data):
        for cfg in (ArrayConfig(), ArrayConfig(mac_units=13)):
            _, trace = simulate(desk_model, desk_data.test_x[0], cfg)
            assert cpfi_analytic(desk_model, cfg) == trace.cpfi

    def test_randomized_topologies(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            model, x = random_topology(rng)
            cfg = ArrayConfig(mac_units=int(rng.integers(1, 150)))
            scores, trace = simulate(model, x, cfg)
            trace.validate()
            assert cpfi_analytic(model, cfg) == trace.cpfi
            np.testing.assert_array_equal(scores, net.forward_quant(model, x))


class TestScaling:
    def test_more_units_single_tile_no_change(self, desk_model):
        small = cpfi_analytic(desk_model, ArrayConfig(mac_units=200))
        big = cpfi_analytic(desk_model, ArrayConfig(mac_units=400))
        assert small == big

    def test_monotone_in_units(self, desk_model):
        prev = None
        for units in (1, 5, 25, 100, 500):
            cur = cpfi_analytic(desk_model, ArrayConfig(mac_units=units))
            if prev is not None:
                assert cur <= prev
            prev = cur

    def test_monotone_in_depth(self):
        shallow = _conv_net(False, MacMode.FXP8, channels=(1, 2))
        deep = _conv_net(False, MacMode.FXP8, channels=(1, 2, 2))
        cfg = ArrayConfig()
        assert cpfi_analytic(deep, cfg) >= cpfi_analytic(shallow, cfg)


class TestKernelSpeedup:
    def test_nine_to_one(self):
        cfg = ArrayConfig()
        base = mac_cycles_total(_conv_net(False, MacMode.FXP8), cfg)
        fast = mac_cycles_total(_conv_net(True, MacMode.FXP4_SIMD), cfg)
        assert base == 9 * fast

    def test_twentyfive_to_three(self):
        cfg = ArrayConfig()
        base = mac_cycles_total(_conv_net(False, MacMode.FXP8, kernel=5), cfg)
        fast = mac_cycles_total(_conv_net(True, MacMode.FXP4_SIMD, kernel=5), cfg)
        assert base * 3 == fast * 25


class TestTraceExport:
    def test_text_format(self, desk_model, desk_data):
        _, trace = simulate(desk_model, desk_data.test_x[0], ArrayConfig())
        lines = trace.to_text().strip().splitlines()
        assert len(lines) == len(trace.events)
        cycle, kind, layer, tile = lines[0].split()
        assert kind == "ComputeDone"
        assert int(cycle) >= 1 and int(layer) == 0 and int(tile) == 0

    def test_json_format(self, desk_model, desk_data):
        import json

        _, trace = simulate(desk_model, desk_data.test_x[0], ArrayConfig())
        doc = json.loads(trace.to_json())
        assert doc["cpfi"] == trace.cpfi
        assert len(doc["events"]) == len(trace.events)

    def test_bad_trace_rejected(self):
        t = CycleTrace((sched.TraceEvent(5, EventKind.LAYER_DONE, 0, 0),))
        with pytest.raises(DomainError):
            t.validate()


def test_config_validation():
    with pytest.raises(DomainError):
        ArrayConfig(mac_units=0)
    with pytest.raises(DomainError):
        ArrayConfig(f_clk=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ArrayConfig(f_clk=bad)
