import numpy as np
import pytest

from conftest import paper_topology, random_topology
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

    def test_dnn_done_is_found_once(self):
        events = (sched.TraceEvent(3, EventKind.LAYER_DONE, 0, 0),
                  sched.TraceEvent(4, EventKind.DNN_DONE, 0, 0))
        t = CycleTrace(events)
        assert t.cpfi == 4 and t.dnn_done is events[1]
        assert t == CycleTrace(events) and hash(t) == hash(CycleTrace(events))
        # later reads do not scan the events again
        object.__setattr__(t, "events", ())
        assert t.cpfi == 4 and t.dnn_done is events[1]
        assert "dnn_done" not in repr(t)

    @pytest.mark.parametrize("done", [0, 2])
    def test_trace_without_one_dnn_done_raises_on_every_read(self, done):
        t = CycleTrace(tuple(sched.TraceEvent(4, EventKind.DNN_DONE, 0, 0)
                             for _ in range(done)))
        for _ in range(3):
            with pytest.raises(DomainError, match=f"{done} DnnDone"):
                t.cpfi
            with pytest.raises(DomainError, match=f"{done} DnnDone"):
                t.dnn_done


def _stepped(model, mac_units):
    """An independent array model stepped one clock at a time: the trace
    events as (cycle, kind, layer, tile), and the MAC-phase cycles.

    Each unit takes one output and reads its operands window by window, one
    window per input channel, up to `lanes` retained pairs per cycle; a
    tile's ComputeDone is the cycle its last unit finishes, and the next tile
    starts on the following cycle. Then the layer's outputs enter the shared
    activation unit's 9-stage pipeline one per cycle, and LayerDone is the
    cycle the last one leaves it."""
    events, cycle, mac = [], 0, 0
    shape = model.input_shape
    for idx, layer in enumerate(model.layers):
        if layer.kind == "conv2d":
            _, h, w = shape
            n_ch, _, kh, kw = layer.weights.shape
            s = layer.stride
            if layer.padding == "same":
                shape = (n_ch, -(-h // s), -(-w // s))
            else:
                shape = (n_ch, (h - kh) // s + 1, (w - kw) // s + 1)
            flags = (np.ones(layer.weights.shape, dtype=bool) if layer.mask is None
                     else layer.mask.flags)
            per_channel = [list(flags[o].sum(axis=(1, 2))) for o in range(n_ch)]
            windows = [per_channel[o] for o in range(n_ch) for _ in range(shape[1] * shape[2])]
        else:
            shape = (layer.out_channels,)
            windows = [[layer.weights.shape[1]]] * layer.out_channels
        lanes = layer.precision.lanes
        tiles = [windows[i:i + mac_units] for i in range(0, len(windows), mac_units)]
        for t, tile in enumerate(tiles):
            units = [list(w) for w in tile]
            while any(units):
                cycle += 1
                mac += 1
                for left in units:
                    if left:
                        left[0] -= min(lanes, left[0])
                        if not left[0]:
                            left.pop(0)
            events.append((cycle, "ComputeDone", idx, t))
        pipe = [False] * 9
        waiting, done = len(windows), 0
        while done < len(windows):
            cycle += 1
            done += pipe.pop()
            pipe.insert(0, waiting > 0)
            waiting -= pipe[0]
        events.append((cycle, "LayerDone", idx, len(tiles) - 1))
    events.append((cycle, "DnnDone", idx, len(tiles) - 1))
    return events, mac


def _event_tuples(trace):
    return [(e.cycle, e.kind.value, e.layer, e.tile) for e in trace.events]


def _oracle_models():
    rng = np.random.default_rng(61)
    for _ in range(30):
        model, x = random_topology(rng)
        yield model, x, int(rng.integers(1, 151))
    for kernel in (3, 5):
        for pruned, mode in ((False, MacMode.FXP8), (True, MacMode.FXP4_SIMD)):
            model = _conv_net(pruned, mode, kernel=kernel)
            yield model, np.zeros(model.input_shape), int(rng.integers(1, 151))


def _assert_stepped_array(model, x, units):
    """The trace, CPFI and MAC cycles of `simulate` are the stepped array's,
    and its scores are `forward_quant`'s."""
    cfg = ArrayConfig(mac_units=units)
    events, mac = _stepped(model, units)
    for _ in range(2):   # the second call reads the memo
        scores, trace = simulate(model, x, cfg)
        assert _event_tuples(trace) == events
        assert trace.cpfi == cpfi_analytic(model, cfg) == events[-1][0]
        assert mac_cycles_total(model, cfg) == mac
        np.testing.assert_array_equal(scores, net.forward_quant(model, x))


def test_schedule_matches_the_cycle_stepped_array():
    for model, x, units in _oracle_models():
        _assert_stepped_array(model, x, units)


@pytest.mark.parametrize("seed", range(12))
def test_schedule_matches_the_cycle_stepped_array_on_paper_shapes(seed):
    # 5x5, rectangular and 1x1 windows, SHARP's 12-of-25 and 4-of-8 masks,
    # and dense layers that take more than one tile of up to 150 units
    rng = np.random.default_rng(6100 + seed)
    model, x = paper_topology(rng)
    _assert_stepped_array(model, x, int(rng.integers(1, 151)))


def test_stepped_array_reproduces_the_kernel_claims():
    # 3x3: 9 cycles per window at FxP8, 1 at FxP4 with 4 of 9 retained; 5x5:
    # 25 against 3 with 12 of 25; one activation per cycle after the fill
    for kernel, dense, fast in ((3, 9, 1), (5, 25, 3)):
        base = _conv_net(False, MacMode.FXP8, kernel=kernel, channels=(1, 1))
        pruned = _conv_net(True, MacMode.FXP4_SIMD, kernel=kernel, channels=(1, 1))
        assert _stepped(base, 100)[1] == dense
        assert _stepped(pruned, 100)[1] == fast
        assert _stepped(pruned, 100)[0][-1][0] == fast + 9 + 100


def _timing_of(model, cfg):
    """Everything the schedule answers, for comparison with a cold copy."""
    _, trace = simulate(model, np.zeros(model.input_shape), cfg)
    return (sched.plan_network(model, cfg), trace, cpfi_analytic(model, cfg),
            mac_cycles_total(model, cfg))


def _conv_layer(cin, cout, kernel, rng):
    layer = net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8,
                                rng.normal(size=(cout, cin, kernel, kernel)) * 0.3,
                                np.zeros(cout), padding="same")
    layer.refresh_mn_scale()
    return layer


def _set_precision(model, cfg, rng):
    layer = model.layers[1]
    layer.precision = MacMode.FXP8 if layer.precision is MacMode.FXP4_SIMD else MacMode.FXP4_SIMD
    layer.refresh_mn_scale()


def _unprune(model, cfg, rng):
    layer = model.layers[0]
    layer.mask = net.SparsityMask(np.ones(layer.weights.shape, dtype=bool), 9)


def _restride(model, cfg, rng):
    model.layers[0].stride = 2


def _repad(model, cfg, rng):
    model.layers[0].padding = "valid"


def _reshape_input(model, cfg, rng):
    model.input_shape = (1, 12, 12)


def _append(model, cfg, rng):
    model.layers.append(_conv_layer(4, 2, 3, rng))


def _replace(model, cfg, rng):
    model.layers[1] = _conv_layer(4, 4, 5, rng)


_STRUCTURE_CHANGES = {
    "precision": (_set_precision, ArrayConfig()),
    "mask_retained": (_unprune, ArrayConfig()),
    "mac_units": (lambda model, cfg, rng: None, ArrayConfig(mac_units=7)),
    "append": (_append, ArrayConfig()),
    "replace": (_replace, ArrayConfig()),
    "stride": (_restride, ArrayConfig()),
    "padding": (_repad, ArrayConfig()),
    "input_shape": (_reshape_input, ArrayConfig()),
}


class TestScheduleMemo:
    @staticmethod
    def _warm(cfg=ArrayConfig()):
        model = _conv_net(pruned=True, mode=MacMode.FXP4_SIMD)
        _timing_of(model, cfg)
        return model, model._schedule[1]

    @pytest.mark.parametrize("change", sorted(_STRUCTURE_CHANGES))
    def test_rebuilt_when_the_structure_changes(self, change):
        model, before = self._warm()
        edit, cfg = _STRUCTURE_CHANGES[change]
        edit(model, cfg, np.random.default_rng(3))
        got = _timing_of(model, cfg)
        assert model._schedule[1] is not before
        assert got == _timing_of(model.copy(), cfg)
        events, mac = _stepped(model, cfg.mac_units)
        assert _event_tuples(got[1]) == events and got[3] == mac

    def test_kept_across_weight_bias_and_same_count_mask_edits(self):
        model, before = self._warm()
        rng = np.random.default_rng(4)
        for layer in model.layers:
            layer.weights = layer.weights * 0.5
            layer.bias = layer.bias + 0.01
            layer.mask = sharp.prune_conv_weights(rng.normal(size=layer.weights.shape))
            layer.weights = layer.weights * layer.mask.flags
            layer.refresh_mn_scale()
        model.layers[1] = model.layers[1].copy()
        got = _timing_of(model, ArrayConfig())
        assert model._schedule[1] is before and got[1] is before.trace
        assert got == _timing_of(model.copy(), ArrayConfig())
        assert _event_tuples(got[1]) == _stepped(model, 100)[0]

    def test_simulate_returns_one_validated_trace(self, desk_model, desk_data):
        model = desk_model.copy()
        _, first = simulate(model, desk_data.test_x[0], ArrayConfig())
        _, again = simulate(model, desk_data.test_x[1], ArrayConfig())
        assert again is first
        with pytest.raises(AttributeError):
            again.events = ()

    def test_neither_copied_saved_nor_shown(self, desk_model, tmp_path):
        warm, cold = desk_model.copy(), desk_model.copy()
        cpfi_analytic(warm, ArrayConfig())
        assert warm._schedule is not None
        assert warm.copy()._schedule is None and cold._schedule is None
        assert "_schedule" not in repr(warm)
        net.save_model(warm, tmp_path / "warm.tmdl")
        net.save_model(cold, tmp_path / "cold.tmdl")
        assert (tmp_path / "warm.tmdl").read_bytes() == (tmp_path / "cold.tmdl").read_bytes()

    def test_returned_plan_list_is_the_callers(self, desk_model):
        model = desk_model.copy()
        cfg = ArrayConfig(mac_units=13)
        plans = sched.plan_network(model, cfg)
        want = list(plans)
        plans.clear()
        assert sched.plan_network(model, cfg) == want
        assert sched.plan_network(model, cfg) is not sched.plan_network(model, cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        ArrayConfig(mac_units=0)
    with pytest.raises(DomainError):
        ArrayConfig(f_clk=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            ArrayConfig(f_clk=bad)
