import numpy as np
import pytest

from trea import mac, net, sharp
from trea.errors import DomainError, KernelTooSmall, ShapeMismatch
from trea.mac import MacMode
from trea.sharp import (
    PrecisionAssignment,
    assign_precision,
    fine_tune,
    kernel_cycles,
    prune_conv_weights,
    prune_kernel,
    retained_count,
)


class TestRetainedCount:
    @pytest.mark.parametrize("kh,kw,want", [(3, 3, 4), (5, 5, 12), (7, 7, 24)])
    def test_goldens(self, kh, kw, want):
        assert retained_count(kh, kw) == want

    def test_too_small(self):
        with pytest.raises(KernelTooSmall):
            retained_count(1, 1)
        with pytest.raises(KernelTooSmall):
            retained_count(1, 7)

    def test_simd_alignment_up_to_9x9(self):
        for kh in range(1, 10):
            for kw in range(1, 10):
                if kh * kw < 8:
                    continue
                r = retained_count(kh, kw)
                assert r > 0 and r % 4 == 0
                assert kernel_cycles(r, MacMode.FXP4_SIMD) * 4 == r


class TestPruneKernel:
    def test_top_magnitudes(self):
        rng = np.random.default_rng(0)
        window = rng.permutation(np.linspace(0.1, 0.9, 9)).reshape(3, 3)
        mask = prune_kernel(window, 4)
        want = set(np.argsort(-np.abs(window).ravel())[:4])
        assert set(np.nonzero(mask.flags.ravel())[0]) == want
        assert mask.total_retained == 4

    def test_tie_break_lowest_index(self):
        mask = prune_kernel(np.full((3, 3), 0.5), 4)
        assert list(np.nonzero(mask.flags.ravel())[0]) == [0, 1, 2, 3]

    def test_retain_all(self):
        mask = prune_kernel(np.arange(9.0).reshape(3, 3), 9)
        assert mask.flags.all()

    def test_too_many(self):
        with pytest.raises(DomainError):
            prune_kernel(np.zeros((3, 3)), 10)

    def test_frozen(self):
        mask = prune_kernel(np.arange(9.0).reshape(3, 3), 4)
        with pytest.raises(ValueError):
            mask.flags[0, 0] = False


class TestPruneConv:
    def test_every_window_exact(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 3, 3, 3))
        mask = prune_conv_weights(w)
        assert mask.retained_per_window == 4
        counts = mask.flags.reshape(-1, 9).sum(axis=1)
        assert (counts == 4).all()

    def test_small_window_left_dense(self):
        mask = prune_conv_weights(np.ones((2, 2, 1, 1)))
        assert mask.flags.all()

    def test_determinism(self):
        w = np.random.default_rng(2).normal(size=(4, 2, 5, 5))
        a = prune_conv_weights(w)
        b = prune_conv_weights(w)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("weights, error", [
        (np.ones((3, 3)), ShapeMismatch),          # escaped as ValueError
        (np.ones((2, 3, 3)), ShapeMismatch),
        (np.ones((1, 1, 1, 3, 3)), ShapeMismatch),
        (0.5, ShapeMismatch),
        ([[1.0, 2.0], [3.0]], DomainError),
        ("abc", DomainError),
    ], ids=["2-D", "3-D", "5-D", "scalar", "ragged", "str"])
    def test_weights_that_are_not_a_4d_array_raise(self, weights, error):
        with pytest.raises(error):
            prune_conv_weights(weights)

    def test_a_4d_list_is_read_as_its_array(self):
        # a list escaped as AttributeError
        w = np.random.default_rng(4).normal(size=(2, 2, 3, 3))
        got = prune_conv_weights(w.tolist())
        assert got.flags.tobytes() == prune_conv_weights(w).flags.tobytes()


class TestKernelCycles:
    @pytest.mark.parametrize("k,mode,want", [
        (4, MacMode.FXP4_SIMD, 1), (12, MacMode.FXP4_SIMD, 3),
        (9, MacMode.FXP4_SIMD, 3), (25, MacMode.FXP4_SIMD, 7),
        (4, MacMode.FXP8, 4), (12, MacMode.FXP8, 12),
        (9, MacMode.FXP8, 9), (25, MacMode.FXP8, 25),
    ])
    def test_goldens(self, k, mode, want):
        assert kernel_cycles(k, mode) == want

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_cycles(0, MacMode.FXP8)


def test_reexports_are_the_owning_modules_objects():
    # the cycle law is owned by mac and the mask type by net; sharp re-exports both
    assert sharp.kernel_cycles is mac.kernel_cycles
    assert sharp.SparsityMask is net.SparsityMask


class TestAssignPrecision:
    def test_threshold_never_binds(self, desk_model, desk_data):
        def evaluate(m):
            return net.evaluate_quant(m, desk_data.test_x[:20], desk_data.test_y[:20])

        assignment = assign_precision(desk_model, evaluate, epsilon=1.0)
        assert all(m is MacMode.FXP4_SIMD for m in assignment.modes)

    def test_threshold_always_binds(self, desk_model):
        # synthetic evaluator: any 4-bit layer costs accuracy
        def evaluate(m):
            n4 = sum(l.precision is MacMode.FXP4_SIMD for l in m.layers)
            return 1.0 - 0.1 * n4

        assignment = assign_precision(desk_model, evaluate, epsilon=0.0)
        assert all(m is MacMode.FXP8 for m in assignment.modes)

    def test_deterministic(self, desk_model, desk_data):
        def evaluate(m):
            return net.evaluate_quant(m, desk_data.test_x[:30], desk_data.test_y[:30])

        a = assign_precision(desk_model, evaluate, epsilon=0.01)
        b = assign_precision(desk_model, evaluate, epsilon=0.01)
        assert a == b

    def test_visits_each_layer_once(self, desk_model):
        calls = []

        def evaluate(m):
            calls.append(tuple(l.precision for l in m.layers))
            return 1.0

        assign_precision(desk_model, evaluate, epsilon=0.5)
        # one baseline call plus one trial per layer
        assert len(calls) == 1 + len(desk_model.layers)

    def test_nan_epsilon_rejected(self, desk_model):
        # no drop compares greater than a NaN budget, so every layer would go 4-bit
        with pytest.raises(DomainError):
            assign_precision(desk_model, lambda m: 1.0, epsilon=float("nan"))


class TestFineTune:
    def _pruned(self, desk_model):
        model = sharp.prune_model(desk_model)
        masks = [l.mask for l in model.layers]
        assignment = PrecisionAssignment(
            tuple(l.precision for l in model.layers), 0.01
        )
        return model, masks, assignment

    def test_zero_epochs_identity(self, desk_model, desk_data):
        model, masks, assignment = self._pruned(desk_model)
        out = fine_tune(model, masks, assignment, desk_data, epochs=0, lr=0.05)
        for a, b in zip(model.layers, out.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_mask_and_assignment_frozen(self, desk_model, desk_data):
        model, masks, assignment = self._pruned(desk_model)
        out = fine_tune(model, masks, assignment, desk_data, epochs=1, lr=0.05,
                        seed=3)
        for before, after, mask in zip(model.layers, out.layers, masks):
            assert after.precision is before.precision
            if mask is not None:
                assert np.array_equal(after.mask.flags, mask.flags)
                assert not after.weights[~mask.flags].any()

    def test_accuracy_direction(self, desk_model, desk_data):
        model, masks, assignment = self._pruned(desk_model)
        before = net.evaluate_quant(model, desk_data.test_x, desk_data.test_y)
        out = fine_tune(model, masks, assignment, desk_data, epochs=2, lr=0.05,
                        seed=3)
        after = net.evaluate_quant(out, desk_data.test_x, desk_data.test_y)
        assert after >= before

    def test_mask_count_validated(self, desk_model, desk_data):
        model, masks, assignment = self._pruned(desk_model)
        with pytest.raises(DomainError):
            fine_tune(model, masks[:-1], assignment, desk_data, epochs=0, lr=0.05)

    def test_negative_epochs_rejected(self, desk_model, desk_data):
        model, masks, assignment = self._pruned(desk_model)
        with pytest.raises(DomainError, match="epochs"):
            fine_tune(model, masks, assignment, desk_data, epochs=-3, lr=0.05)
