"""One table over every public name that takes a caller's number. Each row
names the rule its value meets, `trea.errors.integer` (a Python or NumPy
int, never a bool) or `trea.errors.real` (a finite real, never a bool), and
the error class a value that breaks it raises; a field that takes a MAC mode
has the rule "mode", which no number meets. Every row is fed the same
suspects: only a `TreaError` may escape, a value the rule rejects raises the
row's class, and a rejected field keeps its old value. A NumPy scalar is
accepted by a numeric rule and comes back as the Python number."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from trea import fxp, mac, metrics, naf, net, sched, sharp
from trea.errors import DomainError, InvalidSelect, RangeError, ShapeMismatch, TreaError, real
from trea.fxp import FXP4, FXP8, FxPFormat, FxPValue
from trea.mac import MacMode
from trea.naf import AfSelect

SUSPECTS = {"str": "2", "None": None, "True": True, "nan": math.nan, "inf": math.inf,
            "ragged": [[1], [1, 2]], "2.5": 2.5, "400 digits": 10 ** 400}

# the suspects each rule rejects for its type; the others meet it, and the
# call may still reject them by range
REJECTS = {
    "integer": set(SUSPECTS) - {"400 digits"},
    "real": set(SUSPECTS) - {"2.5"},
    # a budget: +-inf admit every drop or none
    "budget": set(SUSPECTS) - {"2.5", "inf", "400 digits"},
    # a MAC mode: no number is one
    "mode": set(SUSPECTS),
}
# the NumPy scalar each numeric rule accepts
NUMPY = {"integer": np.int64, "real": np.float64, "budget": np.float64}

_PLATFORM = dict(luts_used=10, luts_total=100, ffs_used=10, ffs_total=100,
                 p_avg_watts=1.5, f_clk_hz=1e6)
_DATA = net.synth_dataset(1, 16, 0, image_size=8)
_DENSE = [("dense", dict(out_features=2, activation=AfSelect.TANH))]


def _layer():
    w = np.full((2, 1, 3, 3), 0.25)
    return net.LayerDescriptor("conv2d", AfSelect.TANH, MacMode.FXP8, w, np.zeros(2))


def _model():
    return net.build_network(_DENSE, (1, 1, 3), seed=1)


def _built(out_channels=2, kernel=(3, 3), out_features=2, input_shape=(1, 3, 3)):
    """The model `build_network` makes of a "same" conv then a dense layer."""
    arch = [("conv2d", dict(out_channels=out_channels, kernel=kernel,
                            activation=AfSelect.TANH, padding="same")),
            ("dense", dict(out_features=out_features, activation=AfSelect.TANH))]
    return net.build_network(arch, input_shape, seed=1)


def _assigned(make, name, read=lambda value: value):
    """Assign the value to field `name` of a fresh `make()`, check that a
    rejected one is not stored, and read the field back through `read`."""
    def call(value):
        target = make()
        kept = getattr(target, name)
        try:
            setattr(target, name, value)
        except TreaError:
            assert getattr(target, name) is kept
            raise
        return read(getattr(target, name))
    return call


def _row(name, rule, error, call, good):
    return pytest.param(SimpleNamespace(rule=rule, error=error, call=call, good=good), id=name)


ROWS = [
    _row("FxPFormat.total_bits", "integer", DomainError, lambda v: FxPFormat(v, 3).total_bits, 8),
    _row("FxPFormat.frac_bits", "integer", DomainError, lambda v: FxPFormat(8, v).frac_bits, 7),
    _row("FxPValue.raw", "integer", RangeError, lambda v: FxPValue(v, FXP8).raw, 5),
    _row("msd_decompose", "integer", DomainError,
         lambda v: fxp.msd_decompose(FxPValue(45, FXP8), v), 3),
    _row("term_table", "integer", DomainError, lambda v: fxp.term_table(FXP4, v).tobytes(), 2),
    _row("term_codes", "integer", DomainError,
         lambda v: fxp.term_codes(FXP4, v).value.tobytes(), 2),
    _row("encode", "real", RangeError, lambda v: fxp.encode(v, FXP8).raw, 0.5),
    _row("PoTTerm.sign", "integer", DomainError, lambda v: fxp.PoTTerm(v, 2).sign, -1),
    _row("PoTTerm.shift", "integer", DomainError, lambda v: fxp.PoTTerm(1, v).shift, 2),
    _row("trunc_shift", "integer", DomainError,
         lambda v: fxp.trunc_shift(FxPValue(-64, FXP8), v).raw, 2),
    _row("error_bound", "integer", DomainError,
         lambda v: fxp.error_bound(FxPValue(64, FXP8), v, 7), 3),
    _row("error_bound.frac_bits", "integer", DomainError,
         lambda v: fxp.error_bound(FxPValue(64, FXP8), 3, v), 7),
    _row("SparsityMask.retained_per_window", "integer", DomainError,
         lambda v: net.SparsityMask(np.ones((2, 3), bool), v).retained_per_window, 3),
    _row("LayerDescriptor.stride", "integer", DomainError, _assigned(_layer, "stride"), 2),
    _row("LayerDescriptor.mn_scale", "real", DomainError, _assigned(_layer, "mn_scale"), 0.5),
    _row("NetworkDescriptor.seed", "integer", DomainError, _assigned(_model, "seed"), 3),
    _row("NetworkDescriptor.input_shape", "integer", ShapeMismatch,
         lambda v: _assigned(_model, "input_shape", lambda s: s[2])((1, 1, v)), 3),
    _row("check_dataset_args", "integer", DomainError,
         lambda v: net.check_dataset_args(1, v, 4), 4),
    _row("_minibatches.epochs", "integer", DomainError,
         lambda v: next(net._minibatches(_DATA, v, 0.05, 0))[1].tolist(), 1),
    _row("_minibatches.lr", "real", DomainError,
         lambda v: next(net._minibatches(_DATA, 1, v, 0))[1].tolist(), 0.05),
    _row("build_network.seed", "integer", DomainError,
         lambda v: net.build_network(_DENSE, (1, 1, 3), v).seed, 3),
    _row("build_network.out_channels", "integer", ShapeMismatch,
         lambda v: _built(out_channels=v).layers[0].out_channels, 2),
    _row("build_network.kernel", "integer", ShapeMismatch,
         lambda v: _built(kernel=(v, 3)).layers[0].weights.shape[2], 3),
    _row("build_network.out_features", "integer", ShapeMismatch,
         lambda v: _built(out_features=v).layers[1].out_channels, 2),
    # a width of 400 digits gives the dense layer more weights than an array holds
    _row("build_network.input_shape", "integer", ShapeMismatch,
         lambda v: _built(input_shape=(1, 3, v)).input_shape[2], 3),
    _row("AfSelect.from_code", "integer", InvalidSelect, AfSelect.from_code, 2),
    _row("piso_latency", "integer", DomainError, naf.piso_latency, 5),
    # a fractional-bit count is at most 31, the most any FxPFormat has
    *(_row(f"{unit.__name__}.{side}", "integer", DomainError,
           lambda v, unit=unit, side=side: unit(
               np.array([5], dtype=np.int64), *((v, 7) if side == "in_frac_bits" else (7, v))
           ).tolist(), 7)
      for unit in (naf.tanh_raw_vec, naf.sigmoid_raw_vec, naf.relu_raw_vec)
      for side in ("in_frac_bits", "out_frac_bits")),
    *(_row(f"activate_raw_vec.{side}", "integer", DomainError,
           lambda v, side=side: naf.activate_raw_vec(
               AfSelect.SIGMOID, np.array([5], dtype=np.int64),
               *((v, 7) if side == "in_frac_bits" else (7, v))).tolist(), 7)
      for side in ("in_frac_bits", "out_frac_bits")),
    _row("saturation_threshold", "integer", DomainError, naf.saturation_threshold, 7),
    _row("kernel_cycles", "integer", DomainError,
         lambda v: mac.kernel_cycles(v, MacMode.FXP4_SIMD), 9),
    _row("accumulator_width.n_bits", "integer", DomainError,
         lambda v: mac.accumulator_width(v, 4), 8),
    _row("accumulator_width.k", "integer", DomainError, lambda v: mac.accumulator_width(8, v), 4),
    _row("conventional_accumulator_width.n_bits", "integer", DomainError,
         lambda v: mac.conventional_accumulator_width(v, 9), 8),
    _row("conventional_accumulator_width.k", "integer", DomainError,
         lambda v: mac.conventional_accumulator_width(8, v), 9),
    _row("plan_layer.n_outputs", "integer", DomainError,
         lambda v: sched.plan_layer(_model().layers[0], sched.ArrayConfig(), v).n_outputs, 250),
    _row("ArrayConfig.mac_units", "integer", DomainError,
         lambda v: sched.ArrayConfig(mac_units=v).mac_units, 100),
    _row("ArrayConfig.f_clk", "real", DomainError, lambda v: sched.ArrayConfig(f_clk=v).f_clk,
         1e8),
    *(_row(f"PlatformNumbers.{field}", rule, DomainError,
           lambda v, field=field: getattr(
               metrics.PlatformNumbers(**{**_PLATFORM, field: v}), field), good)
      for field, rule, good in (("luts_used", "integer", 10), ("luts_total", "integer", 100),
                                ("ffs_used", "integer", 10), ("ffs_total", "integer", 100),
                                ("p_avg_watts", "real", 1.5), ("f_clk_hz", "real", 1e6))),
    _row("sfil.cpfi", "integer", DomainError, lambda v: metrics.sfil(v, 1e6), 1000),
    _row("sfil.f_clk_hz", "real", DomainError, lambda v: metrics.sfil(1000, v), 1e6),
    _row("ecpi.p_avg_watts", "real", DomainError, lambda v: metrics.ecpi(v, 1e-3), 1.5),
    _row("ecpi.sfil_seconds", "real", DomainError, lambda v: metrics.ecpi(1.5, v), 1e-3),
    _row("retained_count", "integer", DomainError, lambda v: sharp.retained_count(v, 3), 3),
    _row("prune_kernel.r", "integer", DomainError,
         lambda v: sharp.prune_kernel(np.arange(9.0).reshape(3, 3), v).retained_per_window, 4),
    _row("assign_precision.epsilon", "budget", DomainError,
         lambda v: sharp.assign_precision(_model(), lambda m: 1.0, v).epsilon, 0.01),
    _row("PrecisionAssignment.modes", "mode", DomainError,
         lambda v: sharp.PrecisionAssignment((MacMode.FXP8, v), 0.01).modes,
         MacMode.FXP4_SIMD),
    _row("PrecisionAssignment.epsilon", "budget", DomainError,
         lambda v: sharp.PrecisionAssignment((MacMode.FXP8,), v).epsilon, 0.01),
]


@pytest.mark.parametrize("suspect", SUSPECTS)
@pytest.mark.parametrize("row", ROWS)
def test_only_a_trea_error_escapes(row, suspect):
    if suspect in REJECTS[row.rule]:
        with pytest.raises(row.error):
            row.call(SUSPECTS[suspect])
    else:
        try:
            row.call(SUSPECTS[suspect])
        except TreaError:
            pass


@pytest.mark.parametrize("row", [row for row in ROWS if row.values[0].rule in NUMPY])
def test_numpy_scalars_come_back_as_python_numbers(row):
    want = row.call(row.good)
    got = row.call(NUMPY[row.rule](row.good))
    assert type(got) is type(want) and got == want


def test_real_reads_a_plain_int_as_its_float():
    # the plain-int path skips the ABC checks and still keeps the rule: a
    # bool is no number, and an int past float's range is not finite
    assert real(3, "x") == 3.0 and type(real(3, "x")) is float
    assert real(-(2 ** 53), "x") == -(2.0 ** 53)
    for value in (10 ** 400, -(10 ** 400), True, False):
        with pytest.raises(ShapeMismatch, match="x must be a finite number"):
            real(value, "x", ShapeMismatch)
