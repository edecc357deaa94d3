"""One table over every public entry point that takes a caller's array, as
`tests/test_numbers.py` is over every number. Each row names the rule its
array meets: `trea.errors.reals` (integer or floating elements, every one
finite), `trea.errors.integers` (integer elements that int64 holds),
"labels" (integers, one class index per frame) or "bools" (a mask's flags).
Every row is fed the same suspects, and a label row also gets a label below
the classes and one past them: only a `TreaError` may escape, a value the
rule rejects raises `DomainError`, and a rejected assignment keeps the old
value."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from trea import errors, fxp, naf, net, sched, sharp
from trea.errors import DomainError, TreaError
from trea.mac import MacMode
from trea.naf import AfSelect

SUSPECTS = {
    "str": "2", "None": None, "ragged": [[1], [1, 2]],
    "numeric-str array": np.array(["1.5", "2"]), "bool array": np.array([True, False]),
    "complex array": np.array([0.5 + 0j]), "[1, None]": [1, None], "[10**400]": [10 ** 400],
    "[nan]": [math.nan], "[inf]": [math.inf], "[2.5]": [2.5],
    "uint64 2**63": np.array([2 ** 63], dtype=np.uint64),
}
CLASSES = 2
LABEL_SUSPECTS = {"-1": -1, "class count": CLASSES}

# the suspects each rule rejects for their elements; the others meet it, and
# the call may still reject them by shape
REJECTS = {
    "reals": set(SUSPECTS) - {"[2.5]", "uint64 2**63"},
    "integers": set(SUSPECTS),
    "labels": set(SUSPECTS),
    # a str and None read as 0-d arrays, which the mask rejects by shape first
    "bools": set(SUSPECTS) - {"str", "None", "bool array"},
}

_ARCH = [("dense", dict(out_features=CLASSES, activation=AfSelect.TANH))]
_DATA = net.synth_dataset(1, 1, 1, classes=CLASSES, image_size=8)
_MODEL = net.build_network(_ARCH, (1, 8, 8), seed=1)
_X, _Y = _DATA.test_x, _DATA.test_y   # one frame and its label


def _layer():
    return net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                               np.full((1, 2), 0.25), np.zeros(1))


def _assigned(name):
    """Assign the array to field `name` of a fresh layer, check that a
    rejected one is not stored, and read the field back."""
    def call(value):
        target = _layer()
        kept = getattr(target, name)
        try:
            setattr(target, name, value)
        except TreaError:
            assert getattr(target, name) is kept
            raise
        return getattr(target, name)
    return call


def _row(name, rule, call):
    return pytest.param(SimpleNamespace(rule=rule, call=call), id=name)


ROWS = [
    _row("LayerDescriptor.weights", "reals",
         lambda v: net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8, v, np.zeros(1))),
    _row("LayerDescriptor.bias", "reals",
         lambda v: net.LayerDescriptor("dense", AfSelect.TANH, MacMode.FXP8,
                                       np.zeros((1, 2)), v)),
    _row("LayerDescriptor.weights=", "reals", _assigned("weights")),
    _row("LayerDescriptor.bias=", "reals", _assigned("bias")),
    _row("SparsityMask.flags", "bools", lambda v: net.SparsityMask(v, 0)),
    _row("forward_quant", "reals", lambda v: net.forward_quant(_MODEL, v)),
    _row("forward_float", "reals", lambda v: net.forward_float(_MODEL, v)),
    _row("simulate", "reals", lambda v: sched.simulate(_MODEL, v, sched.ArrayConfig())),
    _row("evaluate_quant.x", "reals", lambda v: net.evaluate_quant(_MODEL, v, _Y)),
    _row("evaluate_quant.y", "labels", lambda v: net.evaluate_quant(_MODEL, _X, v)),
    _row("evaluate_float.x", "reals", lambda v: net.evaluate_float(_MODEL, v, _Y)),
    _row("evaluate_float.y", "labels", lambda v: net.evaluate_float(_MODEL, _X, v)),
    _row("train_reference.x", "reals",
         lambda v: net.train_reference(_ARCH, replace(_DATA, train_x=v), 1, 0.05, 0)),
    _row("qat_finetune.x", "reals",
         lambda v: net.qat_finetune(_MODEL.copy(), replace(_DATA, train_x=v), 1, 0.05, 0)),
    _row("train_reference.labels", "labels",
         lambda v: net.train_reference(_ARCH, replace(_DATA, train_y=v), 1, 0.05, 0)),
    _row("qat_finetune.labels", "labels",
         lambda v: net.qat_finetune(_MODEL.copy(), replace(_DATA, train_y=v), 1, 0.05, 0)),
    _row("tanh_raw_vec", "integers", lambda v: naf.tanh_raw_vec(v, 7, 7)),
    _row("sigmoid_raw_vec", "integers", lambda v: naf.sigmoid_raw_vec(v, 7, 7)),
    _row("relu_raw_vec", "integers", lambda v: naf.relu_raw_vec(v, 7, 7)),
    *(_row(f"activate_raw_vec.{sel.name}", "integers",
           lambda v, sel=sel: naf.activate_raw_vec(sel, v, 7, 7)) for sel in AfSelect),
    _row("prune_kernel", "reals", lambda v: sharp.prune_kernel(v, 0)),
    _row("prune_conv_weights", "reals", sharp.prune_conv_weights),
    _row("mn_normalize", "reals", fxp.mn_normalize),
]


def _check(row, value, rejected):
    if rejected:
        with pytest.raises(DomainError):
            row.call(value)
    else:
        try:
            row.call(value)
        except TreaError:
            pass


@pytest.mark.parametrize("suspect", SUSPECTS)
@pytest.mark.parametrize("row", ROWS)
def test_only_a_trea_error_escapes(row, suspect):
    _check(row, SUSPECTS[suspect], suspect in REJECTS[row.rule])


@pytest.mark.parametrize("suspect", LABEL_SUSPECTS)
@pytest.mark.parametrize("row", [row for row in ROWS if row.values[0].rule == "labels"])
def test_a_label_outside_the_classes_is_rejected(row, suspect):
    _check(row, LABEL_SUSPECTS[suspect], True)


@pytest.mark.parametrize("good, want", [
    (np.array([1.5, -2.0]), None),
    (np.array([[1, 2]], dtype=np.int32), [[1.0, 2.0]]),
    (np.array([3], dtype=np.uint64), [3.0]),
    (np.array([0.5], dtype=np.float32), [0.5]),
    ([[0.25], [1]], [[0.25], [1.0]]),
    (2.5, 2.5),
], ids=["float64", "int32", "uint64", "float32", "list", "scalar"])
def test_reals_reads_integer_and_float_arrays_as_float64(good, want):
    got = errors.reals(good, "x")
    assert type(got) is np.ndarray and got.dtype == np.float64
    if want is None:   # a float64 ndarray comes back as the same object
        assert got is good
    else:
        assert got.tolist() == want


@pytest.mark.parametrize("good, want", [
    (np.array([1, -2]), None),
    (np.array([[1, 2]], dtype=np.int8), [[1, 2]]),
    (np.array([2 ** 63 - 1], dtype=np.uint64), [2 ** 63 - 1]),
    ([3, -4], [3, -4]),
    (np.array([], dtype=np.uint64), []),
], ids=["int64", "int8", "uint64-top", "list", "empty-uint64"])
def test_integers_reads_integer_arrays_as_int64(good, want):
    got = errors.integers(good, "x")
    assert type(got) is np.ndarray and got.dtype == np.int64
    if want is None:   # an int64 ndarray comes back as the same object
        assert got is good
    else:
        assert got.tolist() == want


def test_each_rule_names_its_field_and_raises_the_callers_class():
    with pytest.raises(errors.ShapeMismatch, match=r"w must be finite, got NaN or infinity"):
        errors.reals([1.0, math.nan], "w", errors.ShapeMismatch)
    with pytest.raises(errors.RangeError, match="w must be an array of numbers: "):
        errors.reals([[1], [1, 2]], "w", errors.RangeError)
    with pytest.raises(errors.RangeError, match="w must be an array of integers int64 holds"):
        errors.integers(np.array([2 ** 63], dtype=np.uint64), "w", errors.RangeError)


@pytest.mark.parametrize("call", [
    lambda y: net.evaluate_quant(_MODEL, _X, y),
    lambda y: net.train_reference(_ARCH, replace(_DATA, train_y=y), 1, 0.05, 0),
    lambda y: net.qat_finetune(_MODEL.copy(), replace(_DATA, train_y=y), 1, 0.05, 0),
], ids=["evaluate", "train_reference", "qat_finetune"])
def test_labels_are_one_class_index_per_frame(call):
    with pytest.raises(errors.ShapeMismatch, match="2 labels for 1 frames"):
        call(np.array([0, 1]))
    # -1 trained the last class, and a label past the classes scored 0
    outside = rf"labels must be class indices in \[0, {CLASSES}\)"
    for bad in (-1, CLASSES, 2 ** 62):
        with pytest.raises(DomainError, match=outside):
            call(np.array([bad]))
    # a list or an int32 array of class indices is read as int64 labels
    call([CLASSES - 1])
    call(np.array([CLASSES - 1], dtype=np.int32))


UNITS = [naf.tanh_raw_vec, naf.sigmoid_raw_vec, naf.relu_raw_vec,
         *(lambda raw, fi, fo, sel=sel: naf.activate_raw_vec(sel, raw, fi, fo)
           for sel in AfSelect)]


@pytest.mark.parametrize("unit", UNITS, ids=["tanh", "sigmoid", "relu",
                                             *(f"activate.{s.name}" for s in AfSelect)])
@pytest.mark.parametrize("raw", [5, -300, np.int32(7), np.array(-2), np.array(2 ** 40)])
def test_a_0d_raw_gives_a_0d_int64_array(unit, raw):
    # a 0-d raw raised TypeError through tanh and sigmoid, and ReLU gave a
    # numpy scalar
    got = unit(raw, 8, 8)
    assert type(got) is np.ndarray and got.dtype == np.int64 and got.shape == ()
    assert got == unit([raw], 8, 8)[0]


@pytest.mark.parametrize("loop", ["train_reference", "qat_finetune"])
def test_train_x_as_a_list_trains_as_its_array(loop):
    # a list's `.shape` and the minibatches' index arrays raised
    # AttributeError and TypeError; both loops read it through one rule
    def run(x):
        data = replace(_DATA, train_x=x)
        if loop == "train_reference":
            return net.train_reference(_ARCH, data, 2, 0.05, 0)
        return net.qat_finetune(_MODEL.copy(), data, 2, 0.05, 0)
    want, got = run(_DATA.train_x), run(_DATA.train_x.tolist())
    for a, b in zip(want.layers, got.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


def test_mask_flags_are_a_bool_array():
    # every truthy entry counted as a kept weight
    for flags in (np.full(2, 0.5), [math.nan, 0.0], np.array(["False", "x"]), [1, 0]):
        with pytest.raises(DomainError, match="flags must be a bool array"):
            net.SparsityMask(flags, 0)
    assert net.SparsityMask([True, False], 0).total_retained == 1
