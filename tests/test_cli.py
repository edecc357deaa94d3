import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rewrite_manifest
from trea import cli, net
from trea.errors import FormatError
from trea.fxp import FXP4, FxPValue
from trea.mac import MacMode


def _run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full seeded pipeline once per module; individual tests inspect it."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.json"
    paths = {
        "data": data,
        "ref": root / "ref.tmdl",
        "quant": root / "q.tmdl",
        "pruned": root / "p.tmdl",
        "tuned": root / "ft.tmdl",
        "trace": root / "trace.txt",
        "report": root / "report.csv",
    }
    assert _run(["gen-data", "--seed", "42", "--n-train", "120", "--n-test", "60",
                 "--out", str(data)]) == 0
    assert _run(["train", "--data", str(data), "--out", str(paths["ref"]),
                 "--epochs", "12", "--seed", "7"]) == 0
    assert _run(["quantize", "--model", str(paths["ref"]), "--data", str(data),
                 "--epsilon", "0.0", "--out", str(paths["quant"])]) == 0
    assert _run(["prune", "--model", str(paths["quant"]),
                 "--out", str(paths["pruned"])]) == 0
    assert _run(["finetune", "--model", str(paths["pruned"]), "--data", str(data),
                 "--epochs", "2", "--seed", "5", "--out", str(paths["tuned"])]) == 0
    assert _run(["simulate", "--model", str(paths["tuned"]), "--data", str(data),
                 "--trace-out", str(paths["trace"]),
                 "--report-out", str(paths["report"]),
                 "--power-watts", "1.6", "--luts-used", "30000",
                 "--ffs-used", "20000"]) == 0
    return paths


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for key in ("ref", "quant", "pruned", "tuned", "trace", "report"):
            assert pipeline[key].exists()

    def test_prune_masks_are_4_of_9(self, pipeline):
        model = net.load_model(pipeline["pruned"])
        conv = [l for l in model.layers if l.kind == "conv2d"]
        assert conv
        for layer in conv:
            counts = layer.mask.flags.reshape(-1, 9).sum(axis=1)
            assert (counts == 4).all()

    def test_lossless_layers_go_4bit_at_epsilon_zero(self, pipeline):
        model = net.load_model(pipeline["quant"])
        assert all(l.precision is MacMode.FXP4_SIMD for l in model.layers)

    def test_deterministic_rerun_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "ft2.tmdl"
        mid_q = tmp_path / "q2.tmdl"
        mid_p = tmp_path / "p2.tmdl"
        assert _run(["quantize", "--model", str(pipeline["ref"]), "--data",
                     str(pipeline["data"]), "--epsilon", "0.0",
                     "--out", str(mid_q)]) == 0
        assert _run(["prune", "--model", str(mid_q), "--out", str(mid_p)]) == 0
        assert _run(["finetune", "--model", str(mid_p), "--data",
                     str(pipeline["data"]), "--epochs", "2", "--seed", "5",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == pipeline["tuned"].read_bytes()

    def test_trace_lines(self, pipeline):
        lines = pipeline["trace"].read_text().strip().splitlines()
        assert lines[-1].split()[1] == "DnnDone"
        for line in lines:
            cycle, kind, layer, tile = line.split()
            int(cycle), int(layer), int(tile)
            assert kind in ("ComputeDone", "LayerDone", "DnnDone")

    def test_report_file(self, pipeline):
        rows = pipeline["report"].read_text().strip().splitlines()
        assert rows[0].startswith("workload,config,nFPCI,CPFI")
        assert len(rows) == 2

    def test_mac_units_scaling_invariant(self, pipeline, capsys):
        assert _run(["simulate", "--model", str(pipeline["tuned"]), "--data",
                     str(pipeline["data"]), "--mac-units", "200"]) == 0
        first = capsys.readouterr().out
        assert _run(["simulate", "--model", str(pipeline["tuned"]), "--data",
                     str(pipeline["data"]), "--mac-units", "400"]) == 0
        second = capsys.readouterr().out
        cpfi = lambda s: s.split("CPFI=")[1].split()[0]
        assert cpfi(first) == cpfi(second)


class TestSweep:
    def test_monotone_table(self, capsys):
        assert _run(["sweep", "--precision", "fxp8", "--iterations", "7"]) == 0
        out = capsys.readouterr().out.strip().splitlines()[1:]
        maxes = [float(line.split()[1]) for line in out]
        assert len(maxes) == 7
        assert all(a >= b for a, b in zip(maxes, maxes[1:]))

    def test_zero_iterations_rejected(self):
        assert _run(["sweep", "--precision", "fxp4", "--iterations", "0"]) == 2

    def test_file_output(self, tmp_path):
        out = tmp_path / "sweep.txt"
        assert _run(["sweep", "--precision", "fxp4", "--out", str(out)]) == 0
        assert out.read_text().startswith("T  max_error")


class TestCheck:
    def test_pristine_build_passes(self, capsys):
        assert _run(["check"]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_check_repeatable(self, capsys):
        _run(["check"])
        first = capsys.readouterr().out
        _run(["check"])
        assert capsys.readouterr().out == first

    def test_mutation_detected(self):
        def corrupt_multiply(x, w, t):
            from trea.fxp import potq_multiply

            good = potq_multiply(x, w, t)
            # drop the sign handling: classic shifter bug
            return FxPValue(abs(good.raw), FXP4)

        ok, msgs = cli.run_verification(multiply=corrupt_multiply)
        assert not ok
        assert any("violations" in m for m in msgs)

    def test_a_wrong_golden_is_a_fail_line(self, monkeypatch):
        monkeypatch.setattr(cli, "accumulator_width", lambda n_bits, k: 11)
        ok, msgs = cli.run_verification()
        assert not ok
        assert "FAIL accumulator_width(8,4): got 11, want 10" in msgs

    def test_mutation_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli.fxp, "potq_multiply",
            lambda x, w, t: FxPValue(0, x.fmt),
        )
        assert _run(["check"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestErrors:
    def test_missing_model_flag_usage_error(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            _run(["simulate", "--data", str(pipeline["data"])])
        assert exc.value.code == 2

    def test_nonexistent_model_io_error(self, pipeline, capsys):
        assert _run(["simulate", "--model", "/nope/missing.tmdl",
                     "--data", str(pipeline["data"])]) == 3
        err = capsys.readouterr().err
        assert json.loads(err)["error"]

    def test_bad_data_descriptor(self, tmp_path, capsys):
        bad = tmp_path / "data.json"
        bad.write_text(json.dumps({"seed": 1}))
        assert _run(["train", "--data", str(bad), "--out",
                     str(tmp_path / "m.tmdl"), "--seed", "1"]) == 3

    def test_malformed_model_file_format_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.tmdl"
        bad.write_bytes(pipeline["tuned"].read_bytes())
        rewrite_manifest(bad, lambda m: m["layers"][0].update(weight_offset=10**9))
        assert _run(["simulate", "--model", str(bad),
                     "--data", str(pipeline["data"])]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_sample_index_out_of_range(self, pipeline):
        assert _run(["simulate", "--model", str(pipeline["tuned"]), "--data",
                     str(pipeline["data"]), "--sample-index", "100000"]) == 3


def test_gen_data_validates_before_writing(tmp_path):
    out = tmp_path / "d.json"
    assert _run(["gen-data", "--seed", "1", "--classes", "1",
                 "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("sizes, field", [
    (["--n-train", "1000000000000"], "n_train + n_test"),
    (["--image-size", "100000000", "--n-train", "1", "--n-test", "0"], "image_size"),
], ids=["n-train", "image-size"])
def test_gen_data_rejects_an_oversized_dataset(tmp_path, capsys, sizes, field):
    # the size cap: exit 3 and one JSON error line, not a MemoryError
    # traceback, and no descriptor that every later stage would reject
    out = tmp_path / "x.json"
    assert _run(["gen-data", "--seed", "1", *sizes, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "DomainError"
    assert field in json.loads(err[0])["message"]
    assert not out.exists()


def test_memory_error_exits_with_one_json_line(tmp_path, monkeypatch, capsys):
    def exhaust(args):
        raise MemoryError("cannot allocate the dataset")

    monkeypatch.setitem(cli._DISPATCH, "train", exhaust)
    out = tmp_path / "ref.tmdl"
    assert _run(["train", "--data", "d.json", "--out", str(out), "--seed", "1"]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and "Traceback" not in captured.err
    assert json.loads(err[0]) == {"error": "MemoryError",
                                  "message": "cannot allocate the dataset"}
    assert not out.exists() and not captured.out


def test_gen_data_synthesizes_nothing(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("gen-data synthesized a split")

    monkeypatch.setattr(net, "_synth_split", refuse)
    out = tmp_path / "d.json"
    assert _run(["gen-data", "--seed", "5", "--n-train", "7", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"seed": 5, "n_train": 7, "n_test": 96,
                                           "classes": 3, "image_size": 12}


def test_parser_is_built_once_and_parses_each_command_afresh(monkeypatch):
    seen = []
    for command in ("train", "finetune"):
        monkeypatch.setitem(cli._DISPATCH, command, lambda args: seen.append(vars(args)) or 0)
    for argv in (["train", "--data", "d", "--out", "a", "--seed", "1", "--epochs", "3",
                  "--lr", "0.5"],
                 ["finetune", "--model", "m", "--data", "e", "--seed", "2", "--out", "b"],
                 ["train", "--data", "f", "--out", "c", "--seed", "3"]):
        assert cli.main(argv) == 0
    assert seen == [
        dict(command="train", data="d", out="a", epochs=3, lr=0.5, seed=1),
        dict(command="finetune", model="m", data="e", epochs=5, lr=0.05, seed=2, out="b"),
        dict(command="train", data="f", out="c", epochs=15, lr=0.08, seed=3),
    ]
    assert cli._build_parser() is cli._build_parser()


_DATA = {"seed": 1, "n_train": 8, "n_test": 4, "classes": 3, "image_size": 8}
_SIM = ["simulate", "--model", "{model}", "--data", "{data}",
        "--trace-out", "{out}", "--report-out", "{report}"]
_TRAIN_BAD = ["train", "--data", "{bad}", "--seed", "1", "--out", "{out}"]
_SIM_BAD_PROFILE = _SIM + ["--device-profile", "{bad}"]


_DOMAIN = "DomainError"
_NO_TEST = {**_DATA, "image_size": 12, "n_test": 0}   # the pipeline's frame size


@pytest.mark.parametrize("argv, bad_json, error", [
    pytest.param(_SIM + ["--clock-hz", "nan"], None, _DOMAIN, id="clock-hz-nan"),
    pytest.param(_SIM + ["--clock-hz", "inf"], None, _DOMAIN, id="clock-hz-inf"),
    pytest.param(_SIM + ["--power-watts", "nan"], None, _DOMAIN, id="power-watts-nan"),
    pytest.param(_SIM + ["--power-watts", "inf"], None, _DOMAIN, id="power-watts-inf"),
    pytest.param(["quantize", "--model", "{model}", "--data", "{data}",
                  "--epsilon", "nan", "--out", "{out}"], None, _DOMAIN, id="epsilon-nan"),
    pytest.param(["train", "--data", "{data}", "--epochs", "-1", "--seed", "1",
                  "--out", "{out}"], None, _DOMAIN, id="train-epochs-negative"),
    pytest.param(["finetune", "--model", "{model}", "--data", "{data}",
                  "--epochs", "-3", "--seed", "1", "--out", "{out}"],
                 None, _DOMAIN, id="finetune-epochs-negative"),
    pytest.param(["train", "--data", "{data}", "--lr", "-1", "--seed", "1",
                  "--out", "{out}"], None, _DOMAIN, id="train-lr-negative"),
    pytest.param(["finetune", "--model", "{model}", "--data", "{data}",
                  "--lr", "-1", "--seed", "1", "--out", "{out}"],
                 None, _DOMAIN, id="finetune-lr-negative"),
    pytest.param(["train", "--data", "{data}", "--lr", "nan", "--seed", "1",
                  "--out", "{out}"], None, _DOMAIN, id="train-lr-nan"),
    pytest.param(["train", "--data", "{data}", "--lr", "inf", "--seed", "1",
                  "--out", "{out}"], None, _DOMAIN, id="train-lr-inf"),
    pytest.param(["gen-data", "--seed", "-1", "--out", "{out}"], None, _DOMAIN,
                 id="gen-data-seed-negative"),
    pytest.param(["gen-data", "--seed", "1", "--n-train", "-5", "--out", "{out}"],
                 None, _DOMAIN, id="gen-data-n-train-negative"),
    pytest.param(_TRAIN_BAD, [1, 2], "TreaError", id="descriptor-list"),
    pytest.param(_TRAIN_BAD, {**_DATA, "seed": "x"}, _DOMAIN, id="descriptor-seed-string"),
    pytest.param(_TRAIN_BAD, {**_DATA, "seed": True}, _DOMAIN, id="descriptor-seed-bool"),
    pytest.param(_TRAIN_BAD, {**_DATA, "n_train": 10.0}, _DOMAIN,
                 id="descriptor-n-train-float"),
    pytest.param(_TRAIN_BAD, _NO_TEST, _DOMAIN, id="train-empty-test-set"),
    pytest.param(["quantize", "--model", "{model}", "--data", "{bad}", "--out", "{out}"],
                 _NO_TEST, _DOMAIN, id="quantize-empty-test-set"),
    pytest.param(["finetune", "--model", "{model}", "--data", "{bad}", "--epochs", "1",
                  "--seed", "1", "--out", "{out}"],
                 _NO_TEST, _DOMAIN, id="finetune-empty-test-set"),
    pytest.param(_TRAIN_BAD, b'{"seed": "\xff"}', "UnicodeDecodeError",
                 id="descriptor-not-utf8"),
    pytest.param(_SIM_BAD_PROFILE, b'{"lut_total": "\xff"}', "UnicodeDecodeError",
                 id="profile-not-utf8"),
    pytest.param(_TRAIN_BAD, b"[" * 100000, "TreaError", id="descriptor-deeply-nested"),
    pytest.param(_SIM_BAD_PROFILE, b"[" * 100000, _DOMAIN, id="profile-deeply-nested"),
    pytest.param(_SIM_BAD_PROFILE, [303600, 607200], _DOMAIN, id="profile-list"),
    pytest.param(_SIM_BAD_PROFILE, {"lut_total": "x", "ff_total": 607200}, _DOMAIN,
                 id="profile-lut-string"),
    pytest.param(_SIM_BAD_PROFILE, {"lut_total": 40000.9, "ff_total": 607200}, _DOMAIN,
                 id="profile-lut-float"),
    pytest.param(_SIM_BAD_PROFILE, {"lut_total": 303600, "ff_total": True}, _DOMAIN,
                 id="profile-ff-bool"),
])
def test_rejected_input_exits_3_without_output(pipeline, tmp_path, capsys, argv,
                                               bad_json, error):
    # the README's contract: exit 3, one JSON error on stderr naming the
    # error type, nothing written
    paths = {"model": pipeline["tuned"], "data": pipeline["data"],
             "out": tmp_path / "out", "report": tmp_path / "report.csv",
             "bad": tmp_path / "bad.json"}
    if isinstance(bad_json, bytes):
        paths["bad"].write_bytes(bad_json)
    elif bad_json is not None:
        paths["bad"].write_text(json.dumps(bad_json))
    assert _run([a.format(**paths) for a in argv]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not paths["out"].exists()
    assert not paths["report"].exists()


@pytest.fixture(scope="module")
def mixed_model(pipeline, tmp_path_factory):
    """The pipeline's pruned model with its dense layers at FxP8: a saved
    pruned mixed-precision model, as bytes, and a scratch path for mutants."""
    model = net.load_model(pipeline["tuned"])
    for layer in model.layers[1:]:
        layer.precision = MacMode.FXP8
        layer.refresh_mn_scale()
    path = tmp_path_factory.mktemp("fuzz") / "model.tmdl"
    net.save_model(model, path)
    return path.read_bytes(), path


def _mutate(data, kind, pos, arg):
    """Flip bits of, insert bytes at, delete bytes at, or truncate at `pos`."""
    pos %= len(data) + 1
    if kind == "flip" and pos < len(data):
        return data[:pos] + bytes([data[pos] ^ arg[0]]) + data[pos + 1:]
    if kind == "insert":
        return data[:pos] + arg + data[pos:]
    if kind == "delete":
        return data[:pos] + data[pos + len(arg):]
    return data[:pos] if kind == "truncate" else data


# positions favour the magic, length and JSON manifest at the file's head
_MUTATIONS = st.lists(st.tuples(
    st.sampled_from(["flip", "insert", "delete", "truncate"]),
    st.one_of(st.integers(0, 1024), st.integers(0, 1 << 20)),
    st.binary(min_size=1, max_size=4).filter(lambda b: b[0]),
), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutations=_MUTATIONS)
def test_mutated_model_loads_or_is_rejected(pipeline, mixed_model, mutations):
    # a corrupt model file is a FormatError, and the CLI exits 0 or 3, never 1
    data, path = mixed_model
    for mutation in mutations:
        data = _mutate(data, *mutation)
    path.write_bytes(data)
    try:
        net.load_model(path)
    except FormatError:
        pass
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = _run(["simulate", "--model", str(path), "--data", str(pipeline["data"])])
    assert code in (0, 3)
