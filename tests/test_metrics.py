import csv
import io
import json

import pytest

from trea.errors import DomainError
from trea.metrics import (
    DEVICE_PROFILES,
    PlatformNumbers,
    build_report,
    ecpi,
    emit_report,
    load_device_profile,
    nfpci,
    sfil,
)


def _platform(l=100, lt=100, f=100, ft=100, p=1.0, clk=1e6):
    return PlatformNumbers(l, lt, f, ft, p, clk)


class TestFormulas:
    def test_full_utilization(self):
        assert nfpci(_platform()) == 1000.0

    def test_half_half(self):
        assert nfpci(_platform(l=50, f=50)) == 250.0

    def test_zero_luts(self):
        assert nfpci(_platform(l=0)) == 0.0

    @pytest.mark.parametrize("platform", [_platform(l=0, lt=0), _platform(f=0, ft=0)],
                             ids=["no-luts", "no-ffs"])
    def test_nfpci_of_an_empty_device_rejected(self, platform):
        with pytest.raises(DomainError, match="device totals must be positive"):
            nfpci(platform)

    def test_sfil_golden(self):
        assert sfil(1000, 1e6) == 1e-3

    def test_sfil_zero_cycles(self):
        assert sfil(0, 123.0) == 0.0

    def test_sfil_domain(self):
        with pytest.raises(DomainError):
            sfil(1, 0.0)

    def test_ecpi_golden(self):
        # 1 W for 1 ms is 1000 microjoules
        assert ecpi(1.0, 1e-3) * 1e6 == 1000.0

    def test_ecpi_zeros(self):
        assert ecpi(0.0, 5.0) == 0.0
        assert ecpi(5.0, 0.0) == 0.0

    @pytest.mark.parametrize("power, latency", [(-1.0, 1e-3), (1.0, -1e-3)])
    def test_ecpi_negative_rejected(self, power, latency):
        with pytest.raises(DomainError, match="nonnegative"):
            ecpi(power, latency)


class TestPlatformValidation:
    def test_usage_bounds(self):
        with pytest.raises(DomainError):
            PlatformNumbers(101, 100, 0, 100, 1.0, 1e6)
        with pytest.raises(DomainError):
            PlatformNumbers(0, 100, -1, 100, 1.0, 1e6)
        with pytest.raises(DomainError):
            PlatformNumbers(0, 100, 0, 100, -1.0, 1e6)
        with pytest.raises(DomainError):
            PlatformNumbers(0, 100, 0, 100, 1.0, 0.0)

    @pytest.mark.parametrize("power, clk", [
        (float("nan"), 1e6), (float("inf"), 1e6),
        (1.0, float("nan")), (1.0, float("inf")),
    ])
    def test_non_finite_rejected(self, power, clk):
        with pytest.raises(DomainError):
            PlatformNumbers(0, 100, 0, 100, power, clk)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sfil_ecpi_rejected(self, bad):
        with pytest.raises(DomainError):
            sfil(1, bad)
        with pytest.raises(DomainError):
            ecpi(bad, 1e-3)
        with pytest.raises(DomainError):
            ecpi(1.0, bad)


class TestReports:
    def test_invariants_exact(self):
        r = build_report("w", "c", cpfi=1000, platform=_platform())
        assert r.sfil_seconds == 1000 / 1e6
        assert r.ecpi_joules == 1.0 * r.sfil_seconds

    def test_single_row(self):
        r = build_report("w", "c", 1000, _platform())
        text = emit_report([r])
        assert text.count("\n") >= 3
        assert "w" in text and "1000" in text

    def test_ratio_column(self):
        a = build_report("w", "baseline", 9000, _platform())
        b = build_report("w", "fast", 1000, _platform())
        csv = emit_report([a, b], fmt="csv")
        rows = csv.strip().splitlines()
        assert rows[0].endswith("latency_gain")
        assert rows[1].split(",")[-1] == "1.000"
        assert rows[2].split(",")[-1] == "9.000"

    def test_empty(self):
        csv = emit_report([], fmt="csv")
        assert csv.splitlines() == [
            "workload,config,nFPCI,CPFI,SFIL_us,ECPI_uJ,latency_gain"
        ]

    def test_csv_quotes_a_name_with_a_comma_a_quote_and_a_newline(self):
        # a model's name is any str its manifest holds
        name = 'a,b "c"\nd'
        text = emit_report([build_report(name, "c", 1000, _platform())], fmt="csv")
        header, row = csv.reader(io.StringIO(text))
        assert len(header) == len(row) == 7
        assert row[0] == name and row[3] == "1000"
        # a plain name keeps its bytes
        plain = emit_report([build_report("w", "c", 1000, _platform())], fmt="csv")
        assert plain.splitlines()[1].startswith("w,c,") and '"' not in plain

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_report([], fmt="yaml")


class TestDeviceProfiles:
    def test_named(self):
        lut, ff = load_device_profile("vc707")
        assert (lut, ff) == (DEVICE_PROFILES["vc707"]["lut_total"],
                             DEVICE_PROFILES["vc707"]["ff_total"])

    def test_file(self, tmp_path):
        p = tmp_path / "dev.json"
        p.write_text(json.dumps({"name": "x", "lut_total": 10, "ff_total": 20}))
        assert load_device_profile(str(p)) == (10, 20)

    def test_file_missing_field(self, tmp_path):
        p = tmp_path / "dev.json"
        p.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DomainError):
            load_device_profile(str(p))

    @pytest.mark.parametrize("profile", [
        [303600, 607200],
        {"lut_total": "x", "ff_total": 20},
        {"lut_total": 40000.9, "ff_total": 20},
        {"lut_total": 10, "ff_total": True},
        {"lut_total": 0, "ff_total": 20},
        {"lut_total": 10, "ff_total": -20},
    ], ids=["list", "lut-string", "lut-float", "ff-bool", "lut-zero", "ff-negative"])
    def test_file_bad_totals(self, tmp_path, profile):
        # each total must be a positive JSON integer; nothing is coerced with int()
        p = tmp_path / "dev.json"
        p.write_text(json.dumps(profile))
        with pytest.raises(DomainError):
            load_device_profile(str(p))
