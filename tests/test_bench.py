"""Experiment harness: configs, sweeps, CSV artifacts, CLI."""

import hashlib
import logging
import subprocess
import sys

import numpy as np
import pytest

from locbench import bench, cli
from locbench.bench import (
    LocalizationExperiment,
    MetricsRecord,
    RangingExperiment,
    RangingRecord,
    emit_csv,
    load_localization_experiment,
    load_ranging_experiment,
    parse_flat_config,
    run_localization_experiment,
    run_ranging_experiment,
)
from locbench.estimators import EstimationError

RANGING_CFG = """\
# reconstruction sweep
common_factor = 80
coprime_factors = 15, 16, 17
snr_grid_db = 20, 25, 30
trials_per_point = 50
seed = 3
"""

LOCALIZE_CFG = """\
n_heads = 16
sensors_per_head = 10
noise_std = 1.0,
decay_scale = 1.0
source = 60, 70
runs = 4
schemes = global, con
seed = 5
"""


class TestConfigParsing:
    def test_comments_and_blanks_are_skipped(self):
        entries = parse_flat_config("# note\n\na = 1\n b = two # trailing\n")
        assert entries == {"a": "1", "b": "two"}

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_flat_config("a = 1\na = 2\n")

    def test_malformed_line_is_an_error(self):
        with pytest.raises(ValueError):
            parse_flat_config("just words\n")

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(LOCALIZE_CFG + "mystery = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            load_localization_experiment(path)

    def test_missing_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(LOCALIZE_CFG.replace("runs = 4\n", ""))
        with pytest.raises(ValueError, match="runs"):
            load_localization_experiment(path)

    def test_loaders_round_trip(self, tmp_path):
        rpath = tmp_path / "r.cfg"
        rpath.write_text(RANGING_CFG)
        rcfg = load_ranging_experiment(rpath)
        assert rcfg.common_factor == 80.0
        assert rcfg.coprime_factors == (15, 16, 17)
        assert rcfg.snr_grid_db == (20.0, 25.0, 30.0)

        lpath = tmp_path / "l.cfg"
        lpath.write_text(LOCALIZE_CFG)
        lcfg = load_localization_experiment(lpath)
        assert lcfg.noise_std == (1.0,)
        assert lcfg.sweep_field == "noise_std"
        assert lcfg.schemes == ("global", "con")

    def test_seed_override(self, tmp_path):
        path = tmp_path / "l.cfg"
        path.write_text(LOCALIZE_CFG)
        assert load_localization_experiment(path, seed_override=99).seed == 99


class TestExperimentValidation:
    def test_exactly_one_sweep_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=1.0, decay_scale=1.0,
                source=(60.0, 70.0), runs=2, schemes=("global",), seed=0,
            )
        with pytest.raises(ValueError, match="exactly one"):
            LocalizationExperiment(
                n_heads=(4, 16), sensors_per_head=10, noise_std=(1.0, 2.0),
                decay_scale=1.0, source=(60.0, 70.0), runs=2,
                schemes=("global",), seed=0,
            )

    def test_snr_grid_must_increase(self):
        with pytest.raises(ValueError):
            RangingExperiment(
                common_factor=80.0, coprime_factors=(15, 16, 17),
                snr_grid_db=(20.0, 20.0), trials_per_point=5, seed=0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_heads", (16, 15)),
            ("n_heads", (0,)),
            ("sensors_per_head", (10, 0)),
            ("noise_std", (-0.5,)),
            ("noise_std", (float("nan"),)),
            ("decay_scale", (1.0, 0.0)),
        ],
    )
    def test_every_sweep_value_checked_up_front(self, field, value):
        params = dict(n_heads=16, sensors_per_head=10, noise_std=1.0, decay_scale=1.0)
        params[field] = value
        with pytest.raises(ValueError, match=field):
            LocalizationExperiment(
                **params, source=(60.0, 70.0), runs=2, schemes=("global",), seed=0
            )

    def test_bad_sweep_value_fails_at_load(self, tmp_path):
        path = tmp_path / "heads.cfg"
        path.write_text(
            LOCALIZE_CFG.replace("n_heads = 16", "n_heads = 16, 15").replace(
                "noise_std = 1.0,", "noise_std = 1.0"
            )
        )
        with pytest.raises(ValueError, match="perfect square"):
            load_localization_experiment(path)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
                source=(60.0, 70.0), runs=2, schemes=("fastest",), seed=0,
            )


class TestRangingRuns:
    def test_noiseless_point_is_exact(self):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(float("inf"),), trials_per_point=40, seed=1,
        )
        (rec,) = run_ranging_experiment(cfg)
        assert rec.relative_error < 1e-12
        assert rec.ambiguity_rate == 0.0

    def test_deterministic_given_seed(self):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(15.0, 25.0), trials_per_point=60, seed=2,
        )
        first = run_ranging_experiment(cfg)
        second = run_ranging_experiment(cfg)
        assert first == second

    def test_record_fields_are_populated(self):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(18.0,), trials_per_point=50, seed=4,
        )
        (rec,) = run_ranging_experiment(cfg)
        assert rec.snr_db == 18.0
        assert rec.relative_error > 0.0
        assert rec.stderr > 0.0
        assert 0.0 <= rec.ambiguity_rate <= 1.0


class TestLocalizationRuns:
    def test_records_cover_schemes_and_crlb(self):
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=3, schemes=("global", "con", "local"), seed=5,
        )
        records = run_localization_experiment(cfg)
        assert [r.scheme for r in records] == ["global", "con", "local"]
        for r in records:
            assert r.sweep_value == 1.0
            assert r.rmse > 0.0
            assert r.crlb_rmse > 0.0
            assert r.fail_count == 0
            assert r.cpu_time is None  # timing off by default

    def test_noiseless_point_recovers_source(self):
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(0.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=("global", "con"), seed=6,
        )
        records = run_localization_experiment(cfg)
        for r in records:
            assert r.rmse < 1e-6

    def test_deterministic_given_seed(self):
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=3, schemes=("global", "opt"), seed=7,
        )
        assert run_localization_experiment(cfg) == run_localization_experiment(cfg)

    def test_sweep_emits_one_record_per_value_and_scheme(self):
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(0.5, 1.0), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=("global", "con"), seed=8,
        )
        records = run_localization_experiment(cfg)
        assert [(r.sweep_value, r.scheme) for r in records] == [
            (0.5, "global"), (0.5, "con"), (1.0, "global"), (1.0, "con"),
        ]

    def test_timing_fills_cpu_time(self):
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=("global",), seed=9, timing=True,
        )
        (rec,) = run_localization_experiment(cfg)
        assert rec.cpu_time is not None and rec.cpu_time > 0.0

    @pytest.mark.parametrize("scheme", ["con", "wei", "opt"])
    def test_failed_local_fit_is_left_out(self, monkeypatch, scheme):
        # diffusion runs on the sub-network of the heads whose fit succeeded
        failed_head = 5
        real_local_wls = bench.local_wls

        def local_wls(k, *args):
            if k == failed_head:
                raise EstimationError(f"head {k}: forced failure")
            return real_local_wls(k, *args)

        monkeypatch.setattr(bench, "local_wls", local_wls)
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=(scheme,), seed=10,
        )
        rows = []
        (rec,) = run_localization_experiment(cfg, lambda *row: rows.append(row))
        assert np.isfinite(rec.rmse)
        assert rec.fail_count == 0
        assert {row[2] for row in rows} == set(range(16)) - {failed_head}


class TestEmitCsv:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, record_type=RangingRecord)
        assert path.read_text() == "snr_db,relative_error,stderr,ambiguity_rate\n"

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([RangingRecord(20.0, 0.0123456789, 1e-4, 0.0)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "20,0.0123456789,0.0001,0"

    def test_none_becomes_empty_cell(self, tmp_path):
        path = tmp_path / "metrics.csv"
        emit_csv(
            [MetricsRecord(1.0, "global", 1.25, None, None, 1.2, 0)], path
        )
        lines = path.read_text().splitlines()
        assert lines[1] == "1,global,1.25,,,1.2,0"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([RangingRecord(20.0, 1.0 / 3.0, 2.0 / 3.0, 0.0)], path)
        assert "0.333333333" in path.read_text()
        assert "0.666666667" in path.read_text()


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "locbench", *args], capture_output=True, text=True
    )


class TestCli:
    def test_ranging_end_to_end(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RANGING_CFG)
        out = tmp_path / "r.csv"
        proc = run_cli(["ranging", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 0
        assert "wrote 3 records" in proc.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,relative_error,stderr,ambiguity_rate"
        assert len(lines) == 4

    def test_localize_with_trace(self, tmp_path):
        cfg = tmp_path / "l.cfg"
        cfg.write_text(LOCALIZE_CFG)
        out = tmp_path / "l.csv"
        trace = tmp_path / "trace.csv"
        proc = run_cli(
            ["localize", "--config", str(cfg), "--out", str(out), "--trace", str(trace)]
        )
        assert proc.returncode == 0
        head = trace.read_text().splitlines()
        assert head[0] == "trial,epoch,head,x1,x2,max_step"
        assert len(head) > 1

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        out = tmp_path / "out.csv"
        proc = run_cli(["localize", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_source_on_node_exits_two(self, tmp_path, capsys):
        # the bound is singular when the source sits on a cluster head
        cfg = tmp_path / "node.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("source = 60, 70", "source = 50, 50"))
        out = tmp_path / "out.csv"
        code = cli.main(["localize", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["1e300, 70", "1e200, 70"])
    def test_far_source_exits_two_at_load(self, tmp_path, source):
        # squared distances to the nodes would overflow; numpy must not get
        # to print its overflow warnings before the error line
        cfg = tmp_path / "far.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("source = 60, 70", f"source = {source}"))
        out = tmp_path / "out.csv"
        proc = run_cli(["localize", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "too far" in proc.stderr
        assert not out.exists()

    def test_distant_source_still_runs(self, tmp_path):
        cfg = tmp_path / "distant.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("source = 60, 70", "source = 1e9, 70"))
        out = tmp_path / "out.csv"
        assert cli.main(["localize", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_epsilon_exits_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(LOCALIZE_CFG + f"epsilon = {value}\n")
        out = tmp_path / "out.csv"
        code = cli.main(["localize", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "epsilon" in err
        assert not out.exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(RANGING_CFG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        assert run_cli(["ranging", "--config", str(cfg), "--out", str(out_a)]).returncode == 0
        assert run_cli(
            ["ranging", "--config", str(cfg), "--out", str(out_b), "--seed", "3"]
        ).returncode == 0
        assert run_cli(
            ["ranging", "--config", str(cfg), "--out", str(out_c), "--seed", "4"]
        ).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()  # config seed is 3
        assert out_a.read_bytes() != out_c.read_bytes()


def csv_digest(records, tmp_path):
    out = tmp_path / "out.csv"
    emit_csv(records, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestReplayDigests:
    """Small sweeps pinned to the bytes of their CSVs.

    A change that moves any byte of these files changes behaviour and has
    to say so; the digests are updated only together with such a note.
    """

    def test_decay_scale_sweep(self, tmp_path, caplog):
        # decay_scale 0.01 strands far-off heads and takes the median-weight
        # underflow fallback
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=1.0,
            decay_scale=(0.01, 1.0, 100.0), source=(60.0, 70.0), runs=3,
            schemes=("global", "con", "wei", "opt", "local"), seed=1,
        )
        with caplog.at_level(logging.WARNING, logger="locbench"):
            records = run_localization_experiment(cfg)
        assert any(
            r.getMessage().startswith("median weights underflowed")
            for r in caplog.records
        )
        assert csv_digest(records, tmp_path) == (
            "819091d83dff58df3ef2de4a1aedd211c6c028f9defb1b832aba2aa5665b32fd"
        )

    def test_ranging_sweep(self, tmp_path):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(10.0, 20.0), trials_per_point=200, seed=1,
        )
        assert csv_digest(run_ranging_experiment(cfg), tmp_path) == (
            "57cb1c5067de93e654053041f288b9ae8c9c3e6accf6320a7e1f5b9b81c171b9"
        )
