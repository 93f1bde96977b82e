"""Experiment harness: configs, sweeps, CSV artifacts, CLI."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locbench import bench, cli, estimators, rcrt
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
from locbench.rcrt import make_wavelength_set, reconstruct_batch
from locbench.signals import TWO_PI, phase_noise_std
from pinned_digests import DIGESTS, REFERENCE_KERNEL, assert_pinned, pinned

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

TRACED_CFG = """\
n_heads = 9, 16
sensors_per_head = 10
noise_std = 1.0
decay_scale = 1.0
source = 60, 70
runs = 3
schemes = global, opt, con, wei, local
seed = 4
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

    def test_unknown_key_is_an_error(self, tmp_path, capsys):
        # timing is no key: the CSV holds no clock reading
        path, out = tmp_path / "bad.cfg", tmp_path / "out.csv"
        for key, value in (("mystery", "1"), ("timing", "true")):
            path.write_text(LOCALIZE_CFG + f"{key} = {value}\n")
            with pytest.raises(ValueError, match=f"unknown config keys: {key}$"):
                load_localization_experiment(path)
            assert cli.main(["localize", "--config", str(path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
            assert not out.exists()

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
        # the override replaces the file's seed before it is read
        path.write_text(LOCALIZE_CFG.replace("seed = 5", "seed = junk"))
        assert load_localization_experiment(path, seed_override=99).seed == 99

    @pytest.mark.parametrize("key, value", [("noise_std", ","), ("n_heads", ",,")])
    def test_empty_sweep_list_is_an_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "empty.cfg"
        text = LOCALIZE_CFG.replace("noise_std = 1.0,", "noise_std = 1.0")
        path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text))
        message = f"{key} must not be an empty sweep list"
        with pytest.raises(ValueError, match=message):
            load_localization_experiment(path)
        out = tmp_path / "out.csv"
        assert cli.main(["localize", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# a value breaking each key's rule, with every other value valid
RULE_CASES = [
    ("ranging", "snr_grid_db", ""),
    ("ranging", "snr_grid_db", "30, 20"),
    ("ranging", "snr_grid_db", "20, 20"),
    ("ranging", "snr_grid_db", "3001"),
    ("ranging", "trials_per_point", "0"),
    ("ranging", "seed", "-1"),
    ("localize", "n_heads", "16, 15"),
    ("localize", "n_heads", "0,"),
    ("localize", "n_heads", "1"),
    ("localize", "n_heads", "4, 1"),
    ("localize", "sensors_per_head", "10, 0"),
    ("localize", "noise_std", "-0.5,"),
    ("localize", "noise_std", "nan,"),
    ("localize", "decay_scale", "1.0, 0.0"),
    ("localize", "source", "60"),
    ("localize", "source", "60, 70, 80"),
    ("localize", "source", "nan, 70"),
    ("localize", "source", "1e151, 70"),
    ("localize", "source", "1e10, 70"),
    ("localize", "runs", "0"),
    ("localize", "schemes", ""),
    ("localize", "schemes", "con, con"),
    ("localize", "schemes", "fastest"),
    ("localize", "seed", "-1"),
    ("localize", "epsilon", "0"),
    ("localize", "max_epochs", "0"),
]


class TestExperimentValidation:
    @pytest.mark.parametrize("kind, key, value", RULE_CASES)
    def test_every_rule_fails_at_load(self, tmp_path, capsys, kind, key, value):
        classes = {"ranging": RangingExperiment, "localize": LocalizationExperiment}
        rules = {
            (name, f.name): f.metadata["rule"]
            for name, cls in classes.items()
            for f in dataclasses.fields(cls)
            if f.init and f.metadata["rule"] is not None
        }
        assert {(name, k) for name, k, _ in RULE_CASES} == rules.keys()
        text = RANGING_CFG if kind == "ranging" else LOCALIZE_CFG
        if key in bench._SWEEP_AXES:
            text = text.replace("noise_std = 1.0,", "noise_std = 1.0")
        if re.search(rf"(?m)^{key} = ", text):
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        else:
            text += f"{key} = {value}\n"
        path = tmp_path / "rule.cfg"
        path.write_text(text)
        load = load_ranging_experiment if kind == "ranging" else load_localization_experiment
        message = f"{key} must be {rules[kind, key]}, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            load(path)
        out = tmp_path / "out.csv"
        assert cli.main([kind, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_each_key_is_declared_once(self):
        # a key's field holds its reader and rule; _SWEEP_AXES alone marks the sweep axes
        assert not hasattr(bench, "_KEYS") and not hasattr(bench, "_sweepable")
        for cls in (RangingExperiment, LocalizationExperiment):
            for f in (f for f in dataclasses.fields(cls) if f.init):
                assert callable(f.metadata["read"]), f.name
                assert (f.metadata["rule"] is None) == (f.metadata["admits"] is None), f.name
        init = [f.name for f in dataclasses.fields(LocalizationExperiment) if f.init]
        assert [name for name in init if name in bench._SWEEP_AXES] == list(bench._SWEEP_AXES)

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

    @pytest.mark.parametrize("axis", bench._SWEEP_AXES)
    def test_the_sweep_field_is_stored_at_construction(self, tmp_path, axis):
        # found once with the exactly-one check; perfbench builds every
        # rep's config with dataclasses.replace, which must find it again
        values = {"n_heads": (4, 16), "sensors_per_head": (3, 10),
                  "noise_std": (0.5, 1.0), "decay_scale": (0.5, 2.0)}
        scalars = {"n_heads": 16, "sensors_per_head": 10, "noise_std": 1.0, "decay_scale": 1.0}
        cfg = LocalizationExperiment(
            **{**scalars, axis: values[axis]}, source=(60.0, 70.0), runs=2,
            schemes=("global",), seed=0,
        )
        for again in (cfg, dataclasses.replace(cfg, seed=7)):
            assert again.sweep_field == axis and again.sweep_values == values[axis]
        # not an init field, so not a config key
        assert "sweep_field" not in {f.name for f in dataclasses.fields(cfg) if f.init}
        path = tmp_path / "sweep.cfg"
        path.write_text(LOCALIZE_CFG + f"sweep_field = {axis}\n")
        with pytest.raises(ValueError, match="^unknown config keys: sweep_field$"):
            load_localization_experiment(path)
        # left out of repr and ==
        assert "sweep_field" not in repr(cfg)
        other = dataclasses.replace(cfg)
        object.__setattr__(other, "sweep_field", "elsewhere")
        assert other == cfg and hash(other) == hash(cfg)

    # 64 heads, 10 sensors, 200 runs, five schemes: head 9 sits at (50, 50)
    HEAD_CFG = (
        LOCALIZE_CFG.replace("n_heads = 16", "n_heads = 64")
        .replace("source = 60, 70", "source = 50, 50").replace("runs = 4", "runs = 200")
        .replace("schemes = global, con", "schemes = global, con, wei, opt, local")
        .replace("seed = 5", "seed = 1")
    )

    @pytest.mark.parametrize(
        "n_heads, source, message",
        [
            ("64", "50, 50", "source (50.0, 50.0) is head 9 of the 64-head grid"),
            # only the 16-head grid of the sweep has a head at (100, 150)
            ("4, 16", "100, 150", "source (100.0, 150.0) is head 11 of the 16-head grid"),
            # the squared gap to head 0 underflows to 0, as in the range model
            ("64", "1e-300, 0", "source (1e-300, 0.0) is head 0 of the 64-head grid"),
            ("64", "0, -1e-200", "source (0.0, -1e-200) is head 0 of the 64-head grid"),
        ],
    )
    def test_source_on_a_head_fails_at_load(
        self, tmp_path, capsys, monkeypatch, n_heads, source, message
    ):
        # the Fisher information is singular there; the error used to come
        # only after the first group's fits, with a fit warning before it
        text = self.HEAD_CFG.replace("n_heads = 64", f"n_heads = {n_heads}")
        if "," in n_heads:
            text = text.replace("noise_std = 1.0,", "noise_std = 1.0")
        path = tmp_path / "head.cfg"
        path.write_text(text.replace("source = 50, 50", f"source = {source}"))
        fit = mock.Mock(side_effect=AssertionError("fitted a group"))
        monkeypatch.setattr(bench, "wls_group", fit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_localization_experiment(path)
        out = tmp_path / "out.csv"
        assert cli.main(["localize", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not fit.called and not out.exists()

    def test_source_off_the_heads_still_runs(self, tmp_path):
        # 1e-160 from head 0, the squared gap is subnormal but not zero
        for source in ("60, 70", "1e-160, 0"):
            path = tmp_path / "off.cfg"
            text = self.HEAD_CFG.replace("source = 50, 50", f"source = {source}")
            path.write_text(text.replace("runs = 200", "runs = 2"))
            out = tmp_path / "out.csv"
            assert cli.main(["localize", "--config", str(path), "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 6

    def test_snr_grid_must_increase(self):
        with pytest.raises(ValueError):
            RangingExperiment(
                common_factor=80.0, coprime_factors=(15, 16, 17),
                snr_grid_db=(20.0, 20.0), trials_per_point=5, seed=0,
            )

    @pytest.mark.parametrize("snr", [math.nan, -math.inf, -3001.0, 3001.0])
    def test_snr_point_must_lie_in_the_float_range(self, snr):
        # the linear SNR of +-3080 dB leaves the float range; inf is noiseless
        with pytest.raises(ValueError, match="snr_grid_db"):
            RangingExperiment(
                common_factor=80.0, coprime_factors=(15, 16, 17),
                snr_grid_db=(snr,), trials_per_point=5, seed=0,
            )
        RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(-3000.0, 3000.0, math.inf), trials_per_point=5, seed=0,
        )

    @pytest.mark.parametrize(
        "common_factor, grid, accepted",
        [
            (80.0, (0.0, 10.0, 30.0), True),
            (1e-150, (0.0, 10.0, 30.0), True),
            (1e-320, (0.0, 10.0, 30.0), False),
            (5e-324, (0.0, 10.0, 30.0), False),
            # a noiseless grid has no remainder error to underflow
            (5e-324, (math.inf,), True),
        ],
    )
    def test_remainder_error_scale_must_not_underflow(self, common_factor, grid, accepted):
        def build():
            return RangingExperiment(
                common_factor=common_factor, coprime_factors=(3, 5),
                snr_grid_db=grid, trials_per_point=5, seed=0,
            )

        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="smallest wavelength"):
                build()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_heads", (16, 15)),
            ("n_heads", (0,)),
            ("sensors_per_head", (10, 0)),
            ("noise_std", (-0.5,)),
            ("noise_std", (float("nan"),)),
            ("decay_scale", (1.0, 0.0)),
            ("n_heads", (4, 1)),
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

    def test_reconstruction_memory_does_not_grow_with_the_point(self):
        # the point's own arrays (truths, phase errors, remainders and their
        # temporaries) take about 140 bytes a trial, 2.7 MB here; one
        # reconstruct_batch call over all 20,000 trials would add about 390
        # bytes a trial (7.8 MB), a slice of 4,096 trials about 1.6 MB
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(10.0,), trials_per_point=20_000, seed=1,
        )
        tracemalloc.start()
        try:
            run_ranging_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_slices_do_not_change_the_records(self, monkeypatch):
        # in blocks of 7 rows, 100 trials fill 15 blocks a point; 3 trials
        # put two points in one block and the third in a block of its own
        cfgs = [
            RangingExperiment(
                common_factor=80.0, coprime_factors=(15, 16, 17),
                snr_grid_db=(-40.0, 0.0, 20.0), trials_per_point=trials, seed=6,
            )
            for trials in (100, 3)
        ]
        whole = [run_ranging_experiment(cfg) for cfg in cfgs]
        monkeypatch.setattr(rcrt, "_RECONSTRUCT_ROWS", 7)
        monkeypatch.setattr(bench, "_SEED_BLOCK", 7)
        assert [run_ranging_experiment(cfg) for cfg in cfgs] == whole


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
            assert r.cpu_time is None  # an empty column

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

    @pytest.mark.parametrize(
        "schemes, builds", [(("con", "opt"), 2), (("global", "con", "wei"), 0)]
    )
    def test_q_is_built_once_per_run_and_only_for_opt(self, monkeypatch, schemes, builds):
        # a frozen decay_scale sweep scores each run at three values, and
        # every value's opt starts from the run's one Q, which the run's
        # fits give when they are made with with_q
        runs_with_q, real_wls_group = [], bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            runs_with_q.extend([with_q] * len(runs))
            return real_wls_group(runs, with_global, with_local, with_q)

        monkeypatch.setattr(bench, "wls_group", wls_group)
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=1.0,
            decay_scale=(0.5, 1.0, 2.0), source=(60.0, 70.0), runs=2,
            schemes=schemes, seed=9,
        )
        run_localization_experiment(cfg)
        assert len(runs_with_q) == 2 and runs_with_q.count(True) == builds

    def test_decay_sweep_scores_each_value_on_frozen_noise(self):
        # a decay_scale sweep's runs draw from (seed, run) alone: each value
        # reads as its own one-point sweep, records and trace rows alike
        values, runs = (0.05, 1.0, 20.0), 3

        def traced(decay_scale):
            cfg = LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=1.0,
                decay_scale=decay_scale, source=(60.0, 70.0), runs=runs,
                schemes=("wei", "global", "con", "opt", "local"), seed=13,
            )
            trace = io.StringIO()
            records = run_localization_experiment(cfg, csv.writer(trace))
            rows = list(csv.reader(io.StringIO(trace.getvalue())))[1:]
            return records, rows

        swept, swept_rows = traced(values)
        for s_idx, value in enumerate(values):
            alone, alone_rows = traced((value,))
            assert swept[s_idx * len(alone):(s_idx + 1) * len(alone)] == alone
            for run in range(runs):
                rows = [r[1:] for r in swept_rows if int(r[0]) == s_idx * runs + run]
                assert rows and rows == [r[1:] for r in alone_rows if int(r[0]) == run]

    def test_decay_sweep_memory_does_not_grow_with_runs(self, monkeypatch):
        # each run is drawn, fitted and scored at every sweep value at once,
        # so only its outcomes, a few floats, wait for the later values;
        # keeping each run's operators (16 of 2 x 160 floats, some 43 KB)
        # would add about 1 MB from 2 to 4 groups of runs, and a kept fit
        # (some 3 KB) is seen by its Q0 outliving its group
        group = estimators._GROUP_ROWS // 640  # 64 mask entries of 10 sensors

        def sweep(runs):
            return run_localization_experiment(LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=1.0,
                decay_scale=(0.5, 2.0), source=(60.0, 70.0), runs=runs,
                schemes=("opt", "local"), seed=1,
            ))

        def peak(runs):
            tracemalloc.start()
            try:
                sweep(runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: a first run's one-time costs (caches, lazy imports) are not the runs'
        assert peak(4 * group) - peak(2 * group) < 150_000

        qs, real_wls_group = [], bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            assert [q() for q in qs] == [None] * len(qs)  # every earlier group's Q0 is gone
            fits = real_wls_group(runs, with_global, with_local, with_q)
            qs.extend(weakref.ref(q) for *_, q in fits)
            return fits

        monkeypatch.setattr(bench, "wls_group", wls_group)
        sweep(3 * group)
        assert len(qs) == 3 * group

    def test_traced_sweep_memory_does_not_grow_with_runs(self):
        # a group's trace rows are written before the next group is scored,
        # so the peak holds one group's rows (some 1.3 MB of 16-head con
        # rows); holding a whole draw's rows would add about 2.6 MB from 2
        # to 4 groups of runs, and holding the last group's rows while the
        # next is scored some 0.2 to 0.3 MB
        group = estimators._GROUP_ROWS // 640  # 64 mask entries of 10 sensors

        class Sink:  # a file that keeps nothing but its line count
            lines = 0

            def write(self, line):
                self.lines += 1

        def peak(runs):
            sink = Sink()
            cfg = LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
                source=(60.0, 70.0), runs=runs, schemes=("con",), seed=1,
            )
            tracemalloc.start()
            try:
                run_localization_experiment(cfg, csv.writer(sink))
                return tracemalloc.get_traced_memory()[1], sink.lines
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up, as in the decay sweep's memory test
        (two, two_lines), (four, four_lines) = peak(2 * group), peak(4 * group)
        assert two_lines > 2 * group * 16 and four_lines > 1.8 * two_lines
        assert four - two < 150_000

    def test_traced_decay_sweep_memory_does_not_grow_with_runs(self):
        # a frozen decay_scale sweep writes its first scale's rows group by
        # group and spools each later scale's rows to a file until the draw
        # ends; holding them as tuples would add about 4.6 MB from 2 to 4
        # groups of runs at three scales
        group = estimators._GROUP_ROWS // 640  # 64 mask entries of 10 sensors

        class Sink:  # a file that keeps its line count and whether trials ascend
            lines, trial, ascending = 0, -1, True

            def write(self, line):
                trial = int(line.split(",")[0]) if self.lines else -1
                self.lines += 1
                self.ascending &= trial >= self.trial
                self.trial = trial

        def peak(runs):
            sink = Sink()
            cfg = LocalizationExperiment(
                n_heads=16, sensors_per_head=10, noise_std=1.0, decay_scale=(0.5, 1.0, 2.0),
                source=(60.0, 70.0), runs=runs, schemes=("con",), seed=1,
            )
            tracemalloc.start()
            try:
                run_localization_experiment(cfg, csv.writer(sink))
                return tracemalloc.get_traced_memory()[1], sink
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up, as in the decay sweep's memory test
        (two, two_sink), (four, four_sink) = peak(2 * group), peak(4 * group)
        # every scale's rows reach the trace in trial order, the last trial
        # being the last scale's last run
        assert two_sink.ascending and four_sink.ascending
        assert (two_sink.trial, four_sink.trial) == (3 * 2 * group - 1, 3 * 4 * group - 1)
        assert two_sink.lines > 3 * 2 * group * 16 and four_sink.lines > 1.8 * two_sink.lines
        assert four - two < 150_000

    @pytest.mark.parametrize(
        "sweep",
        [
            {"noise_std": (20.0, 60.0), "decay_scale": 1.0, "sensors_per_head": 3},
            {"noise_std": 1.0, "decay_scale": (0.05, 1.0, 20.0), "sensors_per_head": 10},
        ],
        ids=["traced-noise", "frozen-decay"],
    )
    def test_groups_scored_out_of_order_give_the_in_order_sweep(self, monkeypatch, sweep):
        # a pool may score a draw's groups in any order: placing each
        # group's tables and trace rows by its runs' indices and reducing
        # them gives the records and trace of the in-order sweep
        cfg = LocalizationExperiment(
            n_heads=16, source=(60.0, 70.0), runs=10,
            schemes=("global", "con", "wei", "opt", "local"), seed=3, **sweep,
        )
        # groups of 4, 4 and 2 three-sensor runs, or ten of one ten-sensor run
        monkeypatch.setattr(estimators, "_GROUP_ROWS", 1000)
        draws, real_wls_groups = [], bench.wls_groups

        def wls_groups(runs, with_global, with_local):
            draws.append([])
            for group in real_wls_groups(runs, with_global, with_local):
                draws[-1].append(group)
                yield group

        monkeypatch.setattr(bench, "wls_groups", wls_groups)
        trace = io.StringIO()
        records = run_localization_experiment(cfg, csv.writer(trace))

        frozen = cfg.sweep_field == "decay_scale"
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["trial", "epoch", "head", "x1", "x2", "max_step"])
        placed = []
        for d, groups in enumerate(draws):
            assert len(groups) > 1
            values = cfg.decay_scale if frozen else (cfg.noise_std[d],)
            scales = values if frozen else (cfg.decay_scale,)
            sigma = cfg.noise_std if frozen else values[0]
            # filled so that a slot that no group fills would show in the records
            shape = (len(scales), cfg.runs, len(cfg.schemes))
            bounds = np.full(cfg.runs, np.nan)
            done, epochs = np.ones(shape, bool), np.ones(shape, int)
            errors = np.full(shape, np.nan)
            rows = [[None] * cfg.runs for _ in scales]
            starts = np.cumsum([0] + [len(group) for group in groups])
            for g in reversed(range(len(groups))):
                tables = bench._score_group(cfg, sigma, groups[g], scales, "con")
                runs = slice(starts[g], starts[g + 1])
                bounds[runs] = tables[0]
                for table, part in zip((done, errors, epochs), tables[1:4]):
                    table[:, runs] = part
                for s, part in enumerate(tables[4]):
                    rows[s][runs] = part
            placed += bench._records(cfg, values, bounds, done, errors, epochs)
            for s, r in itertools.product(range(len(scales)), range(cfg.runs)):
                index = (d + s) * cfg.runs + r
                writer.writerows([bench._format_cell(c) for c in (index, *row)]
                                 for row in rows[s][r])
        assert placed == records
        assert out.getvalue() == trace.getvalue()

    def test_runs_that_fit_the_same_heads_share_each_diffuse_call(self, monkeypatch):
        # a group's runs go to one diffuse call per scheme, and for wei per
        # scale, for each set of fitted heads: here runs 0, 2 and 3 fit all
        # 16 heads, and run 1 loses head 5
        real_wls_group, real_diffuse = bench.wls_group, bench.diffusion.diffuse
        calls = []

        def wls_group(runs, with_global, with_local, with_q):
            fits = real_wls_group(runs, with_global, with_local, with_q)
            position, heads, positions, q = fits[1]
            keep = heads != 5
            fits[1] = position, heads[keep], positions[keep], q
            return fits

        def diffuse(estimates, scheme, hoods, *args, decay_scale, **kwargs):
            calls.append((scheme, decay_scale, estimates.shape[:2]))
            return real_diffuse(estimates, scheme, hoods, *args, decay_scale=decay_scale,
                                **kwargs)

        monkeypatch.setattr(bench, "wls_group", wls_group)
        monkeypatch.setattr(bench.diffusion, "diffuse", diffuse)
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=1.0, decay_scale=(0.5, 2.0),
            source=(60.0, 70.0), runs=4, schemes=("con", "wei"), seed=6,
        )
        records = run_localization_experiment(cfg)
        assert all(np.isfinite(r.rmse) and r.fail_count == 0 for r in records)
        cells = [(0.5, "con"), (0.5, "wei"), (2.0, "wei")]
        assert calls == ([(scheme, scale, (3, 16)) for scale, scheme in cells]
                         + [(scheme, scale, (1, 15)) for scale, scheme in cells])

    def test_five_scheme_run_never_imports_numpy_ma(self):
        # numpy.ma costs about 1.5 MB of a process's memory; np.median (in
        # wei) and np.unique (in opt) import it, and no scheme needs it
        code = (
            "import sys\n"
            "from locbench.bench import LocalizationExperiment, run_localization_experiment\n"
            "run_localization_experiment(LocalizationExperiment(\n"
            "    n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,\n"
            "    source=(60.0, 70.0), runs=2, schemes=('global', 'con', 'wei', 'opt', 'local'),\n"
            "    seed=1))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_large_grid_memory_holds_no_operators_without_opt(self):
        # one 256-head run's (F, 2, K) operators alone would hold 10.5 MB;
        # without opt they are never formed
        cfg = LocalizationExperiment(
            n_heads=256, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=1, schemes=("global", "con", "local"), seed=5,
        )
        tracemalloc.start()
        try:
            run_localization_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    @pytest.mark.parametrize(
        "sweep, groups",
        [
            ({"n_heads": (9, 16), "decay_scale": 1.0}, [[5, 5], [4, 1, 2, 2, 1]]),
            ({"n_heads": 16, "decay_scale": (0.05, 1.0, 20.0)}, [[5], [2, 2, 1]]),
        ],
        ids=["traced-odd-grid", "frozen-decay"],
    )
    def test_group_budget_does_not_change_the_records(self, monkeypatch, sweep, groups):
        # a 9-head run fits 420 rows with its global fit, a 16-head one 800,
        # so the default budget of 8,192 rows puts each cell's 5 runs in one
        # group, a budget of 2,048 puts 4 and 2 runs in a group, and a budget
        # of one row fits every run alone
        cfg = LocalizationExperiment(
            sensors_per_head=10, noise_std=1.0, source=(60.0, 70.0), runs=5,
            schemes=("global", "opt", "con", "wei", "local"), seed=4, **sweep,
        )
        sizes, real_wls_group = [], bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            sizes.append(len(runs))
            return real_wls_group(runs, with_global, with_local, with_q)

        monkeypatch.setattr(bench, "wls_group", wls_group)

        def traced():
            trace = io.StringIO()
            return run_localization_experiment(cfg, csv.writer(trace)), trace.getvalue()

        grouped = traced()
        assert sizes == groups[0]
        for budget, expected in ((2048, groups[1]), (1, [1] * sum(groups[0]))):
            monkeypatch.setattr(estimators, "_GROUP_ROWS", budget)
            sizes.clear()
            assert traced() == grouped
            assert sizes == expected

    def test_group_fit_logs_keep_every_record(self, monkeypatch, caplog):
        # a group logs its runs' fit lines, then each diffuse call's lines
        # for all its runs, so the records come in another order than when
        # every run is fitted and diffused alone, but they are the same
        # records, and a replay logs them in the same order; at a decay
        # scale of 1e-4 wei's median weights underflow in every epoch
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1e-4,
            source=(60.0, 70.0), runs=5, schemes=bench.ALL_SCHEMES, seed=2,
            max_epochs=2,
        )

        def logged():
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="locbench"):
                run_localization_experiment(cfg)
            return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

        def kind(name, level, message):
            if level == logging.DEBUG:
                return "fit"
            if message.startswith("median weights underflowed"):
                return "underflow"
            return message.split(" did not settle")[0] if "did not settle" in message else None

        grouped = logged()
        assert logged() == grouped
        kinds = Counter(k for k in (kind(*record) for record in grouped) if k)
        assert kinds == {"fit": 5, "diffusion (con)": 5, "underflow": 10,
                         "diffusion (wei)": 5, "diffusion (opt)": 5}
        monkeypatch.setattr(estimators, "_GROUP_ROWS", 1)
        alone = logged()
        assert alone != grouped and Counter(alone) == Counter(grouped)

    @pytest.mark.parametrize("scheme", ["con", "wei", "opt"])
    def test_failed_local_fit_is_left_out(self, monkeypatch, scheme):
        # diffusion runs on the sub-network of the heads whose fit succeeded
        failed_head = 5
        real_wls_group = bench.wls_group

        def wls_group(*args):
            fits = []
            for position, heads, positions, q in real_wls_group(*args):
                keep = heads != failed_head
                q = None if q is None else q[np.ix_(keep, keep)]
                fits.append((position, heads[keep], positions[keep], q))
            return fits

        monkeypatch.setattr(bench, "wls_group", wls_group)
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=(scheme,), seed=10,
        )
        trace = io.StringIO()
        (rec,) = run_localization_experiment(cfg, csv.writer(trace))
        assert np.isfinite(rec.rmse)
        assert rec.fail_count == 0
        rows = list(csv.DictReader(io.StringIO(trace.getvalue())))
        assert {int(row["head"]) for row in rows} == set(range(16)) - {failed_head}

    @pytest.mark.parametrize(
        "schemes, fits",
        [(("con", "wei"), 0), (("global", "con"), 3), (("local", "global"), 3)],
        ids=["con-wei", "global-con", "local-global"],
    )
    def test_global_fit_runs_only_when_configured(self, monkeypatch, schemes, fits):
        # nothing but the global scheme reads the global fit
        calls = []
        real_wls_group = bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            fits = real_wls_group(runs, with_global, with_local, with_q)
            calls.extend(None for fit in fits if fit[0] is not None)  # the runs' global fits
            return fits

        monkeypatch.setattr(bench, "wls_group", wls_group)
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=3, schemes=schemes, seed=12,
        )
        records = run_localization_experiment(cfg)
        assert len(calls) == fits
        assert all(np.isfinite(r.rmse) for r in records)

    def test_global_only_sweep_fits_no_heads(self, monkeypatch):
        # no scheme but global reads a head's fit, so no run takes its
        # selection weights or fits a head, and the global records are those
        # of the same sweep with local; an odd grid's global fits all fail,
        # since they start on the middle head
        cfg = LocalizationExperiment(
            n_heads=(9, 16), sensors_per_head=10, noise_std=1.0, decay_scale=1.0,
            source=(60.0, 70.0), runs=4, schemes=("global",), seed=7,
        )
        fitted, real_wls_group = [], bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            fits = real_wls_group(runs, with_global, with_local, with_q)
            fitted.extend((with_local, heads.size) for _, heads, _, _ in fits)
            return fits

        def scored(schemes):
            fitted.clear()
            weights = mock.Mock(wraps=estimators._selection)
            monkeypatch.setattr(estimators, "_selection", weights)
            records = run_localization_experiment(dataclasses.replace(cfg, schemes=schemes))
            rows = [(r.sweep_value, r.rmse, r.crlb_rmse, r.fail_count) for r in records
                    if r.scheme == "global"]
            return np.array(rows), weights.call_count

        monkeypatch.setattr(bench, "wls_group", wls_group)
        alone, built = scored(("global",))
        assert fitted == [(False, 0)] * 8 and built == 0
        both, built = scored(("global", "local"))
        assert all(with_local and heads for with_local, heads in fitted)
        assert len(fitted) == 8 and built == 8
        assert alone[:, 3].tolist() == [4, 0] and np.isnan(alone[0, 1])
        np.testing.assert_array_equal(alone, both)

    @pytest.mark.parametrize("opt", [False, True], ids=["no-opt", "opt"])
    def test_two_sixty_four_head_runs_form_one_group(self, monkeypatch, opt):
        # a 64-head run fits 3,520 rows with its global fit, so the budget
        # puts two in a group; only opt reads Q
        calls, real_wls_group = [], bench.wls_group

        def wls_group(runs, with_global, with_local, with_q):
            fits = real_wls_group(runs, with_global, with_local, with_q)
            calls.extend((len(runs), with_global, with_q, fit[3] is None) for fit in fits)
            return fits

        monkeypatch.setattr(bench, "wls_group", wls_group)
        cfg = LocalizationExperiment(
            n_heads=64, sensors_per_head=10, noise_std=(1.0,), decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=("global", "con", "local") + ("opt",) * opt,
            seed=1,
        )
        records = run_localization_experiment(cfg)
        assert calls == [(2, True, opt, not opt)] * 2
        assert all(np.isfinite(r.rmse) for r in records)


class TestEmitCsv:
    def test_empty_record_list_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError, match="no records"):
            emit_csv([], path)
        assert not path.exists()

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


def run_cli(args, timeout=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "locbench", *args], capture_output=True, text=True,
        timeout=timeout, env=env,
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

    def test_empty_trace_path_exits_two(self, tmp_path, capsys):
        # "" is a path that cannot be opened, not a trace left off
        cfg, out = tmp_path / "l.cfg", tmp_path / "l.csv"
        cfg.write_text(LOCALIZE_CFG)
        assert cli.main(["localize", "--config", str(cfg), "--out", str(out), "--trace", ""]) == 2
        assert capsys.readouterr().err == "error: [Errno 2] No such file or directory: ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("trace", ["x.csv", "./x.csv", "link.csv"])
    def test_trace_and_out_naming_one_file_exit_two(self, tmp_path, monkeypatch, capsys, trace):
        # the records would overwrite the trace: stopped before either file is opened
        monkeypatch.chdir(tmp_path)
        Path("l.cfg").write_text(LOCALIZE_CFG)
        Path("link.csv").symlink_to("x.csv")
        with mock.patch.object(cli, "run_localization_experiment") as run:
            code = cli.main(["localize", "--config", "l.cfg", "--out", "x.csv", "--trace", trace])
        assert code == 2 and not run.called
        err = f"error: --trace {trace!r} and --out 'x.csv' name one file\n"
        assert capsys.readouterr().err == err
        assert not Path("x.csv").exists()

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

    @pytest.mark.parametrize("noise", ["1e-200,", "1e-160,", "1e160,"])
    def test_noise_outside_the_float_range_exits_two_at_load(self, tmp_path, noise):
        # 1e-200 squares to a zero variance; 1e-160 and 1e160 used to end in
        # an all-NaN CSV and a singular-Fisher error
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("noise_std = 1.0,", f"noise_std = {noise}"))
        out = tmp_path / "out.csv"
        proc = run_cli(["localize", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "noise_std" in proc.stderr
        assert not out.exists()

    def test_single_head_exits_two_at_load(self, tmp_path):
        # the only start point is the one head, a node of its own rows, so
        # every scheme used to fail every run of an all-NaN CSV
        cfg = tmp_path / "one.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("n_heads = 16", "n_heads = 1"))
        out = tmp_path / "out.csv"
        proc = run_cli(["localize", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "n_heads" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("ranging", RANGING_CFG.replace("point = 50", f"point = {10**15}")),
            (
                "localize",
                LOCALIZE_CFG.replace("n_heads = 16", f"n_heads = 4, {10**16}")
                .replace("noise_std = 1.0,", "noise_std = 1.0"),
            ),
        ],
        ids=["trials_per_point", "n_heads"],
    )
    def test_sizes_beyond_the_address_space_exit_two(self, tmp_path, kind, config):
        # a (10**15,) float array or a (10**16,) index array needs more than
        # a 48-bit address space, so numpy's allocation fails at once and
        # takes no memory; the (10**16,) one fails at load, in the head
        # check, as it would in the first run of that cell. A
        # ranging run that allocated its errors block by block would draw
        # trials for hours before failing, hence the time bound
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        out = tmp_path / "out.csv"
        proc = run_cli([kind, "--config", str(cfg), "--out", str(out)], timeout=30)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("error:") == 1
        assert proc.stderr.splitlines()[-1].startswith("error: Unable to allocate")
        assert not out.exists()

    def test_distant_source_still_runs(self, tmp_path):
        cfg = tmp_path / "distant.cfg"
        cfg.write_text(LOCALIZE_CFG.replace("source = 60, 70", "source = 1e9, 70"))
        out = tmp_path / "out.csv"
        assert cli.main(["localize", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("n_heads", [4, 16, 64])
    @pytest.mark.parametrize("source", ["1e9, 70", "-1e9, 70", "60, 1e9", "1e9, 1e9"])
    def test_sources_at_the_bound_run_in_every_direction(self, tmp_path, n_heads, source):
        # 1e10 out, a 4- or 16-head run's Fisher information turns singular
        # on some seeds; the source rule stops ten times nearer
        cfg = tmp_path / "bound.cfg"
        cfg.write_text(
            LOCALIZE_CFG.replace("n_heads = 16", f"n_heads = {n_heads}")
            .replace("source = 60, 70", f"source = {source}")
            .replace("schemes = global, con", "schemes = global, con, wei, opt, local")
        )
        out = tmp_path / "out.csv"
        assert cli.main(["localize", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 6

    @pytest.mark.parametrize(
        "n_heads, noise, source",
        [(4, "1e150,", "1e6, 3"), (64, "1e150,", "1e6, 3"),
         (4, "1e140,", "1e9, 1e9"), (16, "1e140,", "1e9, 1e9")],
    )
    def test_underflowed_fisher_information_exits_two(
        self, tmp_path, capsys, monkeypatch, n_heads, noise, source
    ):
        # each value is inside its own bound, but together they underflow
        # the Fisher information, whose inverse is not finite: the first two
        # ended in "math domain error", the last two wrote crlb_rmse = inf;
        # a group's bounds are taken before its fits, so none is fitted
        fit = mock.Mock(side_effect=AssertionError("fitted a group"))
        monkeypatch.setattr(bench, "wls_group", fit)
        cfg = tmp_path / "fisher.cfg"
        cfg.write_text(
            LOCALIZE_CFG.replace("n_heads = 16", f"n_heads = {n_heads}")
            .replace("noise_std = 1.0,", f"noise_std = {noise}")
            .replace("source = 60, 70", f"source = {source}")
            .replace("runs = 4", "runs = 2").replace("seed = 5", "seed = 1")
        )
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["localize", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: Fisher information is singular\n"
        assert not fit.called and not out.exists()

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

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("snr_grid_db", "-inf, 0", "snr_grid_db"),
            ("snr_grid_db", "nan", "snr_grid_db"),
            ("common_factor", "1e306", "finite"),
        ],
    )
    def test_bad_ranging_config_exits_two_at_load(self, tmp_path, key, value, named):
        # these ended in a ZeroDivisionError traceback, a misleading
        # remainder error and an OverflowError traceback
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in RANGING_CFG.splitlines()
        ]
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        proc = run_cli(["ranging", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert named in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("common_factor, runs", [("1e200", False), ("1e140", True)])
    def test_phase_error_scale_is_checked_at_load(self, tmp_path, common_factor, runs):
        # at 1e200 the remainder errors used to overflow to inf, with two
        # numpy warnings and a misleading remainder error; 1e140 keeps the
        # largest scale near 5.6e289, inside the bound
        cfg = tmp_path / "span.cfg"
        cfg.write_text(
            f"common_factor = {common_factor}\ncoprime_factors = 3, 5\n"
            "snr_grid_db = -3000, 0\ntrials_per_point = 2\nseed = 3\n"
        )
        out = tmp_path / "out.csv"
        proc = run_cli(["ranging", "--config", str(cfg), "--out", str(out)])
        assert "RuntimeWarning" not in proc.stderr
        if runs:
            assert proc.returncode == 0 and proc.stderr == ""
            assert len(out.read_text().splitlines()) == 3
        else:
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
            assert "wavelength" in proc.stderr and "snr_grid_db" in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize(
        "common_factor, runs", [("5e-324", False), ("1e-320", False), ("80", True), ("1e-150", True)]
    )
    def test_underflowing_remainder_error_exits_two_at_load(
        self, tmp_path, common_factor, runs
    ):
        # at 5e-324 the remainder errors flushed to zero and read a
        # relative_error of 0 at 30 dB; at 1e-320 they were subnormal and
        # moved the 4th digit
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            f"common_factor = {common_factor}\ncoprime_factors = 3, 5\n"
            "snr_grid_db = 0, 10, 30\ntrials_per_point = 200\nseed = 1\n"
        )
        out = tmp_path / "out.csv"
        proc = run_cli(["ranging", "--config", str(cfg), "--out", str(out)])
        if runs:
            assert proc.returncode == 0 and proc.stderr == ""
            assert len(out.read_text().splitlines()) == 4
        else:
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
            assert "smallest wavelength" in proc.stderr and "snr_grid_db" in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("factors, runs", [("1099511627776, 3", True), ("3, 1099511627776", False)])
    def test_factor_sets_beyond_int64_exit_two_at_load(self, tmp_path, factors, runs):
        # a huge first factor leaves 3 first quotients and quotients up to
        # 2**40, and its tie cut of 1e-9 * lambda_0 flags every trial; a huge
        # second factor would need CRT products near 2**80
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            f"common_factor = 1\ncoprime_factors = {factors}\n"
            "snr_grid_db = 0, 30\ntrials_per_point = 20\nseed = 1\n"
        )
        out = tmp_path / "out.csv"
        proc = run_cli(["ranging", "--config", str(cfg), "--out", str(out)])
        if runs:
            assert proc.returncode == 0 and proc.stderr == ""
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 2 and all(row.endswith(",1") for row in rows)
        else:
            assert proc.returncode == 2
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
            assert "prod(factors) = 3298534883328" in proc.stderr and "2**63 - 1" in proc.stderr
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


@st.composite
def ranging_configs(draw):
    """The text of one ranging config. Each key is typical or, when a draw
    of its own says so, at the edges of its rule: the bounds, just past
    them, and values no rule admits (factors that are not co-prime, SNR
    points out of order)."""

    def at_edge(key):
        return draw(st.integers(0, 3), label=f"{key} at an edge") == 3

    common = draw(
        st.sampled_from([0.0, -1.0, 1e-300, 1e-150, 1e150, 1e300, 1e308, math.inf, math.nan])
        if at_edge("common_factor") else st.floats(1e-3, 1e4), label="common_factor",
    )
    factors = draw(
        st.lists(st.sampled_from([1, 2, 3, 4, 15, 16, 17, 2**31 - 1, 2**32, 2**61 - 1])
                 | st.integers(2, 40), min_size=2, max_size=4)
        if at_edge("coprime_factors") else coprime_factor_sets(), label="coprime_factors",
    )
    edge = at_edge("snr_grid_db")
    points = st.floats(-60.0, 60.0) | st.sampled_from(
        [-3000.5, -3000.0, -2999.0, 2999.0, 3000.0, 3000.5, math.inf, -math.inf, math.nan]
        if edge else [math.inf]
    )
    snr = draw(st.lists(points, min_size=1 - edge, max_size=4), label="snr_grid_db")
    if not (edge and draw(st.booleans(), label="as drawn")):
        snr = sorted(set(snr))
    trials = draw(
        st.sampled_from([-1, 0, 1, 100]) if at_edge("trials_per_point") else st.integers(1, 100),
        label="trials_per_point",
    )
    seed = draw(
        st.sampled_from([-1, 0, 2**64 - 1, 2**64, 2**200]) if at_edge("seed")
        else st.integers(0, 2**200), label="seed",
    )
    return (
        f"common_factor = {common!r}\n"
        f"coprime_factors = {', '.join(map(str, factors))}\n"
        f"snr_grid_db = {', '.join(map(repr, snr))}\n"
        f"trials_per_point = {trials}\nseed = {seed}\n"
    )


class TestRangingConfigFuzz:
    # derandomized: the same examples on every run
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=ranging_configs())
    def test_a_config_runs_to_finite_rows_or_fails_with_one_line(self, text):
        # in process, with numpy's RuntimeWarnings raised: a config either
        # writes rows whose unambiguous trials have a finite mean and
        # standard error, or exits 2 with one error line
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "r.cfg", Path(tmp) / "r.csv"
            cfg.write_text(text)
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error", RuntimeWarning)
                code = cli.main(["ranging", "--config", str(cfg), "--out", str(out)])
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert not out.exists()
                return
            assert code == 0 and err.getvalue() == ""
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert rows
            for row in rows:
                if float(row["ambiguity_rate"]) < 1:
                    assert math.isfinite(float(row["relative_error"]))
                    assert math.isfinite(float(row["stderr"]))


def csv_digest(records, tmp_path):
    out = tmp_path / "out.csv"
    emit_csv(records, out)
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestReplayDigests:
    """Small sweeps pinned to the bytes of their CSVs.

    A change that moves any byte of these files changes behaviour and has
    to say so; the digests are updated only together with such a note.
    They live in pinned_digests.json, one set per OpenBLAS kernel.
    """

    def test_reference_kernel_configs_match_the_benchmark(self):
        # the replays of the shipped configs read their digests from the same file
        reference = json.loads(
            (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
        )
        for name in ("configs/localize.cfg", "configs/ranging.cfg"):
            assert DIGESTS[REFERENCE_KERNEL][name] == reference[name]

    def test_a_kernel_without_digests_is_held_to_the_reference(self):
        for name, digest in DIGESTS[REFERENCE_KERNEL].items():
            assert pinned(name, "Sandybridge") == digest
            assert pinned(name, None) == digest
        for kernel, recorded in DIGESTS.items():
            assert set(recorded) == set(DIGESTS[REFERENCE_KERNEL]), kernel

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
        assert_pinned("test_decay_scale_sweep", csv_digest(records, tmp_path))

    def test_decay_scale_sweep_without_simd_dispatch(self, tmp_path):
        # median_weights' np.exp is the one call on the run path that numpy
        # dispatches by CPU; the underflow sweep above, run by the CLI with
        # the AVX-512 groups off and then AVX2 (X86_V3) off too, keeps its digest
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        found = [g for g in umath.__cpu_dispatch__ if umath.__cpu_features__.get(g)]
        cfg = tmp_path / "decay.cfg"
        cfg.write_text(
            "n_heads = 16\nsensors_per_head = 10\nnoise_std = 1.0\n"
            "decay_scale = 0.01, 1.0, 100.0\nsource = 60, 70\nruns = 3\n"
            "schemes = global, con, wei, opt, local\nseed = 1\n"
        )
        avx512 = ["X86_V4", "AVX512_ICL", "AVX512_SPR"]
        runs = [[g for g in groups if g in found] for groups in (avx512, ["X86_V3", *avx512])]
        if not runs[-1]:
            pytest.skip(f"numpy dispatches none of X86_V3, {', '.join(avx512)} on this CPU")
        out = tmp_path / "out.csv"
        for off in filter(None, runs):
            proc = run_cli(["localize", "--config", str(cfg), "--out", str(out)], timeout=120,
                           env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off)})
            assert proc.returncode == 0, proc.stderr
            assert "median weights underflowed" in proc.stderr
            assert_pinned("test_decay_scale_sweep", hashlib.sha256(out.read_bytes()).hexdigest())

    def test_sixty_four_head_sweep(self, tmp_path):
        # at 64 heads some far-field local fits walk out along a bearing,
        # which moves the con and local rmse far above the bound
        cfg = LocalizationExperiment(
            n_heads=(64,), sensors_per_head=10, noise_std=1.0, decay_scale=1.0,
            source=(60.0, 70.0), runs=1, schemes=("global", "con", "local"),
            seed=3,
        )
        digest = csv_digest(run_localization_experiment(cfg), tmp_path)
        assert_pinned("test_sixty_four_head_sweep", digest)

    def test_thirty_six_head_opt_sweep(self, tmp_path):
        # a 6x6 grid stacks 16 edge and 16 inner heads in the weight QPs;
        # recorded before the QPs were solved in stacks
        cfg = LocalizationExperiment(
            n_heads=(36,), sensors_per_head=10, noise_std=1.0, decay_scale=1.0,
            source=(60.0, 70.0), runs=2, schemes=("opt",), seed=3,
        )
        digest = csv_digest(run_localization_experiment(cfg), tmp_path)
        assert_pinned("test_thirty_six_head_opt_sweep", digest)

    def test_nine_head_sweep_fits_the_corner_heads(self, tmp_path):
        # the deployment center of an odd-sided grid is its middle head:
        # the global fit, and the local fits of that head and its
        # neighbours, start on one of their own nodes and fail; the four
        # corner heads fit, and share no edge, so diffusion stops at once
        cfg = LocalizationExperiment(
            n_heads=9, sensors_per_head=10, noise_std=(0.5, 1.0),
            decay_scale=1.0, source=(60.0, 70.0), runs=2,
            schemes=("global", "con", "wei", "opt", "local"), seed=3,
        )
        records = run_localization_experiment(cfg)
        assert all(
            r.fail_count == (cfg.runs if r.scheme == "global" else 0) for r in records
        )
        digest = csv_digest(records, tmp_path)
        assert_pinned("test_nine_head_sweep_fits_the_corner_heads", digest)

    def test_traced_odd_grid_sweep(self, tmp_path):
        # the --trace file follows opt, the first diffusion scheme listed;
        # on the 9-head grid only the four corner heads fit, so its rows
        # there name heads 0, 2, 6 and 8 alone, each at epoch 1
        cfg = tmp_path / "traced.cfg"
        cfg.write_text(TRACED_CFG)
        out, trace = tmp_path / "traced.csv", tmp_path / "trace.csv"
        proc = run_cli(
            ["localize", "--config", str(cfg), "--out", str(out), "--trace", str(trace)]
        )
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
        assert {(r[1], r[2]) for r in rows if int(r[0]) < 3} == {
            ("1", "0"), ("1", "2"), ("1", "6"), ("1", "8")
        }
        for name, path in (("test_traced_odd_grid_sweep", out),
                           ("test_traced_odd_grid_sweep.trace", trace)):
            assert_pinned(name, hashlib.sha256(path.read_bytes()).hexdigest())

    def test_traced_frozen_decay_sweep(self, tmp_path):
        # the trace follows con, which reads no decay scale: every later
        # scale's rows repeat the first scale's, trial for trial
        cfg = LocalizationExperiment(
            n_heads=16, sensors_per_head=3, noise_std=1.0, decay_scale=(0.05, 1.0, 20.0),
            source=(60.0, 70.0), runs=4, schemes=("con", "wei", "opt"), seed=3,
        )
        sink = io.StringIO()
        records = run_localization_experiment(cfg, csv.writer(sink, lineterminator="\n"))
        rows = [line.split(",", 1) for line in sink.getvalue().splitlines()[1:]]
        by_trial = [[rest for trial, rest in rows if int(trial) == t] for t in range(12)]
        assert all(by_trial[t] and by_trial[t] == by_trial[t % 4] for t in range(12))
        assert_pinned("test_traced_frozen_decay_sweep", csv_digest(records, tmp_path))
        trace = hashlib.sha256(sink.getvalue().encode()).hexdigest()
        assert_pinned("test_traced_frozen_decay_sweep.trace", trace)

    def test_ranging_sweep(self, tmp_path):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(10.0, 20.0), trials_per_point=200, seed=1,
        )
        digest = csv_digest(run_ranging_experiment(cfg), tmp_path)
        assert_pinned("test_ranging_sweep", digest)

    def test_two_factor_wrapping_sweep(self, tmp_path):
        # with two wavelengths a noisy difference can round to -Gamma_1 or
        # Gamma_0, which no pair of quotients in range forms (22 of these
        # 6,000 trials); recorded with the quotient search that the closed
        # form replaced
        cfg = RangingExperiment(
            common_factor=100.0, coprime_factors=(7, 9),
            snr_grid_db=(-5.0, 0.0, 10.0), trials_per_point=2000, seed=5,
        )
        digest = csv_digest(run_ranging_experiment(cfg), tmp_path)
        assert_pinned("test_two_factor_wrapping_sweep", digest)

    def test_four_factor_single_trial_sweep(self, tmp_path):
        # one trial per point, heavy wrapping at -40 dB and a noiseless
        # point; recorded before each point's trials were folded as a block
        cfg = RangingExperiment(
            common_factor=20.0, coprime_factors=(11, 13, 15, 16),
            snr_grid_db=(-40.0, 0.0, math.inf), trials_per_point=1, seed=7,
        )
        digest = csv_digest(run_ranging_experiment(cfg), tmp_path)
        assert_pinned("test_four_factor_single_trial_sweep", digest)


# ---------------------------------------------------------------------------
# the earlier per-trial fold and perturbation, kept as a bitwise oracle for
# the (T, size) blocks of (point, trial) rows that are now folded and
# perturbed at once


def oracle_remainders_of(dividend, ws):
    r = float(dividend)
    if not 0.0 <= r < ws.max_range:
        raise ValueError(f"dividend {r} outside [0, {ws.max_range})")
    quotients = np.floor(r / ws.wavelengths)
    remainders = r - quotients * ws.wavelengths
    low = remainders < 0.0
    quotients[low] -= 1.0
    remainders[low] += ws.wavelengths[low]
    high = remainders >= ws.wavelengths
    quotients[high] += 1.0
    remainders[high] -= ws.wavelengths[high]
    return remainders, quotients.astype(int)


def oracle_simulate_phase_remainders(r_true, ws, snr_db, rng):
    exact, _ = oracle_remainders_of(r_true, ws)
    sigma_phi = phase_noise_std(snr_db)
    if sigma_phi == 0.0:
        return exact
    shift = ws.wavelengths / TWO_PI * rng.normal(0.0, sigma_phi, size=ws.size)
    noisy = np.mod(exact + shift, ws.wavelengths)
    hit = noisy >= ws.wavelengths
    noisy[hit] -= ws.wavelengths[hit]
    return noisy


def oracle_ranging(cfg):
    """(noisy block per SNR point, records) of the per-trial sweep."""
    ws = make_wavelength_set(cfg.common_factor, cfg.coprime_factors)
    blocks, records = [], []
    for p_idx, snr_db in enumerate(cfg.snr_grid_db):
        truths = np.empty(cfg.trials_per_point)
        noisy = np.empty((cfg.trials_per_point, ws.size))
        for t_idx in range(cfg.trials_per_point):
            rng = np.random.default_rng([cfg.seed, p_idx, t_idx])
            r = float(rng.uniform(0.0, ws.max_range))
            if r >= ws.max_range:
                r = float(np.nextafter(ws.max_range, 0.0))
            truths[t_idx] = r
            noisy[t_idx] = oracle_simulate_phase_remainders(r, ws, snr_db, rng)
        blocks.append(noisy)
        estimates, _, ambiguous = reconstruct_batch(noisy, ws)
        solved = ~ambiguous
        errors = np.abs(estimates[solved] - truths[solved]) / ws.max_range
        if errors.size:
            mean = float(errors.mean())
            stderr = (
                float(errors.std(ddof=1) / math.sqrt(errors.size))
                if errors.size > 1
                else 0.0
            )
        else:
            mean = math.nan
            stderr = math.nan
        records.append(
            RangingRecord(
                snr_db=snr_db,
                relative_error=mean,
                stderr=stderr,
                ambiguity_rate=int(ambiguous.sum()) / cfg.trials_per_point,
            )
        )
    return blocks, records


def run_capturing_blocks(cfg):
    """(noisy rows of every block, in call order, records) of
    run_ranging_experiment."""
    blocks = []
    simulate = bench.simulate_phase_remainders

    def capture(*args):
        blocks.append(simulate(*args))
        return blocks[-1]

    with mock.patch.object(bench, "simulate_phase_remainders", capture):
        records = run_ranging_experiment(cfg)
    return np.concatenate(blocks), records


def record_rows(records):
    return np.array([dataclasses.astuple(r) for r in records], dtype=float)


@st.composite
def coprime_factor_sets(draw):
    """2-4 pairwise co-prime factors: each is a prime, its square or the
    product of two primes, no prime used twice; the product stays small
    enough for a quick quotient search."""
    primes = list(draw(st.permutations((2, 3, 5, 7, 11, 13, 17, 19))))
    shapes = draw(st.lists(st.sampled_from(["p", "pp", "pq"]), min_size=2, max_size=4))
    factors = []
    for shape in shapes:
        p = primes.pop()
        factors.append({"p": p, "pp": p * p, "pq": p * primes.pop() if shape == "pq" else p}[shape])
    assume(math.prod(factors) <= 20000)
    return tuple(factors)


class TestRangingBlockMatchesPerTrialOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        factors=coprime_factor_sets(),
        common_factor=st.floats(0.01, 1000.0),
        inner=st.lists(st.floats(-39.0, 60.0), max_size=3, unique=True),
        trials=st.sampled_from([1, 2, 17, 100]),
        seed=st.integers(0, 2**96),
    )
    def test_blocks_and_records_equal_the_oracle(
        self, factors, common_factor, inner, trials, seed
    ):
        # -40 dB wraps most remainders; inf takes the noiseless path
        cfg = RangingExperiment(
            common_factor=common_factor, coprime_factors=factors,
            snr_grid_db=(-40.0, *sorted(inner), math.inf),
            trials_per_point=trials, seed=seed,
        )
        rows, records = run_capturing_blocks(cfg)
        expected_blocks, expected_records = oracle_ranging(cfg)
        expected_rows = np.concatenate(expected_blocks)
        assert rows.shape == expected_rows.shape
        for row, expected in zip(rows, expected_rows):
            assert np.array_equal(row, expected)
        assert np.array_equal(
            record_rows(records), record_rows(expected_records), equal_nan=True
        )

    def test_trial_rows_do_not_depend_on_the_trial_count(self):
        def rows(trials):  # (point, trial, wavelength)
            cfg = RangingExperiment(
                common_factor=80.0, coprime_factors=(15, 16, 17),
                snr_grid_db=(-40.0, 0.0, 20.0, math.inf),
                trials_per_point=trials, seed=11,
            )
            return run_capturing_blocks(cfg)[0].reshape(4, trials, -1)

        full = rows(100)
        for trials in (1, 2, 17):
            short = rows(trials)
            for point in range(4):
                for row, expected in zip(short[point], full[point, :trials], strict=True):
                    assert np.array_equal(row, expected)

    def test_runs_without_default_rng(self, monkeypatch):
        cfg = RangingExperiment(
            common_factor=80.0, coprime_factors=(15, 16, 17),
            snr_grid_db=(0.0, 20.0), trials_per_point=50, seed=3,
        )
        expected = oracle_ranging(cfg)[1]

        def default_rng(*args, **kwargs):
            raise AssertionError("a ranging trial called default_rng")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        assert run_ranging_experiment(cfg) == expected


def same_word_count(first, count):
    """first, first + 1, ... up to count integers that share first's 32-bit
    word count: one below 2**32, two above."""
    end = 2**32 if first < 2**32 else 2**64
    return [n for n in range(first, first + count) if n < end]


WORD_EDGES = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)
)


class TestSeedWordsMatchSeedSequence:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**130 - 1),
        first_point=WORD_EDGES,
        point_count=st.integers(1, 3),
        first_trial=WORD_EDGES,
        trial_count=st.integers(1, 3),
    )
    def test_rows_equal_seed_sequence_state(
        self, seed, first_point, point_count, first_trial, trial_count
    ):
        # (point, trial) rows, point-major as a pass lays them out, of
        # several points in one call
        pairs = [
            (p, t)
            for p in same_word_count(first_point, point_count)
            for t in same_word_count(first_trial, trial_count)
        ]
        points, trials = np.array(pairs, dtype=np.uint64).T
        words = bench._seed_words(seed, points, trials)
        assert words.shape == (len(pairs), 4) and words.dtype == np.uint64
        seeds = bench._SeedWords(words)
        for (p, t), row in zip(pairs, words):
            expected = np.random.SeedSequence([seed, p, t]).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)
            # the stream PCG64 seeds from the next row is default_rng's
            assert (
                np.random.PCG64(seeds).state
                == np.random.default_rng([seed, p, t]).bit_generator.state
            )
