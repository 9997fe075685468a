"""Tests for the CLI entry points and configuration validation."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.config import CellConfig
from repro.experiments.__main__ import main as experiments_main


class TestCellConfigValidation:
    def test_defaults_valid(self):
        config = CellConfig()
        assert config.data_slots_per_cycle in (8, 9)
        assert config.duration > 0

    def test_bad_population(self):
        with pytest.raises(ValueError):
            CellConfig(num_data_users=-1)
        with pytest.raises(ValueError):
            CellConfig(num_gps_users=9)

    def test_bad_message_size(self):
        with pytest.raises(ValueError):
            CellConfig(message_size="pareto")

    def test_warmup_must_precede_end(self):
        with pytest.raises(ValueError):
            CellConfig(cycles=10, warmup_cycles=10)

    def test_contention_floor(self):
        with pytest.raises(ValueError):
            CellConfig(min_contention_slots=0)

    def test_data_slots_depend_on_gps_and_adjustment(self):
        assert CellConfig(num_gps_users=2).data_slots_per_cycle == 9
        assert CellConfig(num_gps_users=4).data_slots_per_cycle == 8
        assert CellConfig(num_gps_users=2,
                          dynamic_slot_adjustment=False
                          ).data_slots_per_cycle == 8

    def test_derived_times(self):
        config = CellConfig(cycles=100, warmup_cycles=10)
        assert config.duration == pytest.approx(100 * 3.984375)
        assert config.warmup_until == pytest.approx(10 * 3.984375)


class TestCli:
    def test_run_json(self, capsys):
        code = cli_main(["run", "--load", "0.5", "--cycles", "40",
                         "--warmup", "8", "--data-users", "4",
                         "--gps-users", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["radio_violations"] == 0
        assert payload["utilization"] > 0.2

    def test_run_human_readable(self, capsys):
        code = cli_main(["run", "--cycles", "40", "--warmup", "8",
                         "--data-users", "4", "--gps-users", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "registrations" in out

    def test_run_with_options(self, capsys):
        code = cli_main(["run", "--cycles", "40", "--warmup", "8",
                         "--data-users", "4", "--gps-users", "1",
                         "--no-second-cf", "--no-dynamic-adjustment",
                         "--error-model", "outage",
                         "--outage-loss", "0.02", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["second_cf_gain"] == 0.0

    def test_network_command(self, capsys):
        code = cli_main(["network", "--cells", "2", "--cycles", "50",
                         "--warmup", "10", "--data-users", "3",
                         "--gps-users", "1", "--handoffs", "1",
                         "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["handoffs_completed"] == 1
        assert len(payload["cells"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--cells", "0"],
        ["--cycles", "10", "--warmup", "20"],
        ["--cells", "1", "--handoffs", "1"],
        ["--cycles", "60", "--warmup", "20", "--handoffs", "2"],
    ], ids=["no-cells", "warmup-past-end", "handoff-one-cell",
            "handoff-past-end"])
    def test_network_input_errors(self, capsys, argv):
        code = cli_main(["network", "--data-users", "2",
                         "--gps-users", "1"] + argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("network: ")
        assert captured.err.count("\n") == 1

    def test_network_metrics_are_city_families(self, capsys, tmp_path):
        from repro.obs.registry import MetricsRegistry, set_default_registry

        path = tmp_path / "network.prom"
        previous = set_default_registry(MetricsRegistry(enabled=False))
        try:
            code = cli_main(["network", "--cells", "2", "--cycles", "50",
                             "--warmup", "10", "--data-users", "3",
                             "--gps-users", "1", "--handoffs", "1",
                             "--metrics", str(path)])
        finally:
            set_default_registry(previous)
        assert code == 0
        text = path.read_text()
        assert 'osu_city_handoffs_total{shard="0",cell="1",kind="data"} 1' \
            in text

    def test_experiments_subcommand_list(self, capsys):
        code = cli_main(["experiments", "--list"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig8a" in out
        assert "table2" in out


class TestExperimentsCli:
    def test_list(self, capsys):
        assert experiments_main(["--list"]) == 0
        names = capsys.readouterr().out.split()
        assert {"table1", "table2", "fig8a", "fig8b", "fig9", "fig10",
                "fig11", "fig12a", "fig12b", "registration", "gps",
                "baselines", "ablation",
                "calibration"} <= set(names)

    def test_unknown_experiment(self, capsys):
        assert experiments_main(["does-not-exist"]) == 2

    def test_run_table_experiments(self, capsys):
        assert experiments_main(["table1", "table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all derived values match" in out
        assert "Reverse channel access times" in out
