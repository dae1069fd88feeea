import json

import numpy as np
import pytest

from oblivious_games import bellmap, cglmp, expdata, games
from oblivious_games.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_cglmp_report(capsys):
    code, report, err = run_cli(capsys, "cglmp")
    assert code == 0
    assert abs(report["results"]["a3_quantum"] - 0.7287) < 1e-4
    assert report["results"]["pnc_bound"] == 0.5
    assert report["results"]["obliviousness_residual"] < 1e-12
    assert "versions" in report and report["command"] == "cglmp"
    assert "quantum value" in err


def test_bound_rac_formula(capsys):
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:2,2")
    assert code == 0
    assert report["results"]["value"] == 0.75
    assert report["results"]["method"] == "formula"


def test_bound_oracle(capsys):
    code, report, _ = run_cli(
        capsys, "bound", "--game", "rac:2,2", "--oracle", "--messages", "2"
    )
    assert code == 0
    assert abs(report["results"]["value"] - 0.75) < 1e-9
    assert report["results"]["method"] == "lp-oracle"
    assert (report["results"]["programs"], report["results"]["pivots"]) == (2, 7)


def test_bound_cglmp3(capsys):
    code, report, _ = run_cli(capsys, "bound", "--game", "cglmp3")
    assert code == 0
    assert report["results"]["value"] == 0.5


def test_bound_game_file_runs_the_oracle(capsys, tmp_path):
    path = tmp_path / "rac22.json"
    games.save_game(games.make_rac_game(2, 2), path)
    code, plain, _ = run_cli(capsys, "bound", "--game", str(path), "--witness")
    _, forced, _ = run_cli(capsys, "bound", "--game", str(path), "--oracle", "--witness")
    assert code == 0
    assert plain["inputs"] == forced["inputs"]
    assert plain["results"] == forced["results"]
    assert plain["results"]["method"] == "lp-oracle"
    assert abs(plain["results"]["value"] - 0.75) < 1e-9


def test_bell_local_bound(capsys):
    code, report, _ = run_cli(capsys, "bell", "--bell", "cglmp3", "--local-bound")
    assert code == 0
    assert report["results"]["local_bound"] == 0.5


def test_bell_value_on_box(capsys, tmp_path):
    box_path = tmp_path / "box.json"
    bellmap.save_box(cglmp.optimal_box(), box_path)
    code, report, _ = run_cli(
        capsys, "bell", "--bell", "cglmp3", "--value", "--box", str(box_path)
    )
    assert code == 0
    assert abs(report["results"]["bell_value"] - (3 + np.sqrt(33)) / 12) < 1e-10


def test_map_verifies_identity(capsys, tmp_path):
    box_path = tmp_path / "box.json"
    bellmap.save_box(cglmp.optimal_box(), box_path)
    code, report, _ = run_cli(capsys, "map", "--bell", "cglmp3", "--box", str(box_path))
    assert code == 0
    assert abs(report["results"]["difference"]) < 1e-12


def test_exp_secondary(capsys, data_dir):
    code, report, err = run_cli(
        capsys, "exp", "--data", str(data_dir / "table2.csv"), "--secondary"
    )
    assert code == 0
    results = report["results"]
    assert abs(results["a3_primary"] - 0.7172) < 2e-3
    assert abs(results["s"] - 0.9938) < 1e-3
    assert abs(results["a3_secondary"] - 0.7118) < 1e-3
    assert "S =" in err


def test_exp_fit_mapping(capsys, data_dir):
    code, report, _ = run_cli(
        capsys, "exp", "--data", str(data_dir / "table2.csv"), "--fit-mapping"
    )
    assert code == 0
    assert report["results"]["mapping_source"] == "fitted"
    assert report["results"]["fit_residual"] < 1.0


def test_exp_mc_seed_reproducible(capsys, data_dir):
    args = ("exp", "--data", str(data_dir / "table2.csv"), "--mc", "100", "--seed", "4")
    code1, report1, _ = run_cli(capsys, *args)
    code2, report2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert report1 == report2


@pytest.mark.parametrize("samples", ["0", "50", "-1"])
def test_exp_mc_below_floor_is_rejected(capsys, data_dir, samples):
    code, report, err = run_cli(
        capsys, "exp", "--data", str(data_dir / "table2.csv"), "--mc", samples
    )
    assert code == 2
    assert report is None
    assert "100 samples" in err


def test_exp_env_seed(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("OBLIVION_SEED", "123")
    code, report, _ = run_cli(
        capsys, "exp", "--data", str(data_dir / "table2.csv"), "--mc", "100"
    )
    assert code == 0
    assert report["results"]["seed"] == 123


def test_optimize_small(capsys):
    code, report, _ = run_cli(
        capsys,
        "optimize",
        "--game", "rac:2,2",
        "--dim", "2",
        "--restarts", "2",
        "--iters", "60",
        "--seed", "1",
    )
    assert code == 0
    assert report["results"]["feasible"] is True
    assert report["results"]["value"] > 0.7
    results = report["results"]
    assert results["stop_reason"] in ("window", "stalled", "max_iters")
    assert (results["stop_reason"] == "max_iters") == (results["iterations_used"] == 60)
    per_restart = results["per_restart"]
    assert len(per_restart) == 2
    assert set(per_restart[0]) == {
        "value", "iterations_used", "stop_reason", "feasibility_residual", "feasible"
    }
    assert per_restart[results["restart_index"]]["value"] == results["value"]


def test_optimize_reports_search_wall_time(capsys):
    code, report, _ = run_cli(
        capsys, "optimize", "--game", "rac:2,2", "--dim", "2", "--restarts", "1", "--iters", "5"
    )
    assert code == 0
    assert report["results"]["wall_s"] > 0.0


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bound", "--game", "rac:2,4")
    assert code == 2
    assert "error" in err


def _rac22_spec(drop=None, **changes):
    spec = {**games.make_rac_game(2, 2).to_dict(), **changes}
    spec.pop(drop, None)
    return spec


def _mapping_without(key):
    mapping = expdata.pinned_mapping().to_dict()
    del mapping[key]
    return mapping


# "FILE" in the arguments stands for the malformed input file.
@pytest.mark.parametrize(
    "argv,content,message",
    [
        pytest.param(
            ["bound", "--game", "FILE"],
            _rac22_spec(p_alice=[float("nan"), 0.25, 0.25, 0.25]),
            "non-finite",
            id="nan-prior",
        ),
        pytest.param(
            ["bound", "--game", "FILE"], _rac22_spec(drop="payoff"), "'payoff'", id="no-payoff"
        ),
        pytest.param(["bound", "--game", "FILE"], [1, 2], "JSON object", id="game-list"),
        pytest.param(
            ["bell", "--bell", "FILE", "--local-bound"], {"coeffs": []}, "'p_alice'",
            id="functional-no-priors",
        ),
        pytest.param(
            ["bell", "--value", "--box", "FILE"], {"tabl": []}, "'table'", id="box-typo"
        ),
        pytest.param(
            ["exp", "--data", "DATA", "--mapping", "FILE"],
            _mapping_without("basis_map"),
            "'basis_map'",
            id="mapping-no-basis-map",
        ),
    ],
)
def test_nan_game_file_exit_code(capsys, tmp_path, data_dir, argv, content, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    stand_in = {"FILE": str(path), "DATA": str(data_dir / "table2.csv")}
    code, _, err = run_cli(capsys, *(stand_in.get(a, a) for a in argv))
    assert code == 2
    assert str(path) in err
    assert message in err


def test_exp_same_file_twice_exit_code(capsys, data_dir):
    path = str(data_dir / "table2.csv")
    code, report, err = run_cli(capsys, "exp", "--data", path, path)
    assert code == 2
    assert report is None
    assert f"{path}:2" in err and "repeats" in err


def test_missing_file_exit_code(capsys):
    code, _, _ = run_cli(capsys, "exp", "--data", "no_such_file.csv")
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["cglmp", "--bogus"])
    assert exc.value.code == 2


def test_reports_are_deterministic(capsys):
    code1, report1, _ = run_cli(capsys, "cglmp")
    code2, report2, _ = run_cli(capsys, "cglmp")
    assert report1 == report2
