import json
import re
import shlex

import numpy as np
import pytest
from conftest import REPO_ROOT

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


def test_bound_messages_selects_the_oracle(capsys):
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:2,3", "--messages", "3")
    assert code == 0
    assert report["inputs"] == {"game": "rac:2,3", "oracle": True, "messages": 3}
    assert report["results"]["method"] == "lp-oracle"
    assert (report["results"]["programs"], report["results"]["pivots"]) == (7, 38)


def _random_game():
    """Six inputs, three measurements, two outcomes, two families, uniform priors;
    the payoffs are the 125th draw of ``default_rng(1)``."""
    rng = np.random.default_rng(1)
    for _ in range(125):
        payoff = rng.normal(size=(6, 3, 2))
    return games.ObliviousGame(
        alice_inputs=tuple(range(6)),
        bob_inputs=(0, 1, 2),
        outcomes=(0, 1),
        p_alice=np.full(6, 1 / 6),
        p_bob=np.full(3, 1 / 3),
        payoff=payoff,
        partitions=(((0, 1, 2), (3, 4, 5)), ((0, 3), (1, 4), (2, 5))),
    )


@pytest.mark.parametrize("messages,value", [(None, 0.511146), ("3", 0.521646)])
def test_bound_oracle_is_labelled_a_lower_bound(capsys, tmp_path, messages, value):
    # two messages (the default) miss the 0.521646 that three reach: the
    # oracle is exact only from one message per decoding function, 2**3 here
    path = tmp_path / "random.json"
    games.save_game(_random_game(), path)
    extra = () if messages is None else ("--messages", messages)
    code, report, err = run_cli(capsys, "bound", "--game", str(path), *extra)
    assert code == 0
    assert round(report["results"]["value"], 6) == value
    assert err.startswith(f"lower bound {value:.6f} on the noncontextual bound")
    assert "exact from 8" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "--data", "DATA", "--fit-mapping", "--mapping", "no_such_mapping.json"],
        ["bell", "--bell", "cglmp3", "--local-bound", "--box", "no_such_box.json"],
    ],
    ids=["exp-fit-and-mapping", "bell-local-bound-and-box"],
)
def test_ignored_file_argument_exits_2(capsys, data_dir, argv):
    with pytest.raises(SystemExit) as exc:
        run([str(data_dir / "table2.csv") if a == "DATA" else a for a in argv])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_exp_seed_without_mc_exits_2(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        run(["exp", "--data", str(data_dir / "table2.csv"), "--seed", "4"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


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


def test_readme_command_lines(capsys, tmp_path, data_dir):
    """Every README ``oblivious-games`` line but ``optimize`` exits 0, and the
    oracle line reports the programs and pivots the README quotes."""
    readme = (REPO_ROOT / "README.md").read_text()
    box_path = tmp_path / "box.json"
    bellmap.save_box(cglmp.optimal_box(), box_path)
    fixtures = {"box.json": str(box_path), "data/table2.csv": str(data_dir / "table2.csv")}
    lines = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("oblivious-games ") and " optimize " not in line
    ]
    assert len(lines) == 6
    quoted = re.search(r"On\s+`rac:2,3` with three messages these are (\d+) and (\d+)", readme)
    for argv in lines:
        code, report, _ = run_cli(capsys, *(fixtures.get(a, a) for a in argv))
        assert code == 0, argv
        if "rac:2,3" in argv and "--messages" in argv:
            counts = (report["results"]["programs"], report["results"]["pivots"])
            assert counts == tuple(int(n) for n in quoted.groups()) == (7, 38)
