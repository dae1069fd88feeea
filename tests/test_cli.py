import json
import re
import shlex

import numpy as np
import pytest
from conftest import REPO_ROOT, random_game

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
    assert (report["results"]["programs"], report["results"]["pivots"]) == (1, 7)


def test_bound_messages_selects_the_oracle(capsys):
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:2,3", "--messages", "3")
    assert code == 0
    assert report["inputs"] == {"game": "rac:2,3", "oracle": True, "messages": 3}
    assert report["results"]["method"] == "lp-oracle"
    assert (report["results"]["programs"], report["results"]["pivots"]) == (1, 25)


@pytest.mark.parametrize("messages,value", [("2", 0.511146), ("3", 0.521646)])
def test_bound_oracle_is_labelled_a_lower_bound(capsys, tmp_path, messages, value):
    # two messages miss the 0.521646 that three reach: the oracle is exact
    # only from one message per decoding function, 2**3 here
    path = tmp_path / "random.json"
    games.save_game(random_game(), path)
    code, report, err = run_cli(capsys, "bound", "--game", str(path), "--messages", messages)
    assert code == 0
    assert round(report["results"]["value"], 6) == value
    assert err.startswith(f"lower bound {value:.6f} on the noncontextual bound")
    assert "exact from 8" in err


def test_bound_game_file_defaults_to_the_exact_program(capsys, tmp_path):
    # one message per decoding function: one set of decoders, one program
    path = tmp_path / "random.json"
    games.save_game(random_game(), path)
    code, report, err = run_cli(capsys, "bound", "--game", str(path))
    assert code == 0
    assert report["inputs"]["messages"] == 8
    assert round(report["results"]["value"], 6) == 0.521646
    assert report["results"]["programs"] == 1
    assert err.startswith("noncontextual bound 0.521646 (lp-oracle)")
    assert "lower bound" not in err


def test_bound_messages_beyond_the_decoders(capsys):
    # rac:2,2 has 2**2 = 4 decoding functions, so the oracle runs, and the
    # report names, 4 messages
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:2,2", "--messages", "100000")
    assert code == 0
    assert report["results"]["value"] == 0.75
    assert report["inputs"] == {"game": "rac:2,2", "oracle": True, "messages": 4}


def test_bound_oracle_above_the_desk_scale(capsys):
    # 27 decoding functions x 27 inputs: the exact program has 729 variables
    code, report, err = run_cli(capsys, "bound", "--game", "rac:3,3", "--oracle")
    assert code == 2
    assert report is None
    assert "729 variables" in err
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:3,3", "--messages", "3")
    assert code == 0
    assert abs(report["results"]["value"] - 5 / 9) < 1e-9


def test_bound_oracle_size_is_checked_before_the_program_is_built(capsys):
    # 256 decoding functions x 256 inputs, with 247 obliviousness rows per message
    code, report, err = run_cli(capsys, "bound", "--game", "rac:8,2", "--oracle")
    assert code == 2
    assert report is None
    assert "65536 variables" in err
    assert "fewer messages give a lower bound" in err


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


def test_bound_rac_witness_runs_the_exact_lp(capsys):
    code, report, _ = run_cli(capsys, "bound", "--game", "rac:2,2", "--witness")
    _, forced, _ = run_cli(capsys, "bound", "--game", "rac:2,2", "--oracle", "--witness")
    assert code == 0
    assert report["results"] == forced["results"]
    assert report["results"]["method"] == "lp-oracle"
    assert "witness" in report["results"]
    assert abs(report["results"]["value"] - 0.75) < 1e-9


def test_bell_local_bound(capsys):
    code, report, _ = run_cli(capsys, "bell", "--bell", "cglmp3", "--local-bound")
    assert code == 0
    assert report["results"]["local_bound"] == 0.5


def test_bell_local_bound_witness_scores_the_bound(capsys):
    code, report, _ = run_cli(capsys, "bell", "--bell", "cglmp3", "--local-bound", "--witness")
    assert code == 0
    witness = report["results"]["witness"]
    table = np.zeros((2, 2, 3, 3))
    for X, a in enumerate(witness["alice_assignment"]):
        for Y, b in enumerate(witness["bob_assignment"]):
            table[X, Y, a, b] = 1.0
    assert bellmap.bell_value(bellmap.cglmp3(), bellmap.NoSignalingBox(table)) == 0.5


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


def test_exp_mapping_file_gives_the_pinned_run(capsys, data_dir):
    table = str(data_dir / "table2.csv")
    mapping = str(data_dir / "mapping.json")
    code, report, _ = run_cli(capsys, "exp", "--data", table, "--mapping", mapping, "--secondary")
    _, pinned, _ = run_cli(capsys, "exp", "--data", table, "--secondary")
    assert code == 0
    assert report["results"].pop("mapping_source") == mapping
    assert pinned["results"].pop("mapping_source") == "pinned"
    assert report["results"] == pinned["results"]


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


def test_exp_mc_draw_clipped_to_zeros_exits_2(capsys, tmp_path, data_dir):
    # state (1, 1), basis 1 made a sure outcome with a sigma of 0.6
    lines = (data_dir / "table2.csv").read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("1,1,1,"):
            proj = line.split(",")[3]
            lines[i] = f"1,1,1,{proj},{1.0 if proj == '1' else 0.0},0.6"
    table = tmp_path / "table.csv"
    table.write_text("\n".join(lines) + "\n")
    code, report, err = run_cli(
        capsys, "exp", "--data", str(table), "--mc", "2000", "--seed", "0"
    )
    assert code == 2
    assert report is None
    assert "state (1, 1), basis 1 clipped to all zeros" in err


def test_exp_default_seed_is_zero(capsys, data_dir):
    code, report, _ = run_cli(
        capsys, "exp", "--data", str(data_dir / "table2.csv"), "--mc", "100"
    )
    assert code == 0
    assert report["results"]["seed"] == 0


def test_optimize_small(capsys):
    code, report, err = run_cli(
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
    assert (results["stop_reason"], results["iterations_used"]) == ("settled", 3)
    per_restart = results["per_restart"]
    assert [(r["stop_reason"], r["iterations_used"]) for r in per_restart] == [("settled", 3)] * 2
    assert err.rstrip().endswith("feasible); restarts: 2 settled")
    assert set(per_restart[0]) == {
        "value", "iterations_used", "stop_reason", "feasibility_residual", "feasible", "sweeps"
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


def test_game_without_outcomes_exits_2(capsys, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(_rac22_spec(outcomes=[], payoff=np.zeros((4, 2, 0)).tolist())))
    for argv in (
        ["bound", "--game", str(path)],
        ["optimize", "--game", str(path), "--dim", "2", "--restarts", "1", "--iters", "2"],
    ):
        code, report, err = run_cli(capsys, *argv)
        assert (code, report) == (2, None)
        assert "outcomes is empty" in err


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
        *(
            pytest.param(argv, "x,y\n0,1\n", "Expecting value", id=f"not-json-{flag}")
            for flag, argv in [
                ("game", ["bound", "--game", "FILE"]),
                ("bell", ["bell", "--bell", "FILE", "--local-bound"]),
                ("box", ["map", "--bell", "cglmp3", "--box", "FILE"]),
                ("mapping", ["exp", "--data", "DATA", "--mapping", "FILE"]),
            ]
        ),
    ],
)
def test_nan_game_file_exit_code(capsys, tmp_path, data_dir, argv, content, message):
    """A string ``content`` is written as it stands, anything else as JSON."""
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
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
    """Every README ``oblivious-games`` line but ``optimize`` exits 0, the
    ``rac:2,3`` oracle line reports the programs and pivots the README quotes,
    and the ``rac:3,3`` one the value and programs it quotes."""
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
    assert len(lines) == 7
    quoted = re.search(r"On\s+`rac:2,3` with three messages these are (\d+) and (\d+)", readme)
    quoted33 = re.search(r"On\s+`rac:3,3`,\s+`--messages 2` gives 4/9\s+from (\d+) programs", readme)
    for argv in lines:
        code, report, _ = run_cli(capsys, *(fixtures.get(a, a) for a in argv))
        assert code == 0, argv
        if "rac:2,3" in argv and "--messages" in argv:
            counts = (report["results"]["programs"], report["results"]["pivots"])
            assert counts == tuple(int(n) for n in quoted.groups()) == (1, 25)
        if "rac:3,3" in argv:
            assert abs(report["results"]["value"] - 4 / 9) < 1e-12
            assert report["results"]["programs"] == int(quoted33.group(1)) == 271
