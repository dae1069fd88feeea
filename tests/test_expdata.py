import dataclasses
from itertools import permutations, product

import numpy as np
import pytest

from oblivious_games import expdata
from oblivious_games.cglmp import closed_form_prob
from oblivious_games.games import (
    Behavior,
    behavior_from_quantum,
    classical_strategy,
    make_rac_game,
    obliviousness_residual_behavior,
    save_record,
)
from oblivious_games.expdata import (
    LabelMapping,
    PrimaryData,
    a3_primary,
    a3_secondary,
    fit_label_mapping,
    load_mapping,
    load_primary,
    mc_uncertainty,
    pinned_mapping,
    secondary_data,
    secondary_weights,
)

A3 = (3 + np.sqrt(33)) / 12


@pytest.fixture(scope="module")
def bundled(data_dir):
    return load_primary(
        data_dir / "table2.csv", data_dir / "table3.csv", data_dir / "table4.csv"
    )


def ideal_tables(mapping: LabelMapping) -> np.ndarray:
    """Noise-free tables consistent with a given label mapping."""
    state_index = {s: i for i, s in enumerate(expdata.STATES)}
    tables = np.zeros((6, 2, 3))
    for (j, k), (x0, x) in mapping.state_map.items():
        s = state_index[(j, k)]
        for lab_basis in (1, 2):
            y = mapping.basis_map[lab_basis]
            for proj in (1, 2, 3):
                b = mapping.outcome_map[lab_basis][proj]
                tables[s, lab_basis - 1, proj - 1] = closed_form_prob(x0, x, y, b)
    return tables


def loop_fit(measured: np.ndarray) -> tuple:
    """The label-mapping fit written out cell by cell and bijection by bijection.

    Same sums in the same order as ``fit_label_mapping``; a candidate replaces
    the incumbent only when lower by more than 1e-15.
    """
    game_states = [(x0, x) for x0 in range(3) for x in range(2)]
    best_res, best = np.inf, None
    for basis_perm, out0, out1 in product(
        permutations((0, 1)), permutations((0, 1, 2)), permutations((0, 1, 2))
    ):
        outs = (out0, out1)
        cost = np.zeros((6, 6))
        for s, (t, (x0, x)) in product(range(6), enumerate(game_states)):
            acc = 0.0
            for lab_basis, proj in product(range(2), range(3)):
                ideal = closed_form_prob(x0, x, basis_perm[lab_basis], outs[lab_basis][proj])
                acc += abs(measured[s, lab_basis, proj] - ideal)
            cost[s, t] = acc
        for perm in permutations(range(6)):
            res = float(sum(cost[s, perm[s]] for s in range(6)))
            if res < best_res - 1e-15:
                best_res, best = res, (basis_perm, outs, perm)
    basis_perm, outs, perm = best
    mapping = LabelMapping(
        state_map={expdata.STATES[s]: game_states[perm[s]] for s in range(6)},
        basis_map={1: basis_perm[0], 2: basis_perm[1]},
        outcome_map={i + 1: {p + 1: outs[i][p] for p in range(3)} for i in range(2)},
    )
    return mapping, best_res


def scrambled_mapping() -> LabelMapping:
    """A mapping with every lab label permuted away from the pinned one."""
    pin = pinned_mapping()
    states = list(pin.state_map)
    return LabelMapping(
        state_map={lab: pin.state_map[states[(i + 2) % 6]] for i, lab in enumerate(states)},
        basis_map={1: 1, 2: 0},
        outcome_map={1: {1: 2, 2: 0, 3: 1}, 2: {1: 1, 2: 2, 3: 0}},
    )


class TestLoading:
    def test_bundled_row_values(self, bundled):
        assert bundled.probabilities[0, 0, 0] == 0.8191
        assert bundled.sigmas[0, 0, 0] == 0.0028
        assert bundled.probabilities[5, 1, 2] == 0.1019
        assert bundled.sigmas[5, 1, 2] == 0.0023

    def test_protocol_only_load(self, data_dir, bundled):
        # the tomography rows are checked but not stored, so they change nothing
        data = load_primary(data_dir / "table2.csv")
        assert np.array_equal(data.probabilities, bundled.probabilities)
        assert np.array_equal(data.sigmas, bundled.sigmas)

    def test_out_of_range_probability_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        # a tomography row (basis 4) is range-checked like a protocol row
        for basis in (1, 4):
            bad.write_text(
                f"state_j,state_k,basis,projector,probability,sigma\n1,1,{basis},1,1.2,0.01\n"
            )
            with pytest.raises(ValueError, match="outside"):
                load_primary(bad)

    def test_malformed_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "state_j,state_k,basis,projector,probability,sigma\n1,1,1,one,0.5,0.01\n"
        )
        with pytest.raises(ValueError, match="malformed"):
            load_primary(bad)

    def test_nan_sigma_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "state_j,state_k,basis,projector,probability,sigma\n1,1,1,1,0.5,nan\n"
        )
        with pytest.raises(ValueError, match="sigma"):
            load_primary(bad)
        with pytest.raises(ValueError, match="finite"):
            PrimaryData(probabilities=np.full((6, 2, 3), 1 / 3), sigmas=np.full((6, 2, 3), np.nan))

    def test_repeated_cell_in_one_file_rejected(self, tmp_path, data_dir):
        bad = tmp_path / "repeat.csv"
        lines = (data_dir / "table2.csv").read_text().splitlines()
        bad.write_text("\n".join(lines + [lines[5]]) + "\n")
        with pytest.raises(ValueError, match="repeats") as exc:
            load_primary(bad)
        assert f"{bad}:{len(lines) + 1}" in str(exc.value)
        assert f"{bad}:6" in str(exc.value)

    def test_repeated_tomography_cell_rejected(self, tmp_path, data_dir):
        bad = tmp_path / "repeat.csv"
        lines = (data_dir / "table4.csv").read_text().splitlines()
        bad.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(ValueError, match="repeats"):
            load_primary(data_dir / "table2.csv", bad)

    def test_same_file_twice_rejected(self, data_dir):
        path = data_dir / "table2.csv"
        with pytest.raises(ValueError, match="repeats") as exc:
            load_primary(path, path)
        assert f"{path}:2" in str(exc.value)

    def test_incomplete_table_rejected(self, tmp_path):
        bad = tmp_path / "partial.csv"
        bad.write_text(
            "state_j,state_k,basis,projector,probability,sigma\n1,1,1,1,0.5,0.01\n"
        )
        with pytest.raises(ValueError, match="incomplete"):
            load_primary(bad)

    @pytest.mark.parametrize(
        "probabilities,sigmas,message",
        [
            (np.full((6, 2, 2), 0.5), np.zeros((6, 2, 2)), r"shape \(6, 2, 3\)"),
            (np.full((6, 2, 3), 1 / 3) * [1.0, 1.0, 4.0], np.zeros((6, 2, 3)), r"\[0, 1\]"),
            (np.full((6, 2, 3), 1 / 3), np.full((6, 2, 3), -0.01), "sigmas must be nonnegative"),
        ],
        ids=["shape", "probability-range", "negative-sigma"],
    )
    def test_primary_data_rejects(self, probabilities, sigmas, message):
        with pytest.raises(ValueError, match=message):
            PrimaryData(probabilities=probabilities, sigmas=sigmas)

    @pytest.mark.parametrize(
        "csv,message",
        [
            (None, "need at least one CSV path"),
            ("state_j,state_k,basis,projector,probability\n1,1,1,1,0.5\n", "expected columns"),
            ("3,1,1,1,0.5,0.01", r"bad.csv:2: unknown state \(3,1\)"),
            ("1,1,6,1,0.5,0.01", "bad.csv:2: basis must be 1..5, got 6"),
            ("1,1,0,1,0.5,0.01", "bad.csv:2: basis must be 1..5, got 0"),
            ("1,1,1,4,0.5,0.01", r"bad.csv:2: projector must be 1..3"),
            ("1,1,1,0,0.5,0.01", r"bad.csv:2: projector must be 1..3"),
        ],
        ids=["no-path", "missing-column", "unknown-state", "basis-6", "basis-0",
             "projector-4", "projector-0"],
    )
    def test_csv_rejects(self, tmp_path, csv, message):
        if csv is None:
            with pytest.raises(ValueError, match=message):
                load_primary()
            return
        bad = tmp_path / "bad.csv"
        header = "state_j,state_k,basis,projector,probability,sigma\n"
        bad.write_text(csv if csv.startswith("state_j") else header + csv + "\n")
        with pytest.raises(ValueError, match=message):
            load_primary(bad)

    def test_row_sum_tolerance(self):
        p = np.full((6, 2, 3), 1 / 3)
        p[0, 0] = [0.4, 0.3, 0.4]  # sums to 1.1
        with pytest.raises(ValueError, match="protocol table rows do not sum to 1"):
            PrimaryData(probabilities=p, sigmas=np.zeros((6, 2, 3)))


class TestMappingFit:
    def test_identity_synthetic_data_recovered(self):
        pin = pinned_mapping()
        data = PrimaryData(probabilities=ideal_tables(pin), sigmas=np.zeros((6, 2, 3)))
        fitted, residual = fit_label_mapping(data)
        assert residual < 1e-9
        assert fitted.to_dict() == pin.to_dict()

    def test_known_outcome_permutation_recovered(self):
        pin = pinned_mapping()
        scrambled = LabelMapping(
            state_map=pin.state_map,
            basis_map=pin.basis_map,
            outcome_map={1: {1: 2, 2: 0, 3: 1}, 2: {1: 1, 2: 2, 3: 0}},
        )
        data = PrimaryData(
            probabilities=ideal_tables(scrambled), sigmas=np.zeros((6, 2, 3))
        )
        fitted, residual = fit_label_mapping(data)
        assert residual < 1e-9
        assert fitted.outcome_map == scrambled.outcome_map

    def test_bundled_fit_matches_pinned(self, bundled):
        fitted, residual = fit_label_mapping(bundled)
        assert fitted.to_dict() == pinned_mapping().to_dict()
        assert residual < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_equals_loop_reference(self, bundled, seed):
        rng = np.random.default_rng(seed)
        p = np.clip(bundled.probabilities + 0.05 * rng.normal(size=(6, 2, 3)), 0.0, 1.0)
        data = PrimaryData(p / p.sum(axis=2, keepdims=True), np.zeros((6, 2, 3)))
        fitted, residual = fit_label_mapping(data)
        ref, ref_residual = loop_fit(data.normalized())
        assert residual == ref_residual
        assert fitted.to_dict() == ref.to_dict()

    def test_fit_beats_random_mappings(self, bundled):
        rng = np.random.default_rng(99)
        _, fit_residual = fit_label_mapping(bundled)
        measured = bundled.normalized()
        theory = ideal_tables(pinned_mapping())  # theory under identity labels
        game_states = [(x0, x) for x0 in range(3) for x in range(2)]
        worse = 0
        trials = 300
        for _ in range(trials):
            sperm = rng.permutation(6)
            bperm = rng.permutation(2)
            operm = [rng.permutation(3), rng.permutation(3)]
            res = 0.0
            for s in range(6):
                for i in range(2):
                    for p in range(3):
                        res += abs(
                            measured[s, i, p]
                            - theory[sperm[s], bperm[i], operm[i][p]]
                        )
            if res >= fit_residual:
                worse += 1
        assert worse >= 0.99 * trials

    def test_mapping_json_roundtrip(self, tmp_path):
        pin = pinned_mapping()
        save_record(pin, tmp_path / "m.json")
        assert load_mapping(tmp_path / "m.json").to_dict() == pin.to_dict()

    def test_non_bijective_mapping_rejected(self):
        pin = pinned_mapping()
        with pytest.raises(ValueError):
            LabelMapping(
                state_map=pin.state_map,
                basis_map={1: 0, 2: 0},
                outcome_map=pin.outcome_map,
            )
        # six distinct targets, but (0, 2) is not an input of the game
        with pytest.raises(ValueError):
            LabelMapping(
                state_map={**pin.state_map, (2, 3): (0, 2)},
                basis_map=pin.basis_map,
                outcome_map=pin.outcome_map,
            )
        # projectors 1 and 2 of basis 2 both map to outcome 0
        with pytest.raises(ValueError, match="outcome map for basis 2 must be a bijection"):
            LabelMapping(
                state_map=pin.state_map,
                basis_map=pin.basis_map,
                outcome_map={**pin.outcome_map, 2: {1: 0, 2: 0, 3: 2}},
            )


class TestPrimaryScore:
    def test_bundled_value(self, bundled):
        assert abs(a3_primary(bundled, pinned_mapping()) - 0.7172) < 2e-3

    def test_ideal_synthetic_data(self):
        for mapping in (pinned_mapping(), scrambled_mapping()):
            data = PrimaryData(
                probabilities=ideal_tables(mapping), sigmas=np.zeros((6, 2, 3))
            )
            assert abs(a3_primary(data, mapping) - A3) < 1e-12

    def test_uniform_data_scores_zero(self):
        data = PrimaryData(
            probabilities=np.full((6, 2, 3), 1 / 3), sigmas=np.zeros((6, 2, 3))
        )
        assert abs(a3_primary(data, pinned_mapping())) < 1e-12


class TestSecondaryData:
    def test_already_consistent_data_untouched(self):
        for mapping in (pinned_mapping(), scrambled_mapping()):
            data = PrimaryData(
                probabilities=ideal_tables(mapping), sigmas=np.zeros((6, 2, 3))
            )
            sec = secondary_data(data, mapping)
            assert abs(sec.s - 1.0) < 1e-9
            assert np.max(np.abs(sec.p_prime - data.normalized())) < 1e-8

    def test_bundled_values(self, bundled):
        pin = pinned_mapping()
        sec = secondary_data(bundled, pin)
        assert abs(sec.s - 0.9938) < 1e-3
        assert abs(a3_secondary(sec, pin) - 0.7118) < 1e-3
        assert sec.constraint_residual() < 1e-8

    def test_weights_are_distributions(self, bundled):
        sec = secondary_data(bundled, pinned_mapping())
        assert np.min(sec.weights) >= -1e-12
        assert np.max(np.abs(sec.weights.sum(axis=1) - 1.0)) < 1e-9

    def test_default_grouping_matches_pinned(self, bundled):
        assert abs(secondary_data(bundled).s - secondary_data(bundled, pinned_mapping()).s) < 1e-12

    def test_constraint_residual_is_set_average_gap(self):
        rng = np.random.default_rng(4)
        tables = rng.random((6, 2, 3))
        tables /= tables.sum(axis=2, keepdims=True)
        for mapping in (pinned_mapping(), scrambled_mapping()):
            sec = expdata.SecondaryData(
                weights=np.eye(6), p_prime=tables, s=1.0, mapping=mapping
            )
            # average over the three lab states of each game x, per game (y, b)
            gap = 0.0
            group_sum_gap = 0.0
            for lab_basis, y in mapping.basis_map.items():
                for proj, b in mapping.outcome_map[lab_basis].items():
                    sums = [0.0, 0.0]
                    for i, lab in enumerate(expdata.STATES):
                        sums[mapping.state_map[lab][1]] += tables[i, lab_basis - 1, proj - 1]
                    gap = max(gap, abs(sums[0] / 3 - sums[1] / 3))
                    group_sum_gap = max(group_sum_gap, abs(sums[0] - sums[1]))
            assert gap > 0.05
            assert abs(sec.constraint_residual() - gap) < 1e-15
            assert abs(sec.constraint_residual() - group_sum_gap / 3) < 1e-15

    def test_generic_program_on_parity_leaking_rac22(self):
        # message = parity of the two bits, decoded as a guess of either bit:
        # the behavior reveals exactly the parity that rac:2,2 must hide
        game = make_rac_game(2, 2)
        enc = np.zeros((4, 2))
        for i, (x1, x2) in enumerate(game.alice_inputs):
            enc[i, (x1 + x2) % 2] = 1.0
        dec = np.zeros((2, 2, 2))
        for m in range(2):
            dec[m, :, m] = 1.0
        behavior = behavior_from_quantum(classical_strategy(enc, dec))
        assert obliviousness_residual_behavior(game, behavior) > 0.5
        weights, p_prime, s = secondary_weights(behavior.table, game.constraint_rows())
        assert np.min(weights) >= 0.0
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9
        assert s <= 1.0 + 1e-12
        assert abs(s - np.trace(weights) / 4) < 1e-12
        assert obliviousness_residual_behavior(game, Behavior(p_prime)) < 1e-8

    def test_s_equals_one_iff_untouched(self, bundled):
        sec = secondary_data(bundled, pinned_mapping())
        assert sec.s < 1.0 - 1e-4
        assert np.max(np.abs(sec.p_prime - bundled.normalized())) > 1e-4


def random_stack(rng, k, n, entries):
    tables = rng.random((k, n, *entries))
    return tables / tables.sum(axis=-1, keepdims=True)


class TestSecondaryKernels:
    """The stacked secondary-data kernels against references kept here."""

    @pytest.mark.parametrize("seed", range(4))
    def test_programs_equal_the_einsum_build(self, seed):
        rng = np.random.default_rng(seed)
        k, n, r = (int(v) for v in rng.integers(1, 8, size=3))
        stack = random_stack(rng, k, n, tuple(rng.integers(1, 4, size=2)))
        rows = rng.normal(size=(r, n))
        eq = expdata._secondary_programs(stack, rows).eq_matrix
        tables = stack.reshape(k, n, -1)
        expected = np.empty_like(eq)
        expected[:, :n] = np.repeat(np.eye(n), n, axis=1)
        mixed = expected[:, n:].reshape(k, r, tables.shape[2], n, n)
        np.einsum("rt,kse->krets", rows, tables, out=mixed)
        assert np.array_equal(eq, expected)

    @pytest.mark.parametrize("k", [1, 7, 128])
    def test_each_p_prime_equals_its_stack_of_one(self, k):
        rng = np.random.default_rng(k)
        n = 6
        stack = random_stack(rng, k, n, (2, 3))
        weights = random_stack(rng, k, n, (n,))
        solutions = expdata.lp.LpSolutions(
            status=np.full(k, "optimal"),
            values=weights.reshape(k, n * n),
            objective_value=np.trace(weights, axis1=1, axis2=2) / n,
            pivots=np.zeros(k, dtype=int),
            phase1_pivots=np.zeros(k, dtype=int),
            basis=np.zeros((k, 0), dtype=int),
        )
        _, p_prime, _ = expdata._secondary_result(solutions, stack)
        assert p_prime.shape == stack.shape
        for p in range(k):
            row = expdata.lp.LpSolutions(
                *(getattr(solutions, f.name)[p : p + 1] for f in dataclasses.fields(solutions))
            )
            _, alone, _ = expdata._secondary_result(row, stack[p : p + 1])
            assert np.array_equal(alone[0], p_prime[p])
        reference = np.einsum("kts,ks...->kt...", weights, stack)
        assert np.max(np.abs(p_prime - reference)) <= 4 * np.finfo(float).eps


class TestMonteCarlo:
    def test_zero_sigmas_give_zero_spread(self, bundled):
        data = PrimaryData(
            probabilities=bundled.probabilities, sigmas=np.zeros((6, 2, 3))
        )
        sp, ss = mc_uncertainty(data, pinned_mapping(), 100, seed=1)
        assert sp < 1e-12 and ss < 1e-12

    def test_sigma_scales_roughly_linearly(self, bundled):
        pin = pinned_mapping()
        sp1, _ = mc_uncertainty(bundled, pin, 400, seed=2)
        doubled = PrimaryData(
            probabilities=bundled.probabilities, sigmas=2 * bundled.sigmas
        )
        sp2, _ = mc_uncertainty(doubled, pin, 400, seed=2)
        assert abs(sp2 - 2 * sp1) < 0.2 * 2 * sp1

    def test_reproducible_for_fixed_seed(self, bundled):
        pin = pinned_mapping()
        assert mc_uncertainty(bundled, pin, 100, seed=5) == mc_uncertainty(
            bundled, pin, 100, seed=5
        )

    @pytest.mark.parametrize("samples", [50, 0, -100, 99, True, 150.5, np.float64(200), "200"])
    def test_sample_floor(self, bundled, samples):
        with pytest.raises(ValueError):
            mc_uncertainty(bundled, pinned_mapping(), samples, seed=0)

    def test_numpy_integer_sample_count(self, bundled):
        pin = pinned_mapping()
        assert mc_uncertainty(bundled, pin, np.int64(100), seed=3) == mc_uncertainty(
            bundled, pin, 100, seed=3
        )

    @pytest.mark.parametrize("seed", [1.5, True, "5", -1, np.float64(5.0)])
    def test_seed_checked(self, bundled, seed):
        with pytest.raises(ValueError, match="seed"):
            mc_uncertainty(bundled, pinned_mapping(), 100, seed=seed)

    def test_numpy_integer_seed(self, bundled):
        pin = pinned_mapping()
        assert mc_uncertainty(bundled, pin, 100, seed=np.int64(3)) == mc_uncertainty(
            bundled, pin, 100, seed=3
        )

    def test_draw_clipped_to_zeros_is_named(self, bundled):
        # a sure outcome with a wide sigma: a draw can clip its whole row to
        # zero, which no renormalization makes a distribution
        p, s = bundled.probabilities.copy(), bundled.sigmas.copy()
        p[0, 0], s[0, 0] = (1.0, 0.0, 0.0), 0.6
        with pytest.raises(ValueError, match=r"state \(1, 1\), basis 1 clipped to all zeros"):
            mc_uncertainty(PrimaryData(p, s), pinned_mapping(), 2000, seed=0)

    def test_result_does_not_depend_on_chunk(self, bundled, monkeypatch):
        pin = pinned_mapping()
        results = {}
        for chunk in (1, 7, 32, 128, 1000):
            monkeypatch.setattr(expdata, "_MC_CHUNK", chunk)
            results[chunk] = mc_uncertainty(bundled, pin, 300, seed=13)
        assert all(r == results[1] for r in results.values()), results

    def test_stacks_reuse_one_buffer_per_call(self, bundled, monkeypatch):
        solve = expdata.lp.solve
        calls = []

        def recording(programs, start=None, work=None):
            if start is not None:
                calls.append((programs.eq_matrix, work))
            return solve(programs, start, work=work)

        monkeypatch.setattr(expdata.lp, "solve", recording)
        buffers = []
        for samples in (300, 100):
            calls.clear()
            mc_uncertainty(bundled, pinned_mapping(), samples, seed=13)
            eq_matrices, works = zip(*calls)
            assert len(works) == -(-samples // expdata._MC_CHUNK)
            for eq, work in calls:
                assert work.shape[0] == len(eq)
                assert work.ctypes.data == works[0].ctypes.data
                assert eq.ctypes.data == eq_matrices[0].ctypes.data
            assert max(len(work) for work in works) == min(expdata._MC_CHUNK, samples)
            buffers.append((eq_matrices[0], works[0]))  # alive, so not reused
        (eq_a, work_a), (eq_b, work_b) = buffers
        assert not np.shares_memory(work_a, work_b)
        assert not np.shares_memory(eq_a, eq_b)

    # Seed 501013 holds a program (sample 1086) on which a ratio test that
    # ties rows within PIVOT_TOL of the least ratio ends a weight 1.7e-9 below
    # zero and its row 1.7e-9 off unit sum, which a Behavior rejects.  Warm,
    # as the Monte Carlo solves them, and cold, every vertex must be exact.
    def test_secondary_programs_end_on_exact_vertices(self, bundled, monkeypatch):
        solve = expdata.lp.solve
        stacks = []

        def recording(programs, start=None, work=None):
            solutions = solve(programs, start, work=work)
            if start is not None:  # the stack's matrices live in a reused buffer
                fields = (programs.objective, programs.eq_matrix, programs.eq_rhs)
                stacks.append(([np.copy(f) for f in fields], solutions.values))
            return solutions

        monkeypatch.setattr(expdata.lp, "solve", recording)
        sp, ss = mc_uncertainty(bundled, pinned_mapping(), 1100, seed=501013)
        assert 0.0 < sp < ss < 0.01
        programs = expdata.lp.LinearProgram(
            *(np.concatenate(field) for field in zip(*(fields for fields, _ in stacks)))
        )
        warm = np.concatenate([values for _, values in stacks])
        for values in (warm, solve(programs).values):
            assert len(values) == 1100 and values.min() >= 0.0
            weights = values.reshape(-1, 6, 6)
            assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-13
            residual = (programs.eq_matrix @ values[..., None])[..., 0] - programs.eq_rhs
            assert np.abs(residual).max() <= 1e-13

    # Measured with every program warm-started from the nominal optimal
    # basis; 333 is not a whole number of stacks.  A cold solve of each
    # program gave sigma_secondary 0.0015892665184562573 and
    # 0.0014903278153701532: from the nominal basis about a sixth of the
    # programs end on another optimal vertex of the same objective, which
    # test_lp.py checks against the cold solve to 1e-12.  sigma_primary
    # solves no program.
    @pytest.mark.parametrize(
        "samples,seed,sigmas",
        [
            (500, 5, (0.000989304053539765, 0.0015905686992332057)),
            (333, 7, (0.0009013683826709641, 0.0014906526796049585)),
        ],
    )
    def test_sigmas_are_pinned(self, bundled, samples, seed, sigmas):
        assert mc_uncertainty(bundled, pinned_mapping(), samples, seed=seed) == sigmas
