"""Frozen mutants of the library, each with the tests that must kill it.

A mutant replaces the one occurrence of ``old`` in ``file`` (relative to the
repository root) by ``new``; every test named in ``tests`` must then fail.
`run_mutants.py` applies them one at a time to a copy of the tree.  Each
entry names at least one test besides the fixed-seed hash tests
(`DIGEST_TESTS`), which fail on any change to the random stream and so
cannot tell a broken algorithm from a reordered draw.

Edit an entry only when the code it mutates changes; a mutant whose code is
gone is deleted, and its retirement recorded.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


DIGEST_TESTS = frozenset({
    "tests/test_drivers.py::test_fixed_seed_run_json_matches_the_recorded_hash",
})

MUTANTS = (
    # ---------------------------------------------------------------- designs
    Mutant(
        "the spanner skips its swap phase",
        "src/voxlab/spanner.py",
        "    while any(place(i, False) for i in range(d)):\n        pass\n",
        "",
        (
            "tests/test_spanner.py::test_one_placement_step_matches_the_two_phase_spanner",
            "tests/test_spanner.py::test_a_zero_column_is_not_swapped_back_in",
            "tests/test_drivers.py::test_spanrl_on_a_lock_asks_each_confirmation_query_once",
        ),
    ),
    Mutant(
        "VoX keeps only its first design per layer",
        "src/voxlab/drivers.py",
        "covers.append(designs[0] if K == 1 else",
        "covers.append(designs[0] if True else",
        (
            "tests/test_drivers.py::test_a_vox_cover_mixes_every_design_of_its_layer",
        ),
    ),
    Mutant(
        "the line search always returns its floor mu",
        "src/voxlab/optdesign.py",
        "    return max(lo, mu)\n",
        "    return mu\n",
        (
            "tests/test_optdesign.py::test_step_size_value",
            "tests/test_acceptance.py::test_c11_explorers_open_the_combination_lock",
        ),
    ),
    Mutant(
        "the design loop skips its PSD projection",
        "src/voxlab/optdesign.py",
        '    W = psd_part(W, "lin_est output")\n',
        "",
        (
            "tests/test_optdesign.py::test_non_psd_estimates_are_rejected",
        ),
    ),
    Mutant(
        "the line-search slope drops the last eigenvalue",
        "src/voxlab/optdesign.py",
        "x / (1.0 + a * x), lam, 0.0)",
        "x / (1.0 + a * x), lam[:-1], 0.0)",
        (
            "tests/test_optdesign.py::test_line_search_equals_the_numpy_bisection_bit_for_bit",
        ),
    ),
    Mutant(
        "the line-search bisection moves the wrong end",
        "src/voxlab/optdesign.py",
        "            lo = mid\n        else:\n            hi = mid\n",
        "            hi = mid\n        else:\n            lo = mid\n",
        (
            "tests/test_optdesign.py::test_step_size_value",
            "tests/test_optdesign.py::test_objective_trace_is_monotone",
            "tests/test_acceptance.py::test_c01_design_certificate_iterations_and_monotonicity",
        ),
    ),
    # ---------------------------------------------------------- feature class
    Mutant(
        "FeatureClass accepts non-finite tables",
        "src/voxlab/core.py",
        "            if not np.isfinite(stack).all():\n",
        "            if False:\n",
        (
            "tests/test_simenv.py::test_feature_class_rejects_a_non_finite_table_naming_candidate_and_layer",
        ),
    ),
    # ------------------------------------------------------------- estimators
    Mutant(
        "est_vec divides by n + 1",
        "src/voxlab/estimators.py",
        "axes=([0, 1], [0, 1])) / n",
        "axes=([0, 1], [0, 1])) / (n + 1)",
        (
            "tests/test_estimators.py::test_constant_functional_is_exact",
            "tests/test_estimators.py::test_deterministic_env_single_episode_exact",
        ),
    ),
    Mutant(
        "est_vec rounds its counts to float32",
        "src/voxlab/estimators.py",
        "np.tensordot(counts.astype(float), table,",
        "np.tensordot(counts.astype(np.float32), table,",
        (
            "tests/test_limits.py::test_est_vec_and_est_mat_meet_the_exact_moments",
        ),
    ),
    # -------------------------------------------------------------- rep-learn
    Mutant(
        "rep-learn never leaves its start index",
        "src/voxlab/replearn.py",
        "        current = feature_selection(Phi, discs, data, config)\n",
        "        feature_selection(Phi, discs, data, config)\n",
        (
            "tests/test_replearn.py::test_rep_learn_selects_true_features",
            "tests/test_acceptance.py::test_c06_replearn_terminates_and_transfers",
            "tests/test_acceptance.py::test_c11_explorers_open_the_combination_lock[2]",
        ),
    ),
    Mutant(
        "feature selection never moves off index 0",
        "src/voxlab/replearn.py",
        "    return int(np.argmin(sum(losses.T)))\n",
        "    return 0\n",
        (
            "tests/test_replearn.py::test_rep_learn_selects_true_features",
            "tests/test_acceptance.py::test_c06_replearn_terminates_and_transfers",
        ),
    ),
    Mutant(
        "the gap scorer fits the current candidate in the small ball",
        "src/voxlab/replearn.py",
        "big = fac.into_ball(B, W, self.r_big)",
        "big = fac.into_ball(B, W, self.r_small)",
        (
            "tests/test_replearn.py::test_search_matches_the_reference_through_the_bisection",
        ),
    ),
    Mutant(
        "the action maximum skips the last action",
        "src/voxlab/replearn.py",
        "for a in range(1, fvals.shape[3]):",
        "for a in range(1, fvals.shape[3] - 1):",
        (
            "tests/test_replearn.py::test_search_matches_the_per_direction_reference",
        ),
    ),
    Mutant(
        "the seed-sweep table is keyed without the layer",
        "src/voxlab/replearn.py",
        "    if data.layer not in sweeps:\n",
        # a table keyed by the class alone hands any layer the first entry
        "    if sweeps:\n        sweeps.setdefault(data.layer, next(iter(sweeps.values())))\n"
        "    if data.layer not in sweeps:\n",
        (
            "tests/test_replearn.py::test_the_seed_sweep_is_valued_once_per_class_and_layer",
        ),
    ),
    Mutant(
        "the replay keeps the last maximum",
        "src/voxlab/replearn.py",
        "    return np.where(gaps > -np.inf, gaps, -np.inf).argmax(axis=-1)\n",
        "    last = np.where(gaps > -np.inf, gaps, -np.inf)[..., ::-1].argmax(axis=-1)\n"
        "    return gaps.shape[-1] - 1 - last\n",
        (
            "tests/test_replearn.py::test_search_matches_the_reference_when_seed_gaps_tie",
            "tests/test_replearn.py::test_search_matches_the_per_direction_reference",
        ),
    ),
    Mutant(
        "the small ball takes the big radius",
        "src/voxlab/replearn.py",
        "return eps, 3.0 * d ** 1.5, 2.0 * math.sqrt(d), max(T, 1)",
        "return eps, 3.0 * d ** 1.5, 3.0 * d ** 1.5, max(T, 1)",
        (
            "tests/test_replearn.py::test_resolve_iteration_counts_and_radii",
        ),
    ),
    # ------------------------------------------------------------------- psdp
    Mutant(
        "psdp compares a radius with 0 before checking it is a number",
        "src/voxlab/psdp.py",
        "if not (isinstance(radius, numbers.Real) and radius > 0):",
        "if not radius > 0:",
        (
            "tests/test_psdp.py::test_psdp_rejects_bad_radii_before_drawing_an_episode",
        ),
    ),
    Mutant(
        "the roll-in memo key drops the greedy suffix",
        "src/voxlab/psdp.py",
        'b"".join(a.tobytes() for a in acts[t + 1:h]))',
        'b"")',
        (
            "tests/test_psdp.py::test_a_shared_memo_replays_the_top_two_rollins",
            "tests/test_psdp.py::test_queries_sharing_the_greedy_layers_above_layer_0_share_its_rollin",
        ),
    ),
    Mutant(
        "the roll-in memo key also holds the greedy layer at h",
        "src/voxlab/psdp.py",
        "for a in acts[t + 1:h]))",
        "for a in acts[t + 1:h + 1]))",
        (
            "tests/test_psdp.py::test_a_shared_memo_replays_the_top_two_rollins",
            "tests/test_psdp.py::test_queries_sharing_the_greedy_layers_above_layer_0_share_its_rollin",
            "tests/test_drivers.py::test_spanrl_on_a_lock_asks_each_confirmation_query_once",
        ),
    ),
    Mutant(
        "the roll-in memo key drops the MDP",
        "src/voxlab/psdp.py",
        "key = (M, covers[t], h, n, t,",
        "key = (covers[t], h, n, t,",
        (
            "tests/test_psdp.py::test_a_memo_shared_across_query_shapes_replays_only_the_keys_they_share",
        ),
    ),
    Mutant(
        "the roll-in memo key drops covers[t]",
        "src/voxlab/psdp.py",
        "key = (M, covers[t], h, n, t,",
        "key = (M, h, n, t,",
        (
            "tests/test_psdp.py::test_a_memo_shared_across_query_shapes_replays_only_the_keys_they_share",
        ),
    ),
    Mutant(
        "the roll-in memo key drops h",
        "src/voxlab/psdp.py",
        "key = (M, covers[t], h, n, t,",
        "key = (M, covers[t], n, t,",
        (
            "tests/test_psdp.py::test_a_memo_shared_across_query_shapes_replays_only_the_keys_they_share",
        ),
    ),
    Mutant(
        "the roll-in memo key drops n",
        "src/voxlab/psdp.py",
        "key = (M, covers[t], h, n, t,",
        "key = (M, covers[t], h, t,",
        (
            "tests/test_psdp.py::test_a_memo_shared_across_query_shapes_replays_only_the_keys_they_share",
        ),
    ),
    Mutant(
        "psdp fits layer h",
        "src/voxlab/psdp.py",
        "q = reward_flat[h].reshape(M.n_states(h), M.A)",
        "q = fit_value_class(Phi, h, ObservedCells(chain[0]), "
        "chain[0].ravel() * reward_flat[h], radius).q_table",
        (
            "tests/test_psdp.py::test_no_query_fits_its_top_layer",
        ),
    ),
    Mutant(
        "psdp skips the first layer above t in the return sums",
        "src/voxlab/psdp.py",
        "for ell in range(t + 1, h):",
        "for ell in range(t + 2, h):",
        (
            "tests/test_psdp.py::test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables",
        ),
    ),
    Mutant(
        "the observed cells' factor drops the count weights",
        "src/voxlab/psdp.py",
        "T.reshape(len(T), -1, T.shape[-1])[:, self.index], self.counts)",
        "T.reshape(len(T), -1, T.shape[-1])[:, self.index])",
        (
            "tests/test_psdp.py::test_fit_ball_matches_the_per_candidate_reference",
            "tests/test_psdp.py::test_regression_data_aggregation_preserves_loss",
        ),
    ),
    Mutant(
        "psdp rebuilds the greedy suffix for every layer's tail",
        "src/voxlab/psdp.py",
        "tuple(greedy[t + 1:])",
        "Policy.from_actions(M, acts[t + 1:], lo=t + 1).tables",
        (
            "tests/test_psdp.py::test_a_query_builds_each_greedy_table_once",
        ),
    ),
    Mutant(
        "the observed cells keep one factor per stack shape, ignoring the layer",
        "src/voxlab/psdp.py",
        "        if self._stack is not T:\n",
        "        if self._stack is None or self._stack.shape != T.shape:\n",
        (
            "tests/test_psdp.py::test_one_cells_object_builds_one_factor_per_consecutive_stack",
        ),
    ),
    Mutant(
        "the observed cells keep a stale factor for a new stack",
        "src/voxlab/psdp.py",
        "        if self._stack is not T:\n",
        "        if self._factor is None:\n",
        (
            "tests/test_psdp.py::test_one_cells_object_builds_one_factor_per_consecutive_stack",
        ),
    ),
    Mutant(
        "psdp keeps no observed cells beside a stored chain",
        "src/voxlab/psdp.py",
        "cells = entry[1] = ObservedCells(chain[0])",
        "cells = ObservedCells(chain[0])",
        (
            "tests/test_psdp.py::test_a_spanrl_design_builds_one_factor_per_memoised_chain",
        ),
    ),
    # ---------------------------------------------------------------- drivers
    Mutant(
        "psdp_draws misses one roll-in",
        "src/voxlab/drivers.py",
        "psdp_draws=len(shared))",
        "psdp_draws=len(shared) - 1)",
        (
            "tests/test_drivers.py::test_spanrl_micro_run_covers_and_accounting",
            "tests/test_drivers.py::test_spanrl_on_a_lock_asks_each_confirmation_query_once",
        ),
    ),
    Mutant(
        "VoX's LinEst hands a one-index design over as a mixture",
        "src/voxlab/drivers.py",
        "pi = (next(iter(P)) if len(P) == 1",
        "pi = (next(iter(P)) if False",
        (
            "tests/test_drivers.py::test_a_one_index_design_reaches_est_mat_as_its_policy",
        ),
    ),
    Mutant(
        "a cover's uniform tail starts one layer late",
        "src/voxlab/drivers.py",
        "uniform(M, hc + 1, M.H - 1)",
        "uniform(M, hc + 2, M.H - 1)",
        (
            "tests/test_drivers.py::test_covers_play_uniform_from_layer_h_minus_1_on",
        ),
    ),
    Mutant(
        "VoX's designs use C = 1.5",
        "src/voxlab/drivers.py",
        "fw_optdesign(lin_opt, lin_est, C,",
        "fw_optdesign(lin_opt, lin_est, 1.5,",
        (
            "tests/test_drivers.py::test_every_design_and_spanner_uses_C_2_and_the_covers_record_it",
        ),
    ),
    Mutant(
        "paper sizes its counts at 0.05 whatever replearn says",
        "src/voxlab/drivers.py",
        '{eta}")\n        delta = kw.setdefault("replearn", RepLearnConfig()).delta\n',
        '{eta}")\n        kw.setdefault("replearn", RepLearnConfig())\n        delta = 0.05\n',
        (
            "tests/test_drivers.py::test_paper_schedules_size_rep_learn_at_their_own_delta[VoxSchedule-0.1]",
        ),
    ),
    Mutant(
        "a cover set reads past the end of a short layer list",
        "src/voxlab/drivers.py",
        "if not 0 <= h < min(self.H, len(self.layers)) or",
        "if not 0 <= h < self.H or",
        (
            "tests/test_drivers.py::test_missing_cover_layer_raises",
        ),
    ),
    Mutant(
        "optimize_reward accepts a reward vector of the wrong shape",
        "src/voxlab/drivers.py",
        "        if th.shape != (M.d,):\n",
        "        if False:\n",
        (
            "tests/test_drivers.py::test_optimize_reward_validation",
            "tests/test_cli.py::test_a_misshaped_theta_exits_2_and_writes_nothing",
        ),
    ),
    # ---------------------------------------------------------------- sampler
    Mutant(
        "the sampler accepts a float n",
        "src/voxlab/simenv.py",
        "not isinstance(n, numbers.Integral)",
        "not isinstance(n, numbers.Real)",
        (
            "tests/test_simenv.py::test_an_n_that_multinomial_cannot_take_raises_before_drawing[2.5]",
            "tests/test_simenv.py::test_an_n_that_multinomial_cannot_take_raises_before_drawing[6000.0]",
            "tests/test_estimators.py::test_estimators_validate_inputs",
        ),
    ),
    Mutant(
        "the roll-in type check is skipped",
        "src/voxlab/simenv.py",
        "    if not isinstance(P, (Policy, PolicyDistribution)):\n",
        "    if False:\n",
        (
            "tests/test_simenv.py::test_sampler_respects_upto_and_counter",
        ),
    ),
    Mutant(
        "a policy's weight reads 0.5",
        "src/voxlab/core.py",
        "    weights = _freeze(np.ones(1))\n",
        "    weights = _freeze(np.full(1, 0.5))\n",
        (
            "tests/test_simenv.py::test_a_policy_reads_as_its_one_policy_mixture_bit_for_bit[mixture_occupancy]",
            "tests/test_simenv.py::test_a_policy_reads_as_its_one_policy_mixture_bit_for_bit[check_policy_cover]",
            "tests/test_simenv.py::test_a_policy_reads_as_its_one_policy_mixture_bit_for_bit[check_design_on_policies]",
            "tests/test_simenv.py::test_a_policy_reads_as_its_one_policy_mixture_bit_for_bit[exact_transfer_error]",
        ),
    ),
    Mutant(
        "_rows leaves the clipped rows unnormalized",
        "src/voxlab/simenv.py",
        "    return p / total\n",
        "    return p\n",
        (
            "tests/test_simenv.py::test_sampler_matches_the_per_row_reference",
        ),
    ),
    Mutant(
        "_rows puts an empty row's mass on its first entry",
        "src/voxlab/simenv.py",
        "p[empty, -1] = total[empty] = 1.0",
        "p[empty, 0] = total[empty] = 1.0",
        (
            "tests/test_simenv.py::test_sampler_matches_the_per_row_reference",
            "tests/test_simenv.py::test_sampler_matches_the_reference_on_random_shapes",
        ),
    ),
    Mutant(
        "the sampler draws actions uniformly, not from the tail's rows",
        "src/voxlab/simenv.py",
        "rng.multinomial(k, rows[x])",
        "rng.multinomial(k, np.full(M.A, 1.0 / M.A))",
        (
            "tests/test_simenv.py::test_rollin_matches_the_per_component_loop",
        ),
    ),
    Mutant(
        "the sampler draws next states from the wrong transition rows",
        "src/voxlab/simenv.py",
        "rng.multinomial(k, trans[j])",
        "rng.multinomial(k, trans[j - 1])",
        (
            "tests/test_simenv.py::test_rollin_matches_the_per_component_loop",
            "tests/test_psdp.py::test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables",
        ),
    ),
    Mutant(
        "the mixture law ignores the component weights",
        "src/voxlab/simenv.py",
        "first = first + w * (_state_law(M, comp, s)[:, None] * rows).ravel()",
        "first = first + (_state_law(M, comp, s)[:, None] * rows).ravel()",
        (
            "tests/test_simenv.py::test_each_law_equals_the_exact_occupancies",
            "tests/test_simenv.py::test_rollin_matches_the_per_component_loop",
            "tests/test_limits.py::test_est_vec_and_est_mat_meet_the_exact_moments[mixture]",
        ),
    ),
    Mutant(
        "the state-law memo key drops the layer",
        "src/voxlab/simenv.py",
        "return _memo(M, s, build, pi)",
        "return _memo(M, None, build, pi)",
        (
            "tests/test_simenv.py::test_a_warm_memo_gives_each_layer_its_own_law",
        ),
    ),
    Mutant(
        "the state-law memo holds its policies strongly",
        "src/voxlab/simenv.py",
        "laws = _LAWS[M] = ({}, weakref.WeakKeyDictionary())",
        "laws = _LAWS[M] = ({}, {})",
        (
            "tests/test_simenv.py::test_the_memo_holds_no_entry_for_a_collected_policy",
        ),
    ),
    Mutant(
        "a component's own action rows are memoised by value",
        "src/voxlab/simenv.py",
        "else _rows(comp.table(s))",
        "else _rows_of(M, comp.table(s))",
        (
            "tests/test_simenv.py::test_the_memo_holds_no_entry_for_a_collected_policy",
        ),
    ),
    Mutant(
        "the rows memo keys a table by its shape alone",
        "src/voxlab/simenv.py",
        "(table.shape, table.tobytes())",
        "(table.shape,)",
        (
            "tests/test_simenv.py::test_each_law_equals_the_exact_occupancies",
            "tests/test_limits.py::test_replearn_targets_meet_the_exact_conditional_means",
        ),
    ),
    Mutant(
        "the state-law recursion plays layer s's table on layer s - 1",
        "src/voxlab/simenv.py",
        "(occ[:, None] * _rows(pi.table(s - 1))).ravel()",
        "(occ[:, None] * _rows(pi.table(s))).ravel()",
        (
            "tests/test_simenv.py::test_each_law_equals_the_exact_occupancies",
            "tests/test_simenv.py::test_a_warm_memo_gives_each_layer_its_own_law",
        ),
    ),
    Mutant(
        "the sampler keeps one next-state draw per cell at s",
        "src/voxlab/simenv.py",
        "np.add.at(states, c, rng.multinomial(k, trans[j]))",
        "states[c] = rng.multinomial(k, trans[j])",
        (
            "tests/test_simenv.py::test_rollin_matches_the_per_component_loop",
            "tests/test_psdp.py::test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables",
        ),
    ),
    Mutant(
        "one-hot steps draw no uniforms",
        "src/voxlab/simenv.py",
        "            rng.random(np.count_nonzero(draws[x]))\n",
        "",
        (
            "tests/test_simenv.py::test_one_hot_steps_match_a_forced_multinomial",
        ),
    ),
    Mutant(
        "one-hot steps also draw for counts on the last action",
        "src/voxlab/simenv.py",
        "rng.random(np.count_nonzero(draws[x]))",
        "rng.random(len(x))",
        (
            "tests/test_simenv.py::test_one_hot_steps_match_a_forced_multinomial",
        ),
    ),
    Mutant(
        "one-hot steps put every count on the first action",
        "src/voxlab/simenv.py",
        "            j = flat[x]\n",
        "            j = x * M.A\n",
        (
            "tests/test_limits.py::test_psdp_returns_a_policy_greedy_on_its_own_exact_q_tables",
            "tests/test_psdp.py::test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables",
        ),
    ),
    Mutant(
        "a step counts as one-hot when its rows sum to one",
        "src/voxlab/simenv.py",
        "len(flat) != len(rows) or np.add.reduce(rows, None) != len(rows)",
        "np.add.reduce(rows, None) != len(rows)",
        (
            "tests/test_simenv.py::test_one_hot_steps_match_a_forced_multinomial",
            "tests/test_simenv.py::test_rollin_matches_the_per_component_loop",
        ),
    ),
    Mutant(
        "the one-hot flat index drops the hot action",
        "src/voxlab/simenv.py",
        "    flat = rows.ravel().nonzero()[0]\n",
        "    flat = rows.ravel().nonzero()[0] - rows.argmax(axis=1)\n",
        (
            "tests/test_simenv.py::test_one_hot_steps_match_a_forced_multinomial",
            "tests/test_psdp.py::test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables",
        ),
    ),
    Mutant(
        "the compiled-law key drops the tail's value",
        "src/voxlab/simenv.py",
        "key = (upto, None if tail is None else tail.action_key())",
        "key = (upto,)",
        (
            "tests/test_simenv.py::test_a_repeated_rollin_compiles_nothing_and_a_new_tail_value_compiles_once",
        ),
    ),
    Mutant(
        "the sampler truncates its later layers' counts to int64",
        "src/voxlab/simenv.py",
        "now = np.zeros((len(cells), states.shape[1] * M.A), dtype=cells.dtype)",
        "now = np.zeros((len(cells), states.shape[1] * M.A), dtype=np.int64)",
        (
            "tests/test_limits.py::test_in_the_limit_replearn_targets_are_the_exact_conditional_means",
            "tests/test_limits.py::test_in_the_limit_psdp_cell_means_are_the_exact_q_tables",
        ),
    ),
    Mutant(
        "the sampler truncates its next-state counts to int64",
        "src/voxlab/simenv.py",
        "states = np.zeros((len(cells), trans.shape[1]), dtype=cells.dtype)",
        "states = np.zeros((len(cells), trans.shape[1]), dtype=np.int64)",
        (
            "tests/test_limits.py::test_in_the_limit_replearn_targets_are_the_exact_conditional_means",
            "tests/test_limits.py::test_in_the_limit_psdp_cell_means_are_the_exact_q_tables",
        ),
    ),
    # -------------------------------------------------------- exact evaluators
    Mutant(
        "exact_policy_value skips advancing the occupancy on a zero-reward layer",
        "src/voxlab/simenv.py",
        "for u in range(at, t):",
        "for u in range(at, min(t, at + 1)):",
        (
            "tests/test_simenv.py::test_policy_value_is_the_per_layer_sum_bit_for_bit",
        ),
    ),
    Mutant(
        "the max-occupancy memo ignores the layer",
        "src/voxlab/simenv.py",
        '_memo(M, ("max", h), build)',
        '_memo(M, ("max",), build)',
        (
            "tests/test_simenv.py::test_memoised_max_occupancies_equal_the_dp_in_any_layer_order",
        ),
    ),
    Mutant(
        "max_occupancies hands out its memoised array",
        "src/voxlab/simenv.py",
        "build).copy()",
        "build)",
        (
            "tests/test_simenv.py::test_max_occupancies_hand_out_a_fresh_array_and_check_every_budget",
        ),
    ),
    Mutant(
        "the feature-coverage bound is not clipped at 0",
        "src/voxlab/evalcover.py",
        "    return max(best, 0.0)\n",
        "    return best\n",
        (
            "tests/test_evalcover.py::test_a_rank_deficient_second_moment_reads_a_coverage_of_0_not_a_complex_bound",
        ),
    ),
    # ------------------------------------------------------------- validation
    Mutant(
        "validate_mdp's l1 bound reads 1.5",
        "src/voxlab/core.py",
        "where(l1 > 1.0 + ROW_SUM_TOL)",
        "where(l1 > 1.5 + ROW_SUM_TOL)",
        (
            "tests/test_core.py::test_the_l1_check_rejects_what_the_sampled_norm_passed",
        ),
    ),
    Mutant(
        "rotate flips phi's signs but not mu's",
        "src/voxlab/simenv.py",
        "phi[h], mu[h] = phi[h] * signs, mu[h] * signs",
        "phi[h], mu[h] = phi[h] * signs, mu[h]",
        (
            "tests/test_simenv.py::test_rotate_flips_signs_and_keeps_every_transition",
        ),
    ),
    Mutant(
        "the integer reader accepts a float",
        "src/voxlab/core.py",
        "    if type(value) is not int:\n",
        "    if type(value) not in (int, float):\n",
        (
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[covers-H-float]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[policy-lo-float]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[env-A-float]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[env-H-float]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[layer-id-float]",
        ),
    ),
    Mutant(
        "CoverSet.from_obj reads H with int()",
        "src/voxlab/drivers.py",
        'H=_integer(obj["H"], "covers.H")',
        'H=int(obj["H"])',
        (
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[covers-H-float]",
        ),
    ),
    Mutant(
        "validate_mdp skips the rho sign check",
        "src/voxlab/core.py",
        "    if np.any(M.rho < -NEG_TOL):\n",
        "    if False:\n",
        (
            "tests/test_core.py::test_validate_names_a_negative_rho_entry_alone",
        ),
    ),
    Mutant(
        "validate_mdp skips the id check",
        "src/voxlab/core.py",
        "        if s in layer_of:\n",
        "        if False:\n",
        (
            "tests/test_core.py::test_validate_names_each_state_id_found_twice_and_both_layers",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[layer-id-twice]",
        ),
    ),
    Mutant(
        "the number reader accepts a string",
        "src/voxlab/core.py",
        "    if type(value) not in (int, float):\n",
        "    if type(value) not in (int, float, str):\n",
        (
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[rho-string]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[weights-string]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[policy-table-string]",
        ),
    ),
    # -------------------------------------------------------------------- cli
    Mutant(
        "the hash check is skipped",
        "src/voxlab/cli.py",
        "    if sha != _env_sha256(M):\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_a_run_file_is_read_only_against_its_own_environment",
            "tests/test_cli.py::test_a_spanrl_run_on_one_seed_is_refused_by_the_next",
        ),
    ),
    Mutant(
        "the JSON loader lets a build's VoxlabError through unnamed",
        "src/voxlab/cli.py",
        "    except VoxlabError as exc:\n"
        "        raise VoxlabError(f\"{what} {path}: {exc}\") from exc\n",
        "",
        (
            "tests/test_cli.py::test_nan_cover_weights_exit_2",
        ),
    ),
    Mutant(
        "the CLI accepts an unknown top-level config key",
        "src/voxlab/cli.py",
        "    if unknown:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_an_unknown_top_level_key_exits_2_naming_it_and_the_allowed_keys",
            "tests/test_cli.py::test_config_errors_exit_2_without_a_traceback",
        ),
    ),
    Mutant(
        "the run file copies covers.kind into an algorithm key",
        "src/voxlab/cli.py",
        '    obj["seed"], obj["env_sha256"] = args.seed, _env_sha256(M)\n',
        '    obj["algorithm"] = result.covers.kind\n'
        '    obj["seed"], obj["env_sha256"] = args.seed, _env_sha256(M)\n',
        (
            "tests/test_cli.py::test_vox_run_payload_structure",
            "tests/test_cli.py::test_spanrl_run_and_rerun",
        ),
    ),
    Mutant(
        "the CLI loads a run file whose cover list is not H long",
        "src/voxlab/cli.py",
        "    if len(covers.layers) != M.H:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[verify-short-covers]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[verify-long-covers]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[optimize-short-covers]",
            "tests/test_cli.py::test_structurally_malformed_json_exits_2_naming_the_file[optimize-long-covers]",
        ),
    ),
    Mutant(
        "the parser registers a selftest subcommand again",
        "src/voxlab/cli.py",
        "    return parser\n",
        '    sub.add_parser("selftest").set_defaults(func=lambda args: 0)\n'
        "    return parser\n",
        (
            "tests/test_cli.py::test_selftest_is_a_usage_error",
        ),
    ),
    # ---------------------------------------------------------------- imports
    Mutant(
        "a library module imports a name it never reads",
        "src/voxlab/estimators.py",
        "\nimport numpy as np\n",
        "\nimport json\n\nimport numpy as np\n",
        (
            "tests/test_surface.py::test_every_module_reads_what_it_imports",
        ),
    ),
)
