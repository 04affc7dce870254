import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voteopt import (
    DeParams,
    baseline_with_selection,
    bma_weights,
    de_weights,
    uw_pc,
    uw_pcc,
    wa_pc,
    wa_pcc,
)
from voteopt import baselines
from voteopt.baselines import _project_simplex, _trial_ceiling, compute_scheme

from conftest import D2_VALUES, SVM_ROW, random_accuracy_matrix


class TestUniformSchemes:
    def test_uw_pc_eight_classifiers(self):
        w = uw_pc(8, 5)
        assert np.all(w.w == 0.125)

    def test_uw_pc_single(self):
        assert uw_pc(1, 3).w == pytest.approx(np.full((1, 3), 1.0))

    def test_uw_pc_four_by_two(self):
        assert np.all(uw_pc(4, 2).w == 0.25)

    def test_uw_pcc_eight_by_five(self):
        assert np.all(uw_pcc(8, 5).w == 0.025)

    def test_uw_pcc_single_pair(self):
        assert uw_pcc(1, 1).w[0, 0] == 1.0

    def test_uw_pcc_two_by_two(self):
        assert np.all(uw_pcc(2, 2).w == 0.25)


class TestAccuracyWeightedSchemes:
    def test_wa_pc_dominant_classifier(self):
        w = wa_pc(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert w.w[0] == pytest.approx([1.0, 1.0])
        assert w.w[1] == pytest.approx([0.0, 0.0])

    def test_wa_pc_d2_svm_weight(self, d2_matrix):
        w = wa_pc(d2_matrix)
        # SVM row mean 0.816 over the summed row means 6.686
        assert w.w[SVM_ROW, 0] == pytest.approx(0.816 / 6.686, abs=2e-3)

    def test_wa_pc_identical_rows_uniform(self):
        w = wa_pc(np.full((4, 3), 0.6))
        assert w.w == pytest.approx(np.full((4, 3), 0.25))

    def test_wa_pcc_d2_svm_row_rounds_to_reported(self, d2_matrix):
        w = wa_pcc(d2_matrix)
        rounded = np.round(w.w[SVM_ROW], 2)
        assert rounded == pytest.approx([0.02, 0.02, 0.03, 0.02, 0.03])

    def test_wa_pcc_single_entry(self):
        assert wa_pcc(np.array([[1.0]])).w[0, 0] == 1.0

    def test_wa_pcc_uniform_reduces_to_uw_pcc(self):
        w = wa_pcc(np.full((3, 2), 0.4))
        assert w.w == pytest.approx(np.full((3, 2), 1.0 / 6))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            wa_pc(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            wa_pcc(np.zeros((2, 2)))


class TestBma:
    def test_d2_svm_row(self, d2_matrix):
        w = bma_weights(d2_matrix)
        assert w.w[SVM_ROW] == pytest.approx(
            [0.0218, 0.0224, 0.0272, 0.0228, 0.0280], abs=5e-4
        )

    def test_uniform_reduces_to_uw_pcc(self):
        w = bma_weights(np.full((4, 2), 0.7))
        assert w.w == pytest.approx(np.full((4, 2), 0.125))

    def test_single_class_dominant(self):
        w = bma_weights(np.array([[1.0], [0.0]]))
        assert w.w[:, 0] == pytest.approx([1.0, 0.0])

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="column"):
            bma_weights(np.array([[0.0, 0.5], [0.0, 0.5]]))


class TestDifferentialEvolution:
    def test_uniform_fitness_on_d2(self):
        # DE's fitness of the uniform genome: uw_pc's class-averaged weighted accuracy
        assert (uw_pc(8, 5).w * D2_VALUES).sum() / 5 == pytest.approx(
            33.43 / 40, abs=5e-4
        )

    def test_dominant_classifier_converges(self):
        w = de_weights(
            np.array([[1.0, 1.0], [0.0, 0.0]]), DeParams(rng_seed=42)
        )
        assert w.w[:, 0] == pytest.approx([1.0, 0.0], abs=1e-3)
        assert w.w[:, 1] == pytest.approx([1.0, 0.0], abs=1e-3)

    def test_single_classifier_gets_everything(self):
        for seed in (0, 7, 42):
            w = de_weights(np.array([[0.3, 0.9]]), DeParams(rng_seed=seed))
            assert w.w == pytest.approx(np.ones((1, 2)))

    def test_seed_reproducibility(self, d2_matrix):
        a = de_weights(d2_matrix, DeParams(rng_seed=5))
        b = de_weights(d2_matrix, DeParams(rng_seed=5))
        assert np.array_equal(a.w, b.w)

    def test_population_too_small_rejected(self):
        with pytest.raises(ValueError, match="population"):
            DeParams(population_size=3)

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError, match="generations"):
            DeParams(max_generations=-1)
        assert DeParams(max_generations=0).max_generations == 0

    def test_weights_shared_across_classes(self, d2_matrix):
        w = de_weights(d2_matrix)
        for j in range(1, 5):
            assert np.array_equal(w.w[:, j], w.w[:, 0])
        assert w.w.sum(axis=0) == pytest.approx(np.ones(5))


class TestMassAndSymmetry:
    def test_mass_conventions(self, d2_matrix):
        per_classifier = (uw_pc(8, 5), wa_pc(d2_matrix), de_weights(d2_matrix))
        for w in per_classifier:
            assert w.w.sum(axis=0) == pytest.approx(np.ones(5), abs=1e-12)
        per_pair = (uw_pcc(8, 5), wa_pcc(d2_matrix), bma_weights(d2_matrix))
        for w in per_pair:
            assert w.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        vals = rng.random((4, 3))
        for fn in (wa_pc, wa_pcc, bma_weights):
            assert fn(0.5 * vals).w == pytest.approx(fn(vals).w, abs=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        vals = rng.random((5, 3))
        perm = rng.permutation(5)
        for name in ("uw_pc", "uw_pcc", "wa_pc", "wa_pcc", "bma"):
            direct = compute_scheme(name, vals[perm])
            permuted = compute_scheme(name, vals).w[perm]
            assert direct.w == pytest.approx(permuted, abs=1e-12)

    def test_unknown_scheme_names_the_schemes(self):
        with pytest.raises(ValueError) as exc:
            compute_scheme("nope", np.ones((2, 2)))
        assert str(exc.value) == ("unknown scheme 'nope'; expected one of "
                                  "('uw_pc', 'uw_pcc', 'wa_pc', 'wa_pcc', 'de', 'bma')")

    def test_de_permutation_equivariance_at_convergence(self):
        # DE's draws do not permute with the rows, so equivariance holds
        # only up to convergence tolerance; use a fixture it solves exactly
        vals = np.array([[1.0, 1.0], [0.0, 0.0]])
        direct = de_weights(vals[::-1], DeParams(rng_seed=42))
        permuted = de_weights(vals, DeParams(rng_seed=42)).w[::-1]
        assert direct.w == pytest.approx(permuted, abs=1e-3)


class TestBaselineWithSelection:
    def test_full_size_equals_plain_scheme(self, d2_matrix):
        selection, w = baseline_with_selection("wa_pcc", d2_matrix, 8)
        assert selection.count == 8
        assert w.w == pytest.approx(wa_pcc(d2_matrix).w)

    def test_picks_the_only_good_classifier(self):
        from voteopt import AccuracyMatrix, ClassSet, ClassifierSet

        v = AccuracyMatrix(
            [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
            ClassifierSet(("a", "b", "c")),
            ClassSet(("x", "y")),
        )
        for scheme in ("uw_pc", "uw_pcc"):
            selection, _ = baseline_with_selection(scheme, v, 1)
            assert selection.indices == (0,)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(19)
        v = random_accuracy_matrix(rng, n=5, m=3)
        selection, w = baseline_with_selection("uw_pc", v, 2)
        best = max(
            (v.values[list(s), :].mean(), s)
            for s in itertools.combinations(range(5), 2)
        )
        assert selection.indices == best[1]


def full_loop_de(vals, params=DeParams()):
    """The reference: de_weights with every generation run, no early exit."""
    n = vals.shape[0]
    coef = vals.mean(axis=1)
    rng = np.random.default_rng(params.rng_seed)
    pop = params.population_size
    f = params.differential_weight
    cr = params.crossover_rate
    population = rng.random((pop, n))
    fitness = population @ coef
    for _ in range(params.max_generations):
        for i in range(pop):
            idx = rng.choice(pop - 1, size=3, replace=False)
            idx[idx >= i] += 1
            mutant = population[idx[0]] + f * (population[idx[1]] - population[idx[2]])
            cross = rng.random(n) < cr
            cross[rng.integers(n)] = True
            trial = _project_simplex(np.where(cross, mutant, population[i]))
            trial_fitness = trial @ coef
            if trial_fitness > fitness[i]:
                population[i] = trial
                fitness[i] = trial_fitness
    best = population[int(np.argmax(fitness))]
    total = best.sum()
    genome = best / total if total > 0 else np.full(n, 1.0 / n)
    return np.repeat(genome[:, None], vals.shape[1], axis=1)


def exit_fires(vals, params):
    population = np.random.default_rng(params.rng_seed).random(
        (params.population_size, vals.shape[0])
    )
    coef = vals.mean(axis=1)
    return (population @ coef).max() > _trial_ceiling(coef)


class TestDeEarlyExit:
    def assert_same_as_full_loop(self, vals, params):
        got = de_weights(vals, params).w
        want = full_loop_de(vals, params)
        assert got.tobytes() == want.tobytes()

    def test_every_d2_subset_matches_the_full_loop(self):
        # the default seed and population, so the same initial population
        # as the default run; two generations keep 255 reference runs short
        params = DeParams(max_generations=2)
        fired = 0
        for k in range(1, 9):
            for subset in itertools.combinations(range(8), k):
                vals = D2_VALUES[list(subset), :]
                fired += exit_fires(vals, params)
                self.assert_same_as_full_loop(vals, params)
        # it fires for all 247 subsets with K >= 2 and none of the 8 at K = 1
        assert fired == 247

    @pytest.mark.parametrize("subset", [(0,), (0, 5), (1, 2, 6), tuple(range(8))])
    def test_default_params_match_the_full_loop(self, subset):
        self.assert_same_as_full_loop(D2_VALUES[list(subset), :], DeParams())

    def test_seeded_pools_match_the_full_loop(self):
        rng = np.random.default_rng(2024)
        fired = 0
        for case in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            kind = case % 4
            if kind == 0:
                vals = rng.random((n, m))
            elif kind == 1:
                vals = np.clip(0.7 + 0.3 * rng.random((n, m)), 0.0, 1.0)
            elif kind == 2:
                # one strong row among weak ones: a simplex point can win
                vals = 0.05 * rng.random((n, m))
                vals[int(rng.integers(n))] = 1.0
            else:
                vals = np.round(rng.uniform(0.5, 1.0, size=(n, m)), 1)
            params = DeParams(
                population_size=int(rng.integers(4, 25)),
                max_generations=int(rng.integers(0, 12)),
                differential_weight=float(rng.uniform(0.1, 2.0)),
                crossover_rate=float(rng.uniform(0.0, 1.0)),
                rng_seed=int(rng.integers(2**31)),
            )
            fired += exit_fires(vals, params)
            self.assert_same_as_full_loop(vals, params)
        assert 10 <= fired <= 50

    def test_single_classifier_returns_without_drawing(self, monkeypatch):
        # seeded 1 x m pools, one all-zero; the weights cannot depend on
        # the draws, so none are made
        rng = np.random.default_rng(77)
        pools = [np.zeros((1, 3)), D2_VALUES[[4], :]]
        pools += [rng.random((1, int(rng.integers(1, 6)))) for _ in range(6)]
        for case, vals in enumerate(pools):
            params = DeParams(
                population_size=int(rng.integers(4, 25)),
                max_generations=int(rng.integers(1, 40)),
                differential_weight=float(rng.uniform(0.1, 2.0)),
                crossover_rate=float(rng.uniform(0.0, 1.0)),
                rng_seed=int(rng.integers(2**31)),
            )
            want = full_loop_de(vals, params)
            with monkeypatch.context() as patched:
                patched.setattr(baselines.np.random, "default_rng", None)
                got = de_weights(vals, params).w
            assert got.tobytes() == want.tobytes(), case
            assert got.shape == vals.shape
            # with a trace asked for, the loop runs
            self.assert_same_as_full_loop(vals, params)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 64), flat=st.booleans())
    def test_projected_trial_stays_below_the_ceiling(self, data, n, flat):
        vec = np.array(data.draw(st.lists(st.floats(-2.0, 3.0), min_size=n, max_size=n)))
        if flat:
            # equal entries score sum(trial) * c, which shows the rounding
            coef = np.full(n, data.draw(st.floats(0.0, 1.0)))
        else:
            coef = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        assert _project_simplex(vec) @ coef <= _trial_ceiling(coef)

    def test_ceiling_covers_rounding_above_the_best_row(self):
        rng = np.random.default_rng(8)
        above = 0
        for _ in range(3000):
            n = int(rng.integers(1, 65))
            vec = rng.uniform(-2.0, 3.0, n)
            coef = np.full(n, rng.random()) if rng.random() < 0.5 else rng.random(n)
            fitness = _project_simplex(vec) @ coef
            assert fitness <= _trial_ceiling(coef)
            above += fitness > coef.max()
        # rounding does lift trials above max(coef), so the margin is needed
        assert above > 0

    def test_no_projection_on_d2_subsets(self, d2_matrix, monkeypatch):
        calls = []

        def counted(vec):
            calls.append(1)
            return _project_simplex(vec)

        monkeypatch.setattr(baselines, "_project_simplex", counted)
        for k in range(2, 9):
            baseline_with_selection("de", d2_matrix, k)
        assert len(calls) == 0
        de_weights(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert len(calls) > 0
