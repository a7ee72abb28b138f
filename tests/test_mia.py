import numpy as np
import pytest

from nnshapley._rng import (
    TAG_SCORE_IN,
    TAG_SCORE_OBS,
    TAG_SCORE_OUT,
    TAG_SHADOW,
    stream,
    substream_seed,
)
from nnshapley.dataset import DistanceMetric, generate_gaussian_synthetic
from nnshapley.dp import DpParams
from nnshapley.errors import ParameterError
from nnshapley.evaluation import MethodConfig
from nnshapley.mia import (
    MiaConfig,
    likelihood_ratio,
    mia_auroc,
    mia_lambdas,
    mia_score,
    value_scorer,
)

NEGCOS = DistanceMetric.NEGATIVE_COSINE


def split_pool(seed, n_targets=10, shadow=80, nval=8, d=4):
    pool = generate_gaussian_synthetic(2 * n_targets + shadow + nval, d, seed=seed)
    members = pool.subset(range(0, n_targets))
    nonmembers = pool.subset(range(n_targets, 2 * n_targets))
    shadow_pool = pool.subset(range(2 * n_targets, 2 * n_targets + shadow))
    zvals = pool.subset(range(2 * n_targets + shadow, pool.n))
    return members, nonmembers, shadow_pool, zvals


class TestLikelihoodRatio:
    def test_identical_populations_give_one(self):
        assert likelihood_ratio(0.3, 0.1, 0.2, 0.1, 0.2) == 1.0

    def test_member_like_observation_favors_in(self):
        # Observation far below the OUT mean with mu_in < mu_out: the copy's
        # value is depressed by the duplicate, so the IN density wins.
        lam = likelihood_ratio(phi_obs=-0.5, mu_in=-0.4, var_in=0.01, mu_out=0.2, var_out=0.01)
        assert lam > 1.0

    def test_affine_invariance(self, rng):
        for _ in range(100):
            mu_in, mu_out = rng.normal(size=2)
            var_in, var_out = rng.random(2) + 0.05
            phi = rng.normal()
            a = rng.random() * 3 + 0.1
            b = rng.normal()
            lam = likelihood_ratio(phi, mu_in, var_in, mu_out, var_out)
            lam_t = likelihood_ratio(
                a * phi + b, a * mu_in + b, a * a * var_in, a * mu_out + b, a * a * var_out
            )
            assert lam_t == pytest.approx(lam, rel=1e-9)

    def test_variance_floor_prevents_blowup(self):
        lam = likelihood_ratio(0.0, 0.0, 0.0, 1.0, 0.0)
        assert np.isfinite(lam)


class TestMiaScore:
    def test_seeded_determinism(self):
        members, _, shadow, zvals = split_pool(3)
        scorer = value_scorer(MethodConfig("knn", k=1, metric=NEGCOS))
        cfg = MiaConfig(shadow_count=4, shadow_size=20, seed=9)
        a = mia_score(scorer, members.point(0), shadow, members, cfg, zvals)
        b = mia_score(scorer, members.point(0), shadow, members, cfg, zvals)
        assert a == b

    def test_world_keys(self):
        # Each world's context rows and seed come from the per-key streams,
        # in call order: IN then OUT for every shadow t, then the observation.
        members, _, shadow, zvals = split_pool(10)
        target = members.point(2)
        cfg = MiaConfig(shadow_count=5, shadow_size=12, seed=2**33 + 7)
        calls = []

        def recording(context, tgt, zv, seed):
            calls.append((context.features.copy(), context.labels.copy(), seed))
            return float(len(calls))

        mia_score(recording, target, shadow, members, cfg, zvals)
        expected = []
        for t in range(cfg.shadow_count):
            idx = stream(cfg.seed, TAG_SHADOW, t).choice(shadow.n, size=12, replace=False)
            world = shadow.subset(np.sort(idx))
            expected.append((world.with_point(target), substream_seed(cfg.seed, TAG_SCORE_IN, t)))
            expected.append((world, substream_seed(cfg.seed, TAG_SCORE_OUT, t)))
        expected.append((members, substream_seed(cfg.seed, TAG_SCORE_OBS, 0)))
        assert len(calls) == len(expected)
        for (features, labels, seed), (world, want_seed) in zip(calls, expected):
            assert features.tobytes() == world.features.tobytes()
            assert np.array_equal(labels, world.labels)
            assert seed == want_seed

    def test_target_keys(self):
        # Target i of group g (0 members, 1 nonmembers) runs on the seed
        # substream_seed(seed, g, i); its observation seed derives from that.
        members, nonmembers, shadow, zvals = split_pool(11, n_targets=3)
        cfg = MiaConfig(shadow_count=2, shadow_size=6, seed=5)
        obs_seeds = []

        def recording(context, tgt, zv, seed):
            if context is members:
                obs_seeds.append(seed)
            return 0.0

        mia_lambdas(recording, members, nonmembers, shadow, members, cfg, zvals)
        assert obs_seeds == [
            substream_seed(substream_seed(cfg.seed, g, i), TAG_SCORE_OBS, 0)
            for g in (0, 1)
            for i in range(3)
        ]

    def test_verdict_fields_populated(self):
        members, _, shadow, zvals = split_pool(4)
        scorer = value_scorer(MethodConfig("tknn", tau=-0.3, metric=NEGCOS))
        cfg = MiaConfig(shadow_count=4, shadow_size=15, seed=1)
        verdict = mia_score(scorer, members.point(1), shadow, members, cfg, zvals)
        assert np.isfinite(verdict.lam)
        assert verdict.var_in >= 0.0 and verdict.var_out >= 0.0

    def test_insufficient_shadow_pool(self):
        members, _, shadow, zvals = split_pool(5)
        scorer = value_scorer(MethodConfig("knn", k=1, metric=NEGCOS))
        cfg = MiaConfig(shadow_count=4, shadow_size=shadow.n + 1, seed=1)
        with pytest.raises(ParameterError, match="shadow"):
            mia_score(scorer, members.point(0), shadow, members, cfg, zvals)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            MiaConfig(shadow_count=1)
        with pytest.raises(ParameterError, match="seed"):
            MiaConfig(seed=-1)


class TestMiaAuroc:
    def test_constant_scorer_is_exactly_half(self):
        members, nonmembers, shadow, zvals = split_pool(6)

        def constant(context, target, zv, seed):
            return 1.0

        cfg = MiaConfig(shadow_count=4, shadow_size=10, seed=2)
        score = mia_auroc(constant, members, nonmembers, shadow, members, cfg, zvals)
        assert score == 0.5

    def test_duplicate_sensitive_scenario_beats_chance(self):
        # Small version of the attack scenario: members sit inside the server
        # dataset, so the crafted copy collides with them and drops in value.
        members, nonmembers, shadow, zvals = split_pool(7, n_targets=24, shadow=120, nval=24)
        scorer = value_scorer(MethodConfig("knn", k=1, metric=NEGCOS))
        cfg = MiaConfig(shadow_count=16, shadow_size=members.n, seed=5)
        score = mia_auroc(scorer, members, nonmembers, shadow, members, cfg, zvals)
        assert score > 0.5

    def test_noise_degrades_attack_on_average(self):
        # Median attack AUROC at doubled noise never beats the quieter run.
        members, nonmembers, shadow, zvals = split_pool(8, n_targets=10, shadow=60, nval=8)
        results = {}
        for sigma in (0.5, 1.0):
            per_seed = []
            for seed in range(3):
                scorer = value_scorer(MethodConfig(
                    "dp-tknn", tau=-0.3, metric=NEGCOS,
                    dp=DpParams(delta=1e-4, sigma=sigma, q=1.0),
                ))
                cfg = MiaConfig(shadow_count=8, shadow_size=members.n, seed=seed)
                per_seed.append(
                    mia_auroc(scorer, members, nonmembers, shadow, members, cfg, zvals)
                )
            results[sigma] = float(np.median(per_seed))
        assert results[1.0] <= results[0.5] + 1e-9

    def test_empty_population_rejected(self):
        members, nonmembers, shadow, zvals = split_pool(9)
        empty = members.subset([])
        scorer = value_scorer(MethodConfig("knn", k=1, metric=NEGCOS))
        with pytest.raises(ParameterError):
            mia_auroc(scorer, empty, nonmembers, shadow, members, MiaConfig(seed=0), zvals)
