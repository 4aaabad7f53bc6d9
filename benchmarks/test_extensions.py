"""Bench: extension features (mixed per-site policy).

These time the framework pieces beyond the paper's study and assert
their headline behaviours, so the extensions stay regression-guarded
alongside the paper artifacts.
"""

from repro.blas.policy import SitePolicy


def test_mixed_policy_run(benchmark, bench_sim):
    policy = SitePolicy({"nlp_prop": "FLOAT_TO_BF16X3"},
                        default="FLOAT_TO_BF16")

    def run():
        with policy.active():
            return bench_sim.run(n_steps=10)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.records) == 11
