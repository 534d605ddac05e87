"""The monotonicity decomposition (P3 against P1 and P2) as a sampled
check, used only by the tests."""
from dataclasses import dataclass

from paragas import SamplerConfig, Transaction, env_pool, similar
from paragas.properties import instance_to_dict, sample_instance
from paragas.sampling import rng_for


@dataclass(frozen=True)
class LemmaReport:
    mechanism: str
    trials: int
    p3_violations: int
    decomposed: int
    inconsistencies: tuple

    @property
    def ok(self) -> bool:
        return not self.inconsistencies


def check_lemma_consistency(mech: str, cfg: SamplerConfig,
                            budget: int) -> LemmaReport:
    """On sampled (T, tx1, tx2) with t1 <= t2 and K1 ⊆ K2, every combined
    monotonicity violation must decompose through the intermediate
    transaction (t1, K2) into a key-monotonicity or a time-monotonicity
    violation, and strict component behavior must compose strictly."""
    envs = env_pool(cfg)
    rng = rng_for(cfg, "lemma", mech)
    p3_violations = decomposed = 0
    inconsistencies = []
    for trial in range(budget):
        threads = rng.choice(cfg.threads)
        env = envs[threads]
        inst = sample_instance("key_time_monotonicity", rng, cfg)
        tx1, tx2 = inst.tx1, inst.tx2
        mid = Transaction("x3!", tx1.time, tx2.keys)
        gas1 = env.gas(inst.base.with_txs(tx1), tx1, mech)
        gas2 = env.gas(inst.base.with_txs(tx2), tx2, mech)
        gas_mid = env.gas(inst.base.with_txs(mid), mid, mech)
        if gas1 > gas2:
            p3_violations += 1
            if gas1 > gas_mid or gas_mid > gas2:
                decomposed += 1
            else:
                inconsistencies.append(
                    ("undecomposable_violation", trial,
                     instance_to_dict(inst)))
        # Strict composition: strict component behavior on both legs forces
        # a strict combined conclusion whenever tx1 and tx2 differ.
        leg1_strict = similar(tx1, mid) or gas1 < gas_mid
        leg2_strict = similar(mid, tx2) or gas_mid < gas2
        if (not similar(tx1, tx2)) and leg1_strict and leg2_strict \
                and not gas1 < gas2:
            inconsistencies.append(
                ("strictness_composition", trial, instance_to_dict(inst)))
    return LemmaReport(mech, budget, p3_violations, decomposed,
                       tuple(inconsistencies))
