"""Baseline execution profiles: DeepSpeed MoE's fflayer cost.

The Fairseq profile is :data:`repro.runtime.plan.FAIRSEQ_FEATURES` and
its dense memory is :func:`repro.cluster.memory.dense_moe_memory`; its
dense GShard encode/decode are :mod:`repro.moe.encode`'s oracles.
"""
