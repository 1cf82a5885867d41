#!/usr/bin/env python3
"""The density-increment driver, start to finish.

Embed the extremal construction into Z/751, then repeatedly look for a
Bohr set and a translate where the set is denser by the factor 1 + 1/16k.
Every accepted step is re-verified here by literal intersection counting,
and the trace is identical across repeat runs.
"""

import json

from invariant_eq_lab import (
    BehrendParams,
    DriverConfig,
    InvariantEquation,
    build_behrend,
    embed_interval,
    enumerate_members,
    increment_driver,
)

BAR = "-" * 64

out = build_behrend(BehrendParams(5, 2, 1, 4))
eq = InvariantEquation((1, 1, 1, -3))
group, A = embed_interval(out.interval_set, eq)

print(BAR)
print(f"Extremal set embedded into Z/{group.p}; alpha_0 = {A.density():.5f}")
print(BAR)

config = DriverConfig(max_dim=1, max_steps=16)
trace = increment_driver(A, eq, config)

factor = 1 + 1 / (16 * eq.arity)
print(f"step acceptance factor: 1 + 1/16k = {factor:.6f}")
print(f"{'i':>2} {'alpha':>9} {'|B|':>5} {'dim':>3} {'width':>8} {'mechanism':>22} {'check':>6}")
for i, step in enumerate(trace.steps):
    members = set(enumerate_members(step.bohr_set).elements)
    recount = len(set(step.dense_set.elements) & members) / len(members)
    verified = abs(recount - step.density) < 1e-12
    print(
        f"{i:>2} {step.density:>9.5f} {len(members):>5} {step.bohr_set.dimension:>3} "
        f"{step.bohr_set.width:>8.4f} {step.mechanism:>22} {'ok' if verified else 'BAD':>6}"
    )
print(f"terminal reason: {trace.terminal_reason.value}")

again = increment_driver(A, eq, config)
same = json.dumps(trace.to_dict(), sort_keys=True) == json.dumps(again.to_dict(), sort_keys=True)
print(f"second run byte-identical: {same}")
