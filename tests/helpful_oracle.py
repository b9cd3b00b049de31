"""Reference helpful-law check: `explorer.check_helpful` as it was when
it stepped every state eagerly.

It builds each typable state's whole successor list with `step_config`
and then measures the successors until one is helpful, kept verbatim.
The explorer's check builds successors only until one is helpful; the
differential tests require the identical result, the violations'
configurations included.
"""

from __future__ import annotations

from gract.semantics import config_to_json, is_terminated, step_config
from gract.terms import Configuration, Program
from gract.typecheck import measure_of_config, type_config


def check_helpful(prog: Program, configs: list[Configuration]) -> dict:
    """Every typable state that can still move must have a successor with a
    strictly smaller measure, and a typable state (resources included)
    with no successor must have terminated. Pruning never hides successors
    here."""
    violations = []
    checked = 0
    for cfg in configs:
        mu = measure_of_config(prog, cfg)
        if mu is None:
            continue
        succ = step_config(cfg, prog)
        if not succ:
            if not is_terminated(cfg) and type_config(prog, cfg)["ok"]:
                checked += 1
                violations.append({"code": "StuckState", "measure": mu,
                                   "config": config_to_json(cfg)})
            continue
        checked += 1
        mus = (measure_of_config(prog, s.config) for s in succ)
        if not any(v is not None and v < mu for v in mus):
            violations.append({"code": "NoHelpfulSuccessor", "measure": mu,
                               "config": config_to_json(cfg)})
    return {"ok": not violations, "checked": checked, "violations": violations}
