"""Online control plane: traces, monitoring, policies, the control loop.

The paper plans a deployment once, for a fixed client population; its
prior-work mechanism (:mod:`repro.extensions.redeploy`) improves a
running deployment.  This package closes the loop between them: a
:class:`~repro.control.loop.ControlLoop` runs a deployment inside the
discrete-event simulator under a time-varying workload
(:mod:`repro.control.traces`), observes it
(:mod:`repro.control.monitor`), and adapts it on a rolling horizon
through pluggable policies (:mod:`repro.control.policy`) that choose
between in-place improvement and full replans — the monitor → decide →
act architecture of production middleware control planes.

Entry points: :meth:`repro.api.PlanningSession.control_run`, the
``repro-deploy control`` CLI subcommand, and :class:`ControlLoop`
directly.
"""

import importlib

# Lazy re-exports (PEP 562): importing repro.control (or one of its
# light submodules, e.g. repro.control.policy for the CLI's --policy
# choices) must not drag in the loop/monitor/middleware/sim stack.
# Each public name resolves to its defining submodule on first access.
_EXPORTS = {
    "ControlLoop": "repro.control.loop",
    "ControlTimeline": "repro.control.loop",
    "EpochRecord": "repro.control.loop",
    "MigrationStepRecord": "repro.control.loop",
    "SLOMonitor": "repro.control.monitor",
    "WindowObservation": "repro.control.monitor",
    "MIGRATION_MODES": "repro.control.policy",
    "PROTOCOL_VERSION": "repro.control.protocol",
    "EXECUTOR_KINDS": "repro.control.protocol",
    "MigrationCommand": "repro.control.protocol",
    "RegionReport": "repro.control.protocol",
    "plan_commands": "repro.control.protocol",
    "commands_to_plan": "repro.control.protocol",
    "parse_command": "repro.control.protocol",
    "parse_report": "repro.control.protocol",
    "execute_command": "repro.control.protocol",
    "InProcessExecutor": "repro.control.protocol",
    "ProcessExecutor": "repro.control.protocol",
    "make_executor": "repro.control.protocol",
    "SCHEMA_VERSION": "repro.control.registry",
    "DeploymentRegistry": "repro.control.registry",
    "RegistryEntry": "repro.control.registry",
    "serialize_tree": "repro.control.registry",
    "restore_tree": "repro.control.registry",
    "tree_digest": "repro.control.registry",
    "ControlContext": "repro.control.policy",
    "ControlDecision": "repro.control.policy",
    "ControlPolicy": "repro.control.policy",
    "MigrationCostModel": "repro.control.policy",
    "PolicyOptions": "repro.control.policy",
    "HoldOptions": "repro.control.policy",
    "ReactiveOptions": "repro.control.policy",
    "PredictiveOptions": "repro.control.policy",
    "OracleOptions": "repro.control.policy",
    "StaticPolicy": "repro.control.policy",
    "ReactivePolicy": "repro.control.policy",
    "PredictivePolicy": "repro.control.policy",
    "OraclePolicy": "repro.control.policy",
    "register_policy": "repro.control.policy",
    "available_policies": "repro.control.policy",
    "make_policy": "repro.control.policy",
    "Trace": "repro.control.traces",
    "HybridTrace": "repro.control.traces",
    "burst": "repro.control.traces",
    "constant": "repro.control.traces",
    "diurnal": "repro.control.traces",
    "fixture": "repro.control.traces",
    "fixtures": "repro.control.traces",
    "flash_crowd": "repro.control.traces",
    "from_spec": "repro.control.traces",
    "hybrid": "repro.control.traces",
    "piecewise": "repro.control.traces",
    "ramp": "repro.control.traces",
    "replay": "repro.control.traces",
}


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.control' has no attribute {name!r}"
        )
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = list(_EXPORTS)
