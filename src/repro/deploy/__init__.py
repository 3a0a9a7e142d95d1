"""Deployment plan serialization, validation and launching.

The paper's tool chain writes the planned hierarchy to an XML file
(``write_xml`` in Table 1) which GoDIET [5] consumes to launch the real
platform.  This package mirrors that chain for the simulated platform:

* :mod:`repro.deploy.plan` — the serializable deployment plan;
* :mod:`repro.deploy.xml_io` — GoDIET-style XML writer/reader;
* :mod:`repro.deploy.validation` — structural and resource checks;
* :mod:`repro.deploy.godiet` — the launcher that turns a plan into a
  running :class:`~repro.middleware.system.MiddlewareSystem`;
* :mod:`repro.deploy.migration` — subtree-granular migration plans
  between two deployments (the live-redeploy diff engine).
"""

from repro.deploy.plan import DeploymentPlan
from repro.deploy.xml_io import plan_to_xml, plan_from_xml
from repro.deploy.validation import check_plan, ValidationIssue
from repro.deploy.godiet import GoDIET, DeployedPlatform
from repro.deploy.migration import (
    MigrationPlan,
    MigrationRegion,
    MigrationStep,
    hierarchies_equal,
    plan_migration,
)

__all__ = [
    "DeploymentPlan",
    "MigrationPlan",
    "MigrationRegion",
    "MigrationStep",
    "hierarchies_equal",
    "plan_migration",
    "plan_to_xml",
    "plan_from_xml",
    "check_plan",
    "ValidationIssue",
    "GoDIET",
    "DeployedPlatform",
]
