"""GoDIET-style XML serialization of deployment plans.

Algorithm 1's final step (``write_xml``) emits "an XML file ... given as
an input to deployment tool to deploy the hierarchical platform".  The
format here follows GoDIET's nested structure: a ``<resources>`` section
listing nodes and the link bandwidth, and a ``<hierarchy>`` section whose
nesting mirrors the tree::

    <diet_deployment method="heuristic" app_work="59.582">
      <model wreq="0.17" wfix="0.004" wsel="0.0054" wpre="0.0064"
             bandwidth="1000">
        <sizes level="agent" sreq="0.0053" srep="0.0054"/>
        <sizes level="server" sreq="5.3e-05" srep="6.4e-05"/>
        <sizes level="service" sreq="5.3e-05" srep="6.4e-05"/>
      </model>
      <resources>
        <node name="orsay-000" power="265.0"/>
        ...
      </resources>
      <hierarchy>
        <agent name="orsay-000">
          <server name="orsay-003"/>
          <agent name="orsay-001">
            <server name="orsay-004"/>
            <server name="orsay-005"/>
          </agent>
        </agent>
      </hierarchy>
    </diet_deployment>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.dom import minidom

from repro.core.hierarchy import Hierarchy, Role
from repro.core.params import LevelSizes, ModelParams
from repro.deploy.plan import DeploymentPlan
from repro.errors import DeploymentError

__all__ = [
    "plan_to_xml",
    "plan_from_xml",
]


def _hierarchy_element(hierarchy: Hierarchy) -> ET.Element:
    root_el = ET.Element("hierarchy")

    def emit(node, parent_el: ET.Element) -> None:
        tag = "agent" if hierarchy.role(node) is Role.AGENT else "server"
        el = ET.SubElement(parent_el, tag, name=str(node))
        for child in hierarchy.children(node):
            emit(child, el)

    emit(hierarchy.root, root_el)
    return root_el


def _resources_element(hierarchy: Hierarchy) -> ET.Element:
    resources = ET.Element("resources")
    for node in hierarchy:
        ET.SubElement(
            resources,
            "node",
            name=str(node),
            power=repr(hierarchy.power(node)),
        )
    return resources


def _model_element(params: ModelParams) -> ET.Element:
    model = ET.Element(
        "model",
        wreq=repr(params.wreq),
        wfix=repr(params.wfix),
        wsel=repr(params.wsel),
        wpre=repr(params.wpre),
        bandwidth=repr(params.bandwidth),
    )
    for level, sizes in (
        ("agent", params.agent_sizes),
        ("server", params.server_sizes),
        ("service", params.service_sizes),
    ):
        ET.SubElement(
            model, "sizes", level=level, sreq=repr(sizes.sreq), srep=repr(sizes.srep)
        )
    return model


def _pretty(element: ET.Element) -> str:
    raw = ET.tostring(element, encoding="unicode")
    return minidom.parseString(raw).toprettyxml(indent="  ")


def plan_to_xml(plan: DeploymentPlan) -> str:
    """Serialize a full deployment plan (paper procedure ``write_xml``)."""
    root = ET.Element(
        "diet_deployment",
        method=plan.method,
        app_work=repr(plan.app_work),
    )
    for key, value in sorted(plan.metadata.items()):
        root.set(f"meta_{key}", str(value))
    root.append(_model_element(plan.params))
    root.append(_resources_element(plan.hierarchy))
    root.append(_hierarchy_element(plan.hierarchy))
    return _pretty(root)


def _parse_hierarchy(root_el: ET.Element, powers: dict[str, float]) -> Hierarchy:
    hierarchy_el = root_el.find("hierarchy")
    if hierarchy_el is None:
        raise DeploymentError("XML is missing a <hierarchy> section")
    tops = list(hierarchy_el)
    if len(tops) != 1 or tops[0].tag != "agent":
        raise DeploymentError("<hierarchy> must contain exactly one root <agent>")

    hierarchy = Hierarchy()

    def power_of(name: str) -> float:
        if name not in powers:
            raise DeploymentError(f"node {name!r} missing from <resources>")
        return powers[name]

    def build(el: ET.Element, parent: str | None) -> None:
        name = el.get("name")
        if not name:
            raise DeploymentError(f"<{el.tag}> element without a name")
        if el.tag == "agent":
            if parent is None:
                hierarchy.set_root(name, power_of(name))
            else:
                hierarchy.add_agent(name, power_of(name), parent)
            for child in el:
                if child.tag not in ("agent", "server"):
                    raise DeploymentError(
                        f"unexpected element <{child.tag}> under <agent>"
                    )
                build(child, name)
        else:
            if parent is None:
                raise DeploymentError("a <server> cannot be the hierarchy root")
            if len(el) != 0:
                raise DeploymentError(f"server {name!r} must be a leaf")
            hierarchy.add_server(name, power_of(name), parent)

    build(tops[0], None)
    return hierarchy


def _parse_resources(root_el: ET.Element) -> dict[str, float]:
    resources_el = root_el.find("resources")
    if resources_el is None:
        raise DeploymentError("XML is missing a <resources> section")
    powers: dict[str, float] = {}
    for node_el in resources_el.findall("node"):
        name = node_el.get("name")
        power = node_el.get("power")
        if name is None or power is None:
            raise DeploymentError("<node> needs both name and power")
        powers[name] = float(power)
    return powers


def _parse_model(root_el: ET.Element) -> ModelParams:
    model_el = root_el.find("model")
    if model_el is None:
        return ModelParams()
    sizes: dict[str, LevelSizes] = {}
    for sizes_el in model_el.findall("sizes"):
        level = sizes_el.get("level")
        sizes[level or ""] = LevelSizes(
            sreq=float(sizes_el.get("sreq", "0")),
            srep=float(sizes_el.get("srep", "0")),
        )
    return ModelParams(
        wreq=float(model_el.get("wreq", "0")),
        wfix=float(model_el.get("wfix", "0")),
        wsel=float(model_el.get("wsel", "0")),
        wpre=float(model_el.get("wpre", "0")),
        bandwidth=float(model_el.get("bandwidth", "1000")),
        agent_sizes=sizes.get("agent", ModelParams().agent_sizes),
        server_sizes=sizes.get("server", ModelParams().server_sizes),
        service_sizes=sizes.get("service"),
    )


def plan_from_xml(text: str) -> DeploymentPlan:
    """Parse a full deployment plan from :func:`plan_to_xml` output."""
    try:
        root_el = ET.fromstring(text)
    except ET.ParseError as exc:
        raise DeploymentError(f"malformed deployment XML: {exc}") from exc
    powers = _parse_resources(root_el)
    hierarchy = _parse_hierarchy(root_el, powers)
    params = _parse_model(root_el)
    app_work_attr = root_el.get("app_work")
    if app_work_attr is None:
        raise DeploymentError("plan XML is missing the app_work attribute")
    metadata = {
        key[len("meta_"):]: value
        for key, value in root_el.attrib.items()
        if key.startswith("meta_")
    }
    return DeploymentPlan(
        hierarchy=hierarchy,
        params=params,
        app_work=float(app_work_attr),
        method=root_el.get("method", "unknown"),
        metadata=metadata,
    )
