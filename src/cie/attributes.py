"""Attribute dependency graph: measurable values linked by functional forms.

Supported forms are affine (a*x + b), sum and max over all parents, and a
monotone piecewise-linear lookup table. The ``learned`` tag is reserved in
the schema but not evaluable here. Dependency edges must keep the graph
acyclic (rejected at insert time) and connect attributes with equal unit
strings; no unit algebra is performed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CycleError, DocumentError, UnknownIdError
from .knowledge_base import COMPARATORS, is_finite_number
from .topology import _parse_document

CHANGE_TOLERANCE = 1e-12
FUNCTION_FORMS = ("affine", "sum", "max", "table")
RESERVED_FORMS = ("learned",)


@dataclass(frozen=True, slots=True)
class DependencyFunction:
    form: str
    a: float | None = None
    b: float | None = None
    points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.form in RESERVED_FORMS:
            raise DocumentError(f"function form {self.form!r} is reserved and not evaluable")
        if self.form not in FUNCTION_FORMS:
            raise DocumentError(f"unknown function form {self.form!r}")
        if self.form == "affine" and not (is_finite_number(self.a)
                                          and is_finite_number(self.b)):
            raise DocumentError("affine requires finite-number coefficients 'a' and 'b'")
        if self.form == "table":
            xs = [x for x, _ in self.points]
            ys = [y for _, y in self.points]
            if len(xs) < 2 or any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
                raise DocumentError("table needs >= 2 points with strictly increasing x")
            nondec = all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))
            noninc = all(y2 <= y1 for y1, y2 in zip(ys, ys[1:]))
            if not (nondec or noninc):
                raise DocumentError("table must be monotone in y")

    def lookup(self, x: float) -> float:
        pts = self.points
        if x <= pts[0][0]:
            return pts[0][1]
        if x >= pts[-1][0]:
            return pts[-1][1]
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if x1 <= x <= x2:
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        raise AssertionError("unreachable: x inside table range")


@dataclass(frozen=True, slots=True)
class AttributeNode:
    id: str
    host_entity: str
    attribute_name: str
    value: float | None
    baseline: float | None = None
    unit: str = ""


@dataclass(frozen=True, slots=True)
class AttributeDependency:
    parent: str
    dependent: str
    function: DependencyFunction


@dataclass
class Violation:
    attribute: str
    comparator: str
    bound: float
    actual: float


class AttributeGraph:
    """DAG of attribute nodes; dependents are functions of their parents."""

    def __init__(self):
        self.nodes: dict[str, AttributeNode] = {}
        self._parents: dict[str, list[AttributeDependency]] = {}
        self._children: dict[str, set[str]] = {}

    def add_node(self, node: AttributeNode):
        if node.id in self.nodes:
            raise DocumentError(f"duplicate attribute {node.id!r}")
        self.nodes[node.id] = node

    def add_dependency(self, dep: AttributeDependency):
        for end in (dep.parent, dep.dependent):
            if end not in self.nodes:
                raise UnknownIdError(f"unknown attribute {end!r}")
        if dep.parent == dep.dependent or self._reaches(dep.dependent, dep.parent):
            raise CycleError(
                f"dependency {dep.parent!r} -> {dep.dependent!r} would close a cycle")
        if self.nodes[dep.parent].unit != self.nodes[dep.dependent].unit:
            raise DocumentError(
                f"unit mismatch on edge {dep.parent!r} -> {dep.dependent!r}: "
                f"{self.nodes[dep.parent].unit!r} vs {self.nodes[dep.dependent].unit!r}")
        existing = self._parents.get(dep.dependent, [])
        if dep.function.form in ("sum", "max"):
            if any(e.function.form != dep.function.form for e in existing):
                raise DocumentError(
                    f"{dep.dependent!r} mixes function forms across its parents")
        elif existing:
            raise DocumentError(
                f"{dep.dependent!r} already has a parent; {dep.function.form} takes one")
        if any(e.parent == dep.parent for e in existing):
            raise DocumentError(f"duplicate dependency {dep.parent!r} -> {dep.dependent!r}")
        self._parents.setdefault(dep.dependent, []).append(dep)
        self._children.setdefault(dep.parent, set()).add(dep.dependent)

    def parents_of(self, attr_id: str) -> list[AttributeDependency]:
        return list(self._parents.get(attr_id, []))

    def source_ids(self) -> set[str]:
        return {aid for aid in self.nodes if aid not in self._parents}

    def descendants(self, attr_id: str) -> set[str]:
        """Reflexive-transitive closure of the child relation."""
        if attr_id not in self.nodes:
            raise UnknownIdError(f"unknown attribute {attr_id!r}")
        seen = {attr_id}
        frontier = [attr_id]
        while frontier:
            nxt = frontier.pop()
            for child in self._children.get(nxt, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def _reaches(self, start: str, goal: str) -> bool:
        return goal in self.descendants(start)

    def topological_order(self) -> list[str]:
        indegree = {aid: len(self._parents.get(aid, [])) for aid in self.nodes}
        ready = sorted(aid for aid, d in indegree.items() if d == 0)
        order: list[str] = []
        while ready:
            aid = ready.pop(0)
            order.append(aid)
            for child in sorted(self._children.get(aid, ())):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
            ready.sort()
        if len(order) != len(self.nodes):
            raise CycleError("attribute dependencies contain a cycle")
        return order

    def evaluate(self, order: list[str] | None = None,
                 overrides: dict[str, float] | None = None) -> dict[str, float]:
        """Compute every attribute's value in topological order.

        ``order`` may supply any valid topological order (checked); results
        are identical regardless. ``overrides`` replaces the computed or
        declared value of the named attributes before their children read it.
        """
        if order is None:
            order = self.topological_order()
        else:
            self._check_order(order)
        overrides = overrides or {}
        values: dict[str, float] = {}
        for aid in order:
            if aid in overrides:
                values[aid] = overrides[aid]
                continue
            deps = self._parents.get(aid, [])
            if not deps:
                declared = self.nodes[aid].value
                if declared is None:
                    raise DocumentError(f"source attribute {aid!r} has no value")
                values[aid] = declared
                continue
            form = deps[0].function.form
            # Parents folded in sorted-id order so float results do not
            # depend on edge declaration or traversal order.
            parent_vals = [values[d.parent] for d in sorted(deps, key=lambda d: d.parent)]
            if form == "sum":
                acc = 0.0
                for v in parent_vals:
                    acc += v
                values[aid] = acc
            elif form == "max":
                values[aid] = max(parent_vals)
            elif form == "affine":
                fn = deps[0].function
                values[aid] = fn.a * parent_vals[0] + fn.b
            else:  # table
                values[aid] = deps[0].function.lookup(parent_vals[0])
        return values

    def _check_order(self, order: list[str]):
        position = {aid: i for i, aid in enumerate(order)}
        if set(position) != set(self.nodes) or len(order) != len(self.nodes):
            raise DocumentError("order must be a permutation of all attribute ids")
        for deps in self._parents.values():
            for dep in deps:
                if position[dep.parent] > position[dep.dependent]:
                    raise DocumentError(
                        f"order violates dependency {dep.parent!r} -> {dep.dependent!r}")

    def propagate_perturbation(self, source: str, delta: float,
                               allow_override: bool = False) -> dict[str, tuple[float, float]]:
        """Shift one source attribute by ``delta`` and report every attribute
        whose value moves beyond tolerance, as id -> (old, new)."""
        if source not in self.nodes:
            raise UnknownIdError(f"unknown attribute {source!r}")
        if self._parents.get(source) and not allow_override:
            raise DocumentError(
                f"{source!r} is a dependent attribute; pass allow_override to perturb it")
        before = self.evaluate()
        after = self.evaluate(overrides={source: before[source] + delta})
        return {aid: (before[aid], after[aid]) for aid in before
                if abs(after[aid] - before[aid]) > CHANGE_TOLERANCE}

    def check_constraints(self, constraints: list[tuple[str, str, float]]) -> list[Violation]:
        """Return the constraints the current values violate."""
        values = self.evaluate()
        violations = []
        for attr_id, comparator, bound in constraints:
            if attr_id not in self.nodes:
                raise UnknownIdError(f"unknown attribute {attr_id!r}")
            if not isinstance(comparator, str) or comparator not in COMPARATORS:
                raise DocumentError(f"unknown comparator {comparator!r}")
            actual = values[attr_id]
            if not COMPARATORS[comparator](actual, bound):
                violations.append(Violation(attr_id, comparator, bound, actual))
        return violations


def attribute_id(entity_id: str, attribute_name: str) -> str:
    return f"{entity_id}:{attribute_name}"


def load_attribute_graph(document, graph, cb) -> AttributeGraph:
    """Read the ``attributes`` / ``attribute_dependencies`` arrays of an
    environment document, validating hosts and declarations."""
    doc = _parse_document(document, "environment")
    for key in ("attributes", "attribute_dependencies"):
        if not isinstance(doc.get(key, []), list):
            raise DocumentError(f"{key!r} must be an array", location=key)
    ag = AttributeGraph()
    for i, raw in enumerate(doc.get("attributes", [])):
        try:
            if not isinstance(raw, dict) or "entity" not in raw or "attribute" not in raw:
                raise DocumentError("attribute requires 'entity' and 'attribute'")
            eid, name = raw["entity"], raw["attribute"]
            if not isinstance(eid, str) or eid not in graph:
                raise DocumentError(f"unknown entity {eid!r}")
            etype = graph.entity(eid).entity_type
            if name not in cb.type_def(etype).attribute_decls:
                raise DocumentError(f"attribute {name!r} not declared on type {etype!r}")
            for key in ("value", "baseline"):
                if raw.get(key) is not None and not is_finite_number(raw[key]):
                    raise DocumentError(f"{key!r} must be a finite number or null")
            ag.add_node(AttributeNode(id=attribute_id(eid, name), host_entity=eid,
                                      attribute_name=name, value=raw.get("value"),
                                      baseline=raw.get("baseline"), unit=raw.get("unit", "")))
        except DocumentError as exc:
            raise DocumentError(str(exc), location=f"attributes[{i}]") from None

    for i, raw in enumerate(doc.get("attribute_dependencies", [])):
        try:
            if not isinstance(raw, dict) or not {"from", "to", "function"} <= set(raw):
                raise DocumentError("dependency requires 'from', 'to', 'function'")
            if not (isinstance(raw["from"], str) and isinstance(raw["to"], str)):
                raise DocumentError("'from' and 'to' must be attribute ids")
            fn_raw = raw["function"]
            if not isinstance(fn_raw, dict) or "form" not in fn_raw:
                raise DocumentError("function requires 'form'")
            points = fn_raw.get("points", [])
            if not (isinstance(points, list) and all(
                    isinstance(p, list) and len(p) == 2 and all(map(is_finite_number, p))
                    for p in points)):
                raise DocumentError("'points' must be a list of [x, y] pairs of finite numbers")
            fn = DependencyFunction(form=fn_raw["form"], a=fn_raw.get("a"), b=fn_raw.get("b"),
                                    points=tuple((x, y) for x, y in points))
            ag.add_dependency(AttributeDependency(parent=raw["from"], dependent=raw["to"],
                                                  function=fn))
        except (DocumentError, UnknownIdError, CycleError) as exc:
            raise DocumentError(str(exc), location=f"attribute_dependencies[{i}]") from None
    return ag
