"""Resolving parsed pipeline descriptions into live pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.core.component import Component, Port
from repro.core.composition import Pipeline, connect
from repro.lang.parser import FactoryCall, LangError, Reference, parse
from repro.lang.registry import Registry, default_registry


@dataclass
class BuildResult:
    """A built pipeline plus the alias table for later inspection."""

    pipeline: Pipeline
    aliases: dict[str, Component] = field(default_factory=dict)

    def __getitem__(self, alias: str) -> Component:
        try:
            return self.aliases[alias]
        except KeyError:
            raise LangError(f"no component aliased {alias!r}") from None


def build(source: str, registry: Registry | None = None) -> BuildResult:
    """Build a pipeline from a textual description.

    Each statement is a chain; aliases (``stage : name``) let later chains
    attach to specific components or ports (``name.out1 >> ...``), which is
    how tees are described.  All the usual composition checks (polarity,
    Typespecs) apply.
    """
    registry = registry or default_registry()
    chains = parse(source)
    if not chains:
        raise LangError("empty pipeline description")

    aliases: dict[str, Component] = {}
    pipe = Pipeline()

    def instantiate(call: FactoryCall) -> Component:
        # A bare name that matches an alias is a reference, not a factory.
        if (
            not call.args
            and not call.kwargs
            and call.alias is None
            and call.name in aliases
            and not registry.knows(call.name)
        ):
            return aliases[call.name]
        factory = registry.resolve(call.name)
        try:
            component = factory(*call.args, **call.kwargs_dict())
        except TypeError as exc:
            raise LangError(
                f"line {call.line}: {call.name}(...) rejected its "
                f"arguments: {exc}"
            ) from exc
        if not isinstance(component, Component):
            raise LangError(
                f"line {call.line}: factory {call.name!r} did not produce "
                f"a component (got {type(component).__name__})"
            )
        if call.alias is not None:
            if call.alias in aliases:
                raise LangError(
                    f"line {call.line}: alias {call.alias!r} already used"
                )
            aliases[call.alias] = component
        pipe.add(component)
        return component

    def resolve_endpoint(endpoint) -> tuple[Component, str | None]:
        if isinstance(endpoint, Reference):
            component = aliases.get(endpoint.alias)
            if component is None:
                raise LangError(
                    f"line {endpoint.line}: unknown alias "
                    f"{endpoint.alias!r}"
                )
            return component, endpoint.port
        return instantiate(endpoint), None

    for chain in chains:
        previous: tuple[Component, str | None] | None = None
        for endpoint in chain.endpoints:
            current = resolve_endpoint(endpoint)
            if previous is not None:
                out_port = _pick_out_port(*previous, line=chain.line)
                in_port = _pick_in_port(*current, line=chain.line)
                connect(out_port, in_port, check_typespecs=False)
            previous = current

    pipe.derive_typespecs()
    return BuildResult(pipeline=pipe, aliases=aliases)


def _pick_out_port(component: Component, port_name: str | None,
                   line: int) -> Port:
    if port_name is not None:
        return component.port(port_name)
    free = [p for p in component.out_ports() if not p.connected]
    if len(free) != 1:
        names = ", ".join(p.name for p in free) or "none"
        raise LangError(
            f"line {line}: {component.name!r} needs an explicit out port "
            f"(free: {names}); write alias.port"
        )
    return free[0]


def _pick_in_port(component: Component, port_name: str | None,
                  line: int) -> Port:
    if port_name is not None:
        return component.port(port_name)
    free = [p for p in component.in_ports() if not p.connected]
    if len(free) < 1:
        raise LangError(
            f"line {line}: {component.name!r} has no free in port"
        )
    # Merge tees take the next free input in order.
    return free[0]
