"""The ``name[:key=value,...]`` grammar shared by every spec string.

Piece selectors (``"mode-suppression:suppression=0.9"``) and tracker
samplers (``"rarity-aware:bias=1.0"``) are each named by a registry key
plus keyword parameters.  :func:`parse_spec` splits a spec and checks its
name; :func:`build_spec` also calls the registered constructor, so a
misspelt parameter fails as a ``ValueError`` naming the spec where the
run is described, not in a worker.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple


def number(text: str) -> Any:
    """A selector parameter value: int, then float, then the bare string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def parse_spec(
    spec: str,
    kind: str,
    registry: Mapping[str, Callable],
    value: Callable[[str], Any] = str,
) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name"`` / ``"name:key=value,..."`` into ``(name, params)``.

    *value* parses each parameter value.  An unknown name, a pair with no
    ``=`` or no key, or a value *value* rejects raises ``ValueError``.
    """
    name, __, tail = spec.strip().partition(":")
    name = name.strip()
    if name not in registry:
        raise ValueError(
            "unknown %s %r (have: %s)" % (kind, name, ", ".join(sorted(registry)))
        )
    params: Dict[str, Any] = {}
    for item in tail.split(",") if tail.strip() else ():
        malformed = ValueError("malformed %s parameter %r in %r" % (kind, item, spec))
        key, sep, text = item.partition("=")
        if not sep or not key.strip():
            raise malformed
        try:
            params[key.strip()] = value(text.strip())
        except ValueError:
            raise malformed from None
    return name, params


def build_spec(
    spec: str,
    kind: str,
    registry: Mapping[str, Callable],
    value: Callable[[str], Any] = str,
    **context: Any,
) -> Any:
    """``registry[name](**context, **params)`` for a parsed *spec*; a
    parameter the constructor does not take raises ``ValueError``."""
    name, params = parse_spec(spec, kind, registry, value)
    try:
        return registry[name](**context, **params)
    except TypeError as error:
        raise ValueError(
            "bad parameters for %s %r: %s" % (kind, spec, error)
        ) from None
