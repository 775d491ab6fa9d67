"""Base class for field-based agent states.

The paper describes agent states as a collection of *fields* (``rank``,
``role``, ``resetcount`` ...), where some fields exist only under particular
*roles*.  :class:`AgentState` mirrors that style: concrete protocols subclass
it, declare fields as instance attributes, and get copying, equality,
signatures (hashable canonical encodings used for state counting), and a
readable ``repr`` for free.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, Tuple

#: Field value types :meth:`AgentState.clone` shares instead of copying.  They
#: are immutable, and ``deepcopy`` returns them unchanged too.  Exact types
#: only: a subclass of ``int`` or ``str`` may carry mutable attributes.
_SHARED_TYPES = frozenset({int, float, str, bool, type(None)})


class AgentState:
    """Mutable field-based agent state.

    Subclasses simply assign instance attributes in ``__init__``.  Attributes
    whose names start with an underscore are treated as bookkeeping and are
    excluded from equality, signatures, and ``repr``.
    """

    def fields(self) -> Dict[str, Any]:
        """Return the public fields of this state as a dictionary."""
        return {
            name: value
            for name, value in vars(self).items()
            if not name.startswith("_")
        }

    def signature(self) -> Hashable:
        """Return a hashable canonical encoding of this state.

        Two states with equal signatures are the same protocol state.  The
        default encoding sorts fields by name and freezes common containers;
        protocols with richer fields (e.g. history trees) override this.
        """
        return tuple(sorted((name, _freeze(value)) for name, value in self.fields().items()))

    def clone(self) -> "AgentState":
        """Return a deep copy of this state.

        Equivalent to ``copy.deepcopy(self)`` without its generic dispatch:
        the copy is made with ``object.__new__`` (``__init__`` is not run),
        scalar fields are shared, and every other field -- ``_``-prefixed
        ones included -- is deep-copied through one memo, so fields that
        alias one object still alias one copy.
        """
        duplicate = object.__new__(type(self))
        fields = duplicate.__dict__
        memo: Dict[int, Any] = {id(self): duplicate}
        for name, value in self.__dict__.items():
            fields[name] = (
                value if type(value) in _SHARED_TYPES else copy.deepcopy(value, memo)
            )
        return duplicate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AgentState):
            return NotImplemented
        return type(self) is type(other) and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.signature()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}" for name, value in sorted(self.fields().items()))
        return f"{type(self).__name__}({inner})"


def _freeze(value: Any) -> Hashable:
    """Recursively convert ``value`` into a hashable representation."""
    if isinstance(value, AgentState):
        return value.signature()
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(item) for item in value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


Signature = Tuple[Hashable, ...]

__all__ = ["AgentState", "Signature"]
