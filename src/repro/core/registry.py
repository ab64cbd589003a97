"""Generic named-factory registry with flag > env > default resolution.

Two runtime dimensions of this repo are selected the same way — the
precision tier of the feature store (:mod:`repro.device.precision`) and the
gradient transport of sharded runs (:mod:`repro.distributed.comms`).  Each
follows the identical contract:

* **resolution order**: an explicit name (CLI flag / config field) wins over
  the dimension's environment variable, which wins over the built-in default;
* **fail-fast validation**: an unknown name — explicit or from a stale
  environment — raises ``ValueError`` listing the registered names and the
  ways to pick one, so a typo fails at configuration/parse time instead of
  deep inside the first hot-path call;
* **silent overwrite on re-registration**, so tests and extensions can
  replace a factory in place.

:class:`Registry` is that contract, extracted once.  The selection modules
keep their public helper names (``resolve_precision_name`` & co.) as thin
wrappers over a module-level ``Registry`` instance, so existing imports and
error-message expectations are unchanged.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

__all__ = ["Registry"]

T = TypeVar("T")


class Registry(Generic[T]):
    """Named factories for one runtime dimension, plus name resolution.

    Parameters
    ----------
    kind:
        Human-readable singular of what is registered (``"precision tier"``,
        ``"gradient comms"``); leads the unknown-name error message.
    env_var:
        Environment variable consulted when no explicit name is given.
    default:
        Name resolved when neither an explicit name nor the environment
        provides one.  The default is *not* validated against the registered
        set at construction time (factories register after the instance is
        created, at module bottom).
    plural:
        Plural noun used when listing the registered names
        (``"tiers"``, ``"transports"``).
    hint:
        Trailing guidance of the unknown-name error — the flag / config
        field / environment variable that select this dimension.
    """

    def __init__(self, kind: str, *, env_var: str, default: str,
                 plural: str = "backends", hint: str = "") -> None:
        self.kind = kind
        self.env_var = env_var
        self.default = default
        self.plural = plural
        self.hint = hint
        self._factories: Dict[str, Callable[..., T]] = {}

    # -- registration -----------------------------------------------------------

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Register ``factory`` under ``name`` (overwrites silently)."""
        self._factories[name] = factory

    def names(self) -> Tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    # -- resolution --------------------------------------------------------------

    def resolve(self, name: Optional[str] = None) -> str:
        """Resolve a name: explicit > ``env_var`` environment > default.

        Raises ``ValueError`` with the registered names when the resolved
        name is unknown, so config/CLI validation can surface an actionable
        message.
        """
        source = "requested"
        if name is None:
            name = os.environ.get(self.env_var, "").strip()
            source = f"{self.env_var} environment variable"
            if not name:
                return self.default
        if name not in self._factories:
            raise ValueError(
                f"unknown {self.kind} {name!r} ({source}): registered "
                f"{self.plural} are {', '.join(self.names())}; {self.hint}")
        return name

    def get(self, name: Optional[str] = None) -> Callable[..., T]:
        """The factory behind the resolved name (see :meth:`resolve`)."""
        return self._factories[self.resolve(name)]
