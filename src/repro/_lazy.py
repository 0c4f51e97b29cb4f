"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package lists its public names under the submodule that defines them;
importing the package imports none of those submodules, and the first read
of a name imports only its own. A launch then compiles and runs only the
modules its code path reaches (a serial ``cumf-sgd train`` loads none of
the sanitizer analyses, the block store or the other schemes).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], list[str]]:
    """The ``__getattr__`` and ``__all__`` of ``package``.

    ``exports`` maps each submodule, relative to ``package``, to the
    public names it defines. The first read of a name imports its
    submodule and binds the name on the package, so later reads skip
    ``__getattr__``.

    A name must not also be a submodule of ``package``: importing that
    submodule binds the module object to the name, and ``__getattr__`` is
    never asked. Such a name is bound eagerly instead (``repro.metrics``
    imports ``rmse`` from ``repro.metrics.rmse``).
    """
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(owner)
