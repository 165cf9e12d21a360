"""Every name a ``repro`` module exports in ``__all__`` resolves.

A stale entry breaks ``from repro.<module> import *`` with an
``AttributeError``, so each module's export list is checked against the
module itself.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith(".__main__"):  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
