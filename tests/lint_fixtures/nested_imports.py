"""Import-scan fixture: imports nested in every kind of statement block.

Parsed, never imported. The statement-level scan must find the same
imports and dynamic-import lines as a walk over every node.
"""

import json
from . import sibling

if json:
    from repro.core import backend
else:
    import repro.k8s.cluster as cluster

try:
    from repro.mesh import istio
except ImportError:
    from ..netsim import dns
else:
    import repro.simcore
finally:
    from repro.obs import trace


class Holder:
    from repro.k8s import objects

    def method(self):
        import importlib  # dynamic: line 29
        return importlib.import_module("repro.fleet")


def load(name):
    with open(name) as handle:
        from repro.lint import astutil
    match name:
        case "a":
            import repro.faults.plan
        case _:
            from repro.runtime.cache import cached_run
    for _ in range(2):
        from repro import workloads
    while False:
        import repro.crypto
    return [__import__(name).x for _ in (handle, astutil)]  # line 45


def lazy():
    async def inner():
        async with lazy() as ctx:
            from importlib import util  # dynamic: line 51
        return ctx, util
    return inner, (lambda: __import__("repro.kernel"))  # line 53
