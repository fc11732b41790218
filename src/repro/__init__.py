"""CASTAN reproduction: adversarial workload synthesis for network functions.

This package is a from-scratch Python reproduction of CASTAN (Pedrosa et al.,
SIGCOMM 2018) together with every substrate it depends on: a small
intermediate representation and compiler frontend standing in for LLVM, a
symbolic execution engine with a bit-vector constraint solver, a simulated
cache hierarchy with contention-set discovery, rainbow-table hash reversal, a
library of network functions, and a simulated measurement testbed.

The top-level API re-exports the pieces a typical user needs:

>>> from repro import Castan, CastanConfig, get_nf
>>> nf = get_nf("lpm-patricia")
>>> result = Castan(CastanConfig(max_states=200)).analyze(nf)
>>> len(result.packets) > 0
True

The re-exports are resolved lazily so that light-weight uses (e.g. only the
packet substrate or only the IR) do not pay for importing the full pipeline.
"""

from __future__ import annotations

__version__ = "0.3.0"

__all__ = [
    "Castan",
    "CastanConfig",
    "CastanResult",
    "available_nfs",
    "get_nf",
    "__version__",
]

_LAZY_EXPORTS = {
    "Castan": ("repro.core.castan", "Castan"),
    "CastanResult": ("repro.core.castan", "CastanResult"),
    "CastanConfig": ("repro.core.config", "CastanConfig"),
    "available_nfs": ("repro.nf.registry", "available_nfs"),
    "get_nf": ("repro.nf.registry", "get_nf"),
}


def __getattr__(name: str):
    """Lazily resolve the public re-exports listed in ``__all__``."""
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
