"""Exact decision procedures for expansiveness of matrix semigroup actions.

The public names below resolve on first use (PEP 562): ``import expansive``
loads no submodule, and ``from expansive import QMatrix`` loads only
``expansive.exact``.  So a command line process pays for the modules its
subcommand runs and no others.
"""

from importlib import import_module

# public name -> the submodule that defines it
_SOURCES = {
    "QMatrix": "exact",
    "QPoly": "exact",
    "Subspace": "exact",
    "DiskProfile": "spectral",
    "SingleVerdict": "spectral",
    "circle_root_count": "spectral",
    "single_expansive": "spectral",
    "unit_disk_profile": "spectral",
    "SemigroupAction": "actions",
    "ExpansivenessVerdict": "orbits",
    "expansiveness_check": "orbits",
    "jsr_bounds": "orbits",
    "weight_decomposition": "weights",
    "expansive_by_weights": "weights",
    "find_expansive_element": "weights",
    "irreducibility_check": "torus",
    "torus_expansive": "torus",
    "rational_orbit_oracle": "torus",
    "DualModuleAction": "solenoid",
    "regular_chain": "solenoid",
    "lift": "solenoid",
    "solenoid_expansive": "solenoid",
}

__all__ = list(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
