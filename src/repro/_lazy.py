"""Lazy package exports: a package imports a submodule on first use.

Every ``repro`` package re-exports its public names through
:func:`lazy_exports`, so ``import repro.obs`` costs one small module
and ``repro.obs.Tracer`` imports :mod:`repro.obs.tracer` the first time
it is read (PEP 562).  A one-shot command then compiles only the
modules it runs.

A name that is also the name of a submodule (``repro.powerscope.
correlate``) must stay an eager import in its ``__init__``: importing
the submodule sets the package attribute to the module, which would
replace a lazily bound function.  Code inside an ``__init__`` cannot
read lazy names as globals either; it imports them where it runs.
"""

from importlib import import_module


def lazy_exports(namespace, table):
    """Build a package's ``(__getattr__, __dir__)`` from ``table``.

    ``namespace`` is the package's ``globals()``; ``table`` maps a
    submodule's name, relative to the package, to the names it
    provides.  A resolved name is stored in ``namespace``, so it is
    looked up once.  Any other name in the package's ``__all__`` is a
    submodule and resolves to the module.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name):
        module = owners.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
        elif name in namespace.get("__all__", ()):
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *owners, *namespace.get("__all__", ())})

    return __getattr__, __dir__
