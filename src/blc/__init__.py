"""Binary lambda calculus toolkit.

Lambda terms in de Bruijn form, their self-delimiting binary codes,
exact counts by size, a rank/unrank bijection with uniform sampling,
simple-type inference, and the singularity analysis behind the growth
rate of the counting sequences.

Each layer loads on first use (PEP 562): ``import blc`` loads none, a
layer's name loads that module, and any other public name, ``__all__``
or ``dir(blc)`` loads all five and binds their exports here.
"""

__version__ = "0.1.0"

_LAYERS = ("terms", "counting", "enumeration", "typecheck", "asymptotics")


def _layer(name):
    # a fromlist makes __import__ return the submodule, not the package
    return __import__(f"{__name__}.{name}", fromlist=["__all__"])


def _load_all():
    modules = [_layer(name) for name in _LAYERS]
    exports = {key: getattr(m, key) for m in modules for key in m.__all__}
    globals().update(exports, __all__=[*_LAYERS, *exports])


def __getattr__(name):
    if name in _LAYERS:
        return _layer(name)
    if name == "__all__" or not name.startswith("_"):
        _load_all()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load_all()
    return list(globals())
