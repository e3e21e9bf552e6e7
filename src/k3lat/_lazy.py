"""numpy bound on first use, so that ``import k3lat.cli`` stays numpy-free."""


class LazyNumpy:
    """A module's ``np`` until its first attribute lookup, which imports numpy
    and rebinds ``namespace["np"]`` to it: later lookups are plain reads."""
    def __init__(self, namespace):
        self._namespace = namespace

    def __getattr__(self, attr):
        numpy = self._namespace["np"] = __import__("numpy")
        return getattr(numpy, attr)
