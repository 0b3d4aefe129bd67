import importlib
import pkgutil

import pytest

import liepoisson


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` wraps every binding of ``functions`` in the package; returns the counts."""

    def wrap_all(*functions):
        counts = {f.__name__: 0 for f in functions}

        def counting(f):
            def wrapper(*args, **kwargs):
                counts[f.__name__] += 1
                return f(*args, **kwargs)

            return wrapper

        for info in pkgutil.iter_modules(liepoisson.__path__):
            module = importlib.import_module(f"liepoisson.{info.name}")
            for name, value in list(vars(module).items()):
                for f in functions:
                    if value is f:
                        monkeypatch.setattr(module, name, counting(f))
        return counts

    return wrap_all
