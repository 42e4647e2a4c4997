"""The package namespace is lazy: each public name is imported from its
submodule on first use. Each test runs in a new interpreter, since this one
has imported everything already."""
import pytest

from conftest import fresh_python


def test_import_loads_no_numpy():
    out = fresh_python("import sys, bagsolve\n"
                       "print('numpy' in sys.modules, "
                       "sorted(m for m in sys.modules if m.startswith('bagsolve')))")
    assert out == "False ['bagsolve']\n"


def test_every_public_name_is_its_submodules_object():
    out = fresh_python(
        "import importlib, bagsolve\n"
        "for name in bagsolve.__all__:\n"
        "    module = importlib.import_module('bagsolve.' + bagsolve._SOURCE[name])\n"
        "    assert getattr(bagsolve, name) is getattr(module, name), name\n"
        "print(len(bagsolve.__all__), len(set(bagsolve.__all__)))")
    assert out == "47 47\n"


def test_dir_covers_all():
    out = fresh_python("import bagsolve\n"
                       "print(set(bagsolve.__all__) <= set(dir(bagsolve)))")
    assert out == "True\n"


@pytest.mark.parametrize("name", ["no_such_name", "Solve", "rhs"])
def test_unknown_name_raises_attribute_error(name):
    out = fresh_python(
        "import bagsolve\n"
        "try:\n"
        f"    bagsolve.{name}\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out == f"module 'bagsolve' has no attribute '{name}'\n"


def test_star_import():
    out = fresh_python("import bagsolve\n"
                       "from bagsolve import *\n"
                       "names = dict(globals())\n"
                       "print(all(names[n] is getattr(bagsolve, n) "
                       "for n in bagsolve.__all__))")
    assert out == "True\n"


def test_submodules_import():
    out = fresh_python("from bagsolve import cli, analysis\n"
                       "import bagsolve\n"
                       "print(cli.main is bagsolve.cli.main, "
                       "analysis.generate_family is bagsolve.generate_family)")
    assert out == "True True\n"


def test_lazy_lookups_in_this_process(monkeypatch):
    # the tests around this one run in new interpreters, out of a line
    # trace's sight; here the imported submodule is taken off the package
    # to reach its lazy lookup
    import bagsolve
    import bagsolve.semantics as semantics
    monkeypatch.delattr(bagsolve, "semantics")
    assert bagsolve.semantics is semantics
    assert set(bagsolve.__all__) <= set(dir(bagsolve))


def test_submodule_as_attribute():
    # as when the package imported every submodule but cli
    out = fresh_python("import bagsolve\n"
                       "print(bagsolve.semantics.qe is bagsolve.qe)")
    assert out == "True\n"
