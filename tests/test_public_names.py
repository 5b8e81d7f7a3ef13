"""The package's public names: ``qbench.__all__`` is derived from its imports."""

import pydoc
from types import ModuleType

import qbench


def test_pydoc_documents_reexported_functions():
    text = pydoc.render_doc(qbench, renderer=pydoc.plaintext)
    assert "verify_equivalence(a: 'Circuit', b: 'Circuit') -> 'float'" in text
    assert "target_profile(name: 'str') -> 'TargetProfile'" in text


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qbench import *", namespace)
    del namespace["__builtins__"]
    assert list(namespace) == qbench.__all__


def test_all_holds_no_module_private_name_or_imported_helper():
    assert qbench.__all__
    for name in qbench.__all__:
        assert not name.startswith("_")
        obj = getattr(qbench, name)
        assert not isinstance(obj, ModuleType), name
        # a function or class imported as a helper would be defined outside qbench
        assert not callable(obj) or obj.__module__.startswith("qbench."), name
