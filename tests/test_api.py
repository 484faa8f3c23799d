import pytest

import pencbo as pc
from pencbo import dynamics, harness, penalty, problems, qp, rng

MODULES = (dynamics, harness, penalty, problems, qp, rng)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_reexports_each_module_name(module):
    for name in module.__all__:
        assert getattr(pc, name) is getattr(module, name), name


def test_package_all_is_the_module_lists_without_duplicates():
    # a name exported by two modules would be shadowed by the star import
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert pc.__all__ == expected
    assert len(set(pc.__all__)) == len(pc.__all__)
