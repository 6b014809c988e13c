"""The package's public API is the union of its layers' ``__all__`` lists."""

import matvar
from matvar import commutators, geometry, linalg, norms, radii, suites

LAYERS = (linalg, norms, geometry, radii, commutators, suites)


def test_every_layer_name_is_the_package_name():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(matvar, name) is getattr(layer, name), (layer.__name__, name)


def test_package_all_is_the_union_of_the_layer_lists():
    assert len(matvar.__all__) == len(set(matvar.__all__))
    assert set(matvar.__all__) == {name for layer in LAYERS for name in layer.__all__}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from matvar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(matvar.__all__)
