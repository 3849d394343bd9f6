import mathcontrast
from mathcontrast import similarity


def test_every_public_name_resolves():
    assert len(set(mathcontrast.__all__)) == len(mathcontrast.__all__)
    for name in mathcontrast.__all__:
        assert getattr(mathcontrast, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from mathcontrast import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(mathcontrast.__all__)


def test_batch_scoring_is_reached_through_its_module():
    assert "scores" not in mathcontrast.__all__
    assert callable(similarity.scores)
