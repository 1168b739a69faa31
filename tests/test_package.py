import importlib

import pytest

import pqcat


class TestNamespace:
    def test_every_public_name_is_its_home_object(self):
        for name in pqcat.__all__:
            value = getattr(pqcat, name)
            home = importlib.import_module(f"pqcat.{pqcat._HOME[name]}")
            assert value is getattr(home, name), name

    def test_all_is_sorted_and_listed(self):
        assert pqcat.__all__ == sorted(set(pqcat.__all__))
        assert "__all__" in dir(pqcat)
        assert set(pqcat.__all__) <= set(dir(pqcat))

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            pqcat.no_such_name  # noqa: B018
