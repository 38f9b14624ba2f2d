"""The package surface: every exported name resolves, and only once."""
from __future__ import annotations

import ifs_shadow


def test_every_exported_name_resolves() -> None:
    assert [name for name in ifs_shadow.__all__ if not hasattr(ifs_shadow, name)] == []


def test_exports_have_no_duplicates() -> None:
    assert len(set(ifs_shadow.__all__)) == len(ifs_shadow.__all__)


def test_star_import_binds_every_export() -> None:
    namespace: dict = {}
    exec("from ifs_shadow import *", namespace)
    assert set(ifs_shadow.__all__) <= namespace.keys()
