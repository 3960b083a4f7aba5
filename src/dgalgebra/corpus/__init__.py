"""Bundled presentation and morphism files used by the test suite and docs."""

import os

DIRECTORY = os.path.dirname(os.path.abspath(__file__))


def names() -> list:
    return sorted(n for n in os.listdir(DIRECTORY) if n.endswith((".dga", ".map")))


def read(name: str) -> str:
    """The text of the corpus file ``name``, read with one ``open``."""
    with open(os.path.join(DIRECTORY, name), encoding="utf-8") as fh:
        return fh.read()


def path(name: str) -> str:
    return os.path.join(DIRECTORY, name)
