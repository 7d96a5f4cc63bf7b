"""Helpers shared by the test modules, imported as `from conftest import ...`."""

import sys
from dataclasses import replace
from types import SimpleNamespace

from wordcycles.verify import SUITES


def patch_everywhere(monkeypatch, module, name: str, make) -> None:
    """Replace module.name by make(current) in every wordcycles module that
    holds it, as perfbench/layers.py does: the library binds many names
    with `from .graphs import ...`."""
    current = getattr(module, name)
    wrapper = make(current)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "wordcycles" or mod_name.startswith("wordcycles."):
            for attr, value in list(vars(mod).items()):
                if value is current:
                    monkeypatch.setattr(mod, attr, wrapper)


def plant_failing_check(monkeypatch, name):
    """Plant, through the module attribute run_suite looks up, a check whose
    every report fails; applicable is left as the real check set it.  Returns
    the real check and the list its reports are appended to."""
    module, _, function = SUITES[name].check.partition(".")
    owner = sys.modules[f"wordcycles.{module}"]
    check, reports = getattr(owner, function), []

    def failing(**instance):
        res = check(**instance)
        reports.append(res)
        return SimpleNamespace(**{**vars(res), "passed": False})

    monkeypatch.setattr(owner, function, failing)
    return check, reports


def extra_class(decompose):
    """One class too many: the first orbit cycle counted twice."""
    def faulty(g, w):
        dec = decompose(g, w)
        return replace(dec, cycles=dec.cycles + dec.cycles[:1])
    return faulty
