"""The benchmark's traced run wraps methods of the package by name; a
refactor that deletes or renames one of them must fail here, not only in
the benchmark's own smoke test.  The benchmark code is read, never changed.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_trace_install_finds_every_hook_and_restore_undoes_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a KeyError names a hook that no longer exists
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
