"""Tracer conservation and nesting on a fake clock; unresolved targets."""

import sys
import types

import pytest

from tracer import (COUNT, NAME, PARENT, ROOT, ROOT_IDX, SPAN, Tracer,
                    TracerError, resolve)


class FakeClock:
    """Every reading advances time by a fixed, odd number of ns."""

    def __init__(self, tick: int = 7) -> None:
        self.now = 1_000
        self.tick = tick

    def __call__(self) -> int:
        self.now += self.tick
        return self.now


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perf_fake_target")

    class Layer:
        def forward(self, x):
            return mod.kernel(x) + mod.kernel(x)

        @staticmethod
        def make(x):
            return x

    mod.Layer = Layer
    mod.kernel = lambda x: x + 1
    mod.next_item = lambda: None
    mod.step = lambda layer, x: layer.forward(x)
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


TABLE = [
    ("perf_fake_target:Layer.forward", "layer.forward", SPAN),
    ("perf_fake_target:kernel", "kernel", SPAN,
     lambda args, kwargs, result: result),
    ("perf_fake_target:next_item", "next_item", ROOT),
    ("perf_fake_target:Layer.make", "layer.make", COUNT),
]


def test_conservation_and_nesting(fake_module):
    clock = FakeClock()
    tr = Tracer(clock)
    tr.install(TABLE)
    try:
        layer = fake_module.Layer()
        fake_module.kernel(0)                  # outside any root
        for _ in range(3):
            fake_module.next_item()            # opens a root
            assert fake_module.step(layer, 1) == 4
            fake_module.Layer.make(5)
            clock()                            # untraced time in the root
        tr.end_root()
    finally:
        tr.uninstall()
    tr.check_conservation()
    assert len(tr.roots) == 3
    assert tr.counts == {"layer.make": 3}
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s[NAME], []).append(s)
    assert len(by_name["kernel"]) == 7
    assert by_name["kernel"][0][ROOT_IDX] == -1
    assert by_name["kernel"][0][5] == 1        # attrs callback saw the result
    for s in by_name["kernel"][1:]:
        assert tr.spans[s[PARENT]][NAME] == "layer.forward"
    # The identity, spelled out for one root.
    own = tr.self_times()
    start, end = tr.roots[1]
    in_root = [i for i, s in enumerate(tr.spans) if s[ROOT_IDX] == 1]
    top = [i for i in in_root if tr.spans[i][PARENT] < 0]
    unattributed = (end - start) - sum(
        tr.spans[i][2] - tr.spans[i][1] for i in top)
    assert sum(own[i] for i in in_root) + unattributed == end - start
    assert unattributed > 0


def test_uninstall_restores_originals(fake_module):
    forward, kernel = fake_module.Layer.forward, fake_module.kernel
    tr = Tracer(FakeClock())
    tr.install(TABLE)
    assert fake_module.kernel is not kernel
    tr.uninstall()
    assert fake_module.Layer.forward is forward
    assert fake_module.kernel is kernel
    assert fake_module.Layer.make(3) == 3      # still a staticmethod
    assert fake_module.Layer().make(3) == 3


def test_unresolved_target_raises_and_patches_nothing(fake_module):
    kernel = fake_module.kernel
    tr = Tracer(FakeClock())
    with pytest.raises(TracerError, match="no_such_attr"):
        tr.install(TABLE + [("perf_fake_target:Layer.no_such_attr", "x", SPAN)])
    assert fake_module.kernel is kernel
    with pytest.raises(TracerError):
        resolve("perf_no_such_module:thing")
    with pytest.raises(TracerError):
        resolve("perf_fake_target")


def test_overlap_is_detected(fake_module):
    tr = Tracer(FakeClock())
    tr.begin_root(0)
    tr.spans.append(["a", 10, 50, -1, 0, None])
    tr.spans.append(["b", 40, 60, -1, 0, None])       # overlaps a
    tr.end_root(100)
    with pytest.raises(TracerError, match="overlaps"):
        tr.check_conservation()
    tr.spans[1] = ["b", 20, 60, 0, 0, None]           # child escapes parent
    with pytest.raises(TracerError, match="escapes"):
        tr.check_conservation()


def test_root_switch_inside_span_is_an_error(fake_module):
    tr = Tracer(FakeClock())
    tr.install([("perf_fake_target:kernel", "kernel", SPAN),
                ("perf_fake_target:next_item", "next_item", ROOT)])
    try:
        fake_module.next_item()
        original = fake_module.Layer.forward
        fake_module.Layer.forward = lambda self, x: fake_module.next_item()
        tr.install([("perf_fake_target:Layer.forward", "fwd", SPAN)])
        with pytest.raises(TracerError, match="inside an open span"):
            fake_module.Layer().forward(1)
    finally:
        tr.uninstall()
        fake_module.Layer.forward = original
