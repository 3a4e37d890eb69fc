"""The option audit (``tools/option_audit.py``) on a synthetic package."""

import pathlib
import re
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[2]

PACKAGE = '''
from dataclasses import dataclass, field


def by_keyword(a, knob=1):
    return a


def by_position(a, knob=1, other=2):
    return a


def by_kwargs_dict(a, depth=3):
    return a


def by_setdefault(a, width=4):
    return a


def by_attribute(a, level=5):
    return a


def inner_unset(a, gain=1):
    return a


def outer_unset(gain=1):
    return inner_unset(0, gain=gain)


def inner_set(a, rate=1):
    return a


def outer_set(rate=1):
    return inner_set(0, rate=rate)


class Widget:
    def __init__(self, size=1, color="red"):
        self.size = size
        self.color = color


class Sub(Widget):
    def __init__(self, size=1):
        super().__init__(size)


@dataclass
class Config:
    name: str
    retries: int = 3
    tags: list = field(default_factory=list)
    cache: dict = field(default_factory=dict, init=False)


def unused(x=0):
    return x
'''

DRIVER = '''
from pkg.mod import by_keyword

by_keyword(0, knob=2)
'''

TEST = '''
from pkg.mod import Config, Sub, by_position, outer_set


def test_it(obj):
    by_position(0, 5)
    Config("n", 4)
    w_kwargs = {"depth": 1}
    extra_kwargs = {}
    extra_kwargs.setdefault("width", 2)
    obj.level = 6
    Sub(size=2)
    outer_set(rate=2)
'''

EXAMPLE = '''
from pkg.mod import Config

Config(name="x", tags=[1])
'''


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_audit_groups_each_kind_of_setter(tmp_path):
    write(tmp_path, "src/pkg/__init__.py", "")
    write(tmp_path, "src/pkg/mod.py", PACKAGE)
    write(tmp_path, "bench/run.py", DRIVER)
    write(tmp_path, "tests/test_a.py", TEST)
    write(tmp_path, "examples/ex.py", EXAMPLE)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "option_audit.py"),
         "--root", str(tmp_path), "--package", "src/pkg"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ("16 settable values in src/pkg: 1 set by drivers, "
                        "10 by tests or examples only, 5 by nobody")
    found, group = {}, None
    for line in lines[1:]:
        if line.startswith("set by "):
            group = line[len("set by "):-1]
            continue
        match = re.match(r"  pkg/mod\.py:\d+ (\S+)(?: <- (\w[\w ]*) at )?",
                         line)
        if match:
            found[match.group(1)] = (group, match.group(2))
    tests = "tests or examples only"
    assert found == {
        "by_position(knob)": (tests, "positional"),
        "by_position(other)": ("nobody", None),
        "by_kwargs_dict(depth)": (tests, "kwargs key"),
        "by_setdefault(width)": (tests, "kwargs key"),
        "by_attribute(level)": (tests, "attribute"),
        # Forwarded from a parameter nobody sets: set by nobody.
        "inner_unset(gain)": ("nobody", "keyword"),
        "outer_unset(gain)": ("nobody", None),
        # Forwarded from a parameter a test sets: a test's value.
        "inner_set(rate)": (tests, "keyword"),
        "outer_set(rate)": (tests, "keyword"),
        "Widget.__init__(size)": (tests, "positional"),
        "Widget.__init__(color)": ("nobody", None),
        "Sub.__init__(size)": (tests, "keyword"),
        "Config(retries)": (tests, "positional"),
        "Config(tags)": (tests, "keyword"),
        "unused(x)": ("nobody", None),
    }
    # The one value a driver sets is counted, not listed.
    assert "by_keyword" not in done.stdout
