"""The reach audit (``tools/reach_audit.py``) on one small driver."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Modules deleted because no driver reached them; the audit must not
#: find them in ``src/repro`` again.
DELETED = ("transport/rpc.py", "p4/textparser.py", "core/drf.py",
           "serverless/autoscaler.py", "net/trace.py")


def test_audit_counts_quickstart_reach():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach_audit.py"),
         "--driver", "examples/quickstart.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = done.stdout.splitlines()
    match = re.fullmatch(r"reached (\d+) of (\d+) defs in src/repro",
                         report[0])
    assert match, report[0]
    reached, total = map(int, match.groups())
    assert 0 < reached <= total
    assert "[exit 0," in done.stdout and "examples/quickstart.py" in done.stdout
    # The per-module lines add up to the headline counts.
    modules = [re.match(r"  (repro/\S+\.py) (\d+)/(\d+)", line)
               for line in report]
    modules = [m for m in modules if m]
    assert sum(int(m.group(2)) for m in modules) == reached
    assert sum(int(m.group(3)) for m in modules) == total
    listed = {m.group(1) for m in modules}
    assert "repro/serverless/gateway.py" in listed
    assert not any(name in done.stdout for name in DELETED)
