"""The CLI's reference reports, pinned.

Each command of REFERENCE runs in-process through `cli.main`.  Its payload's
exit status and its `report` and `verification` objects must equal, once
loaded, the JSON file of the same name under tests/data/cli_reference/.
The files are written by this module run as a script:

    PYTHONPATH=src python tests/test_cli_reference.py

Regenerating them changes what the reports are pinned to, so a change that
does it must say why.  With `--diff` the script writes nothing and prints,
for each file, every leaf of the new report that differs from the pinned one:
its path, the pinned value, the new value and, for numbers, the relative change:

    PYTHONPATH=src python tests/test_cli_reference.py --diff
"""

import json
import sys
from pathlib import Path

import pytest

from sosreg.cli import main

DATA = Path(__file__).parent / "data" / "cli_reference"

REFERENCE = {
    "counterex_threshold": ["counterex", "threshold", "--verify-flip"],
    "counterex_scan": ["counterex", "scan", "--s-range", "0.3:0.5:0.1"],
    "counterex_delta_nu": ["counterex", "delta-nu", "--restarts", "2", "--sphere-samples", "300"],
    "check_odd_even": ["check", "odd-even", "--function", "flat_exp_sq", "--samples", "300"],
    "check_interp": ["check", "interp", "--function", "x^2+y^4", "--samples", "100"],
    "check_slow_vary": ["check", "slow-vary", "--function", "x^2+y^2", "--samples", "300"],
    "check_diff_ineq": ["check", "diff-ineq", "--function", "x^2+y^2", "--samples", "200"],
    "monotone": ["monotone", "--function", "flat_exp", "--samples", "50"],
    "roots": ["roots", "--function", "x^4+1"],
    "decompose": ["decompose", "--function", "x^2", "--region-radius", "0.5", "--verify-points", "300"],
    "decompose_2d": ["decompose", "--function", "x^2+y^2", "--region-radius", "0.02", "--verify-points", "300",
                     "--no-holder"],
    "verify": ["verify", "--function", "x^2", "--region-radius", "0.5", "--verify-points", "300",
               "--grid-points", "300"],
    "catalog": ["catalog"],
}


def _pinned(argv, path: Path) -> dict:
    main([*argv, "--report", str(path)])
    payload = json.loads(path.read_text())
    return {k: payload[k] for k in ("exit_status", "report", "verification") if k in payload}


def _differing_leaves(want, got, path: str = ""):
    """(path, pinned, new) of every leaf where `got` differs from `want`; a list of another
    length, or a key on one side only (None on the other), is one leaf."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            yield from _differing_leaves(want.get(key), got.get(key), f"{path}.{key}" if path else key)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (a, b) in enumerate(zip(want, got)):
            yield from _differing_leaves(a, b, f"{path}[{i}]")
    elif want != got:
        yield path, want, got


def _relative_change(want, got) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (want, got))
    return f"{abs(got - want) / abs(want):.1e}" if numbers and want != 0 else "-"


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_report_matches_reference(name, tmp_path):
    want = json.loads((DATA / f"{name}.json").read_text())
    assert _pinned(REFERENCE[name], tmp_path / "report.json") == want


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    diff = sys.argv[1:] == ["--diff"]
    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in REFERENCE.items():
            with contextlib.redirect_stdout(io.StringIO()):  # the commands' own output
                pinned = _pinned(argv, Path(tmp) / "report.json")
            if diff:
                want = json.loads((DATA / f"{name}.json").read_text())
                for path, old, new in _differing_leaves(want, pinned):
                    print(f"{name}.json {path}: {old!r} -> {new!r} (relative change {_relative_change(old, new)})")
                continue
            (DATA / f"{name}.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
            print(f"{name}: exit {pinned['exit_status']}", file=sys.stderr)
