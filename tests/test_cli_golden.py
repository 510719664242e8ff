"""Seeded CLI output is byte-identical to the checked-in golden set.

A failure names every command whose exit code, stdout or first stderr line
changed.  If the change is intended, regenerate with ``python
tests/cli_golden.py`` and list the changed commands in CHANGES.md.
"""

import json

from cli_golden import GOLDEN_PATH, commands, differences, run, versions, write_files


def test_golden_set_covers_every_command():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert [e["argv"] for e in golden["commands"]] == commands()


def test_seeded_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    paths = write_files(tmp_path)
    replay = {
        **golden,
        "commands": [
            dict(zip(("exit", "stdout", "stderr"), run(e["argv"], paths)), argv=e["argv"])
            for e in golden["commands"]
        ],
    }
    changed = differences(golden, replay)
    recorded = {k: golden.get(k) for k in versions()}
    assert not changed, (
        f"{len(changed)} commands differ (golden made with {recorded}, running {versions()}):\n"
        + "\n".join(changed)
    )
