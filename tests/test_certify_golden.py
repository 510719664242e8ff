"""Every certify-chain output bit matches the checked-in digests, family by family.

A failure names every family whose digest changed.  If the change is
intended, regenerate with ``python tests/certify_golden.py --regen`` and list
the changed families in CHANGES.md.
"""

import json

from certify_golden import FAMILIES, GOLDEN_PATH, differences, record, versions


def test_golden_set_covers_every_family():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert list(golden["families"]) == list(FAMILIES)


def test_certificate_digests_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    changed = differences(golden, record())
    recorded = {k: golden.get(k) for k in versions()}
    assert not changed, (
        f"{len(changed)} families differ (golden made with {recorded}, running {versions()}):\n"
        + "\n".join(changed)
    )
