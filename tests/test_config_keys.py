"""Ratchet on config keys that change nothing.

A catalog config key whose override changes no run is an option nobody
can use: its default is the only behaviour, and the key is dead weight in
`trustsim list` and in `_validate`. Every key of a catalog script's
defaults has one entry below: a script that has the key and an override of
it. The seed-1 run with the override must differ from the script's default
run, in the transcript after its header line (the header records the
override itself) or in the report's rows. A key with no entry, an entry
for a key no script has, or an entry whose override changes nothing fails
this test.
"""

import pytest

from trustsim.scenarios import CATALOG, run_scenario

# key -> (script, override value), each with a visible effect
VISIBLE_OVERRIDES = {
    "batch_size": ("one-time-aik-auth", 5),
    "freshness_window": ("one-time-aik-auth", 50),
    "auth_count": ("one-time-aik-auth", 3),
    "extra_components": ("one-time-aik-auth", [["svc-client", "svc-client-v2"]]),
    "pool_size": ("prepaid-happy", 2),  # seed 1 draws ppimsi-1, not ppimsi-0
    "initial_balance": ("prepaid-happy", 20),
    "tariffs": ("prepaid-happy", {"calls": 1, "data": 1}),
    "requests": ("prepaid-happy", [["calls", 1]]),
    "vouchers": ("prepaid-happy", []),
    "voucher_value": ("prepaid-zero", 60),
    "good": ("pos-fig4", "water"),
    "encryption": ("pos-fig4", False),
    "pos_check_via_mno": ("pos-fig4", True),
    "zones": ("facility-entry",
              {"zone-lab": {"camera": "disabled", "mms": "disabled", "calls": "disabled"}}),
    "enforcer_allowed_fields": ("facility-midnight", ["room"]),
    "gate_cache": ("facility-entry", True),
}


def _seen(script: str, variants: dict) -> tuple:
    """What a seed-1 run shows: its transcript after the header line, and
    its report rows."""
    transcript, report = run_scenario(script, 1, variants=variants)
    return transcript.to_text().split("\n", 1)[1], report["assertions"]


def test_every_catalog_key_has_an_entry():
    keys = {key for script in CATALOG.values() for key in script.defaults}
    assert not keys - set(VISIBLE_OVERRIDES), \
        f"catalog keys no entry overrides: {sorted(keys - set(VISIBLE_OVERRIDES))}"
    assert not set(VISIBLE_OVERRIDES) - keys, \
        f"entries for keys no script has: {sorted(set(VISIBLE_OVERRIDES) - keys)}"


@pytest.mark.parametrize("key", sorted(VISIBLE_OVERRIDES))
def test_override_changes_the_run(key):
    script, value = VISIBLE_OVERRIDES[key]
    assert key in CATALOG[script].defaults, f"{script} has no key {key!r}"
    assert _seen(script, {key: value}) != _seen(script, {}), \
        f"{key}={value!r} changes neither the transcript nor the report of {script}"
