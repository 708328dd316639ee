"""Cross-version stability of the persistent store's cache keys.

The content-addressed store is only shareable across sessions (and
across code versions that did not change the serialised format) if the
key derivation is stable: canonical JSON in, SHA-256 out, with no
``repr()``- or ``hash()``-derived components anywhere in the setup
payload.  These tests pin that down:

* a checked-in golden fingerprint for a fixture setup -- any
  accidental change to key derivation (field ordering, float
  formatting, enum rendering, schema bump) fails loudly here, so
  bumping :data:`repro.core.store.SCHEMA_VERSION` is a conscious act
  that updates this constant alongside;
* a recursive audit that the setup payload contains only JSON scalar
  types (no enums, dataclasses, tuples or other objects whose JSON
  rendering could drift between Python versions).
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Protocol, SystemConfig
from repro.core.store import (
    SCHEMA_VERSION,
    _normalize_key_scalars,
    config_from_jsonable,
    config_to_jsonable,
    result_fingerprint,
)

#: Fingerprint of the fixture setup below under schema version 2.
#: Regenerate (and review the diff that forced it) with:
#:   python -c "from repro.core.store import result_fingerprint;
#:              from repro.core.config import *;
#:              print(result_fingerprint('mp3d', 2000,
#:                    SystemConfig(num_processors=8)))"
GOLDEN_KEY = "0cf869aae1f1b6630d4d6a8e9623f0c7d41efec25d7438977f5eab79bcd9fe8a"


def _fixture_config() -> SystemConfig:
    return SystemConfig(num_processors=8, protocol=Protocol.SNOOPING)


def test_fixture_fingerprint_matches_golden_string():
    assert SCHEMA_VERSION == 2  # bumping the schema must retire this key
    assert result_fingerprint("mp3d", 2000, _fixture_config()) == GOLDEN_KEY


def test_fingerprint_varies_with_every_setup_component():
    from dataclasses import replace

    base = _fixture_config()
    variants = [
        result_fingerprint("water", 2000, base),
        result_fingerprint("mp3d", 2001, base),
        result_fingerprint("mp3d", 2000, replace(base, seed=base.seed + 1)),
        result_fingerprint(
            "mp3d", 2000, replace(base, protocol=Protocol.DIRECTORY)
        ),
        result_fingerprint(
            "mp3d",
            2000,
            replace(base, ring=replace(base.ring, clock_ps=base.ring.clock_ps + 1)),
        ),
        result_fingerprint("mp3d", 2000, base, salt="gen1"),
    ]
    assert len(set(variants + [GOLDEN_KEY])) == len(variants) + 1


def test_equivalent_float_spellings_share_a_key():
    """Numerically equal config scalars must hit the same cache entry.

    Configs built through arithmetic (``1e9 / mhz``, unit conversions)
    often carry integral floats where hand-written configs carry ints;
    both describe the same experiment, so ``8.0`` vs ``8`` and ``-0.0``
    vs ``0.0`` must not cause spurious cache misses.
    """
    from dataclasses import replace

    base = _fixture_config()
    # Integral float spelling of an int field collapses to the int key
    # (and therefore still matches the golden fingerprint).
    as_float = replace(base, ring=replace(base.ring, clock_ps=2000.0))
    assert result_fingerprint("mp3d", 2000, as_float) == GOLDEN_KEY
    # Negative zero collapses to plain zero.
    minus_zero = replace(
        base, memory=replace(base.memory, directory_lookup_ps=-0.0)
    )
    plus_zero = replace(
        base, memory=replace(base.memory, directory_lookup_ps=0.0)
    )
    assert result_fingerprint("mp3d", 2000, minus_zero) == result_fingerprint(
        "mp3d", 2000, plus_zero
    )
    assert result_fingerprint("mp3d", 2000, minus_zero) == GOLDEN_KEY
    # Genuinely different values still get their own keys.
    fractional = replace(base, ring=replace(base.ring, clock_ps=2000.5))
    assert result_fingerprint("mp3d", 2000, fractional) != GOLDEN_KEY


def _assert_json_scalars(value, path="config"):
    """Only dict/str keys and str/int/float/bool/None leaves allowed."""
    if isinstance(value, dict):
        for key, nested in value.items():
            assert isinstance(key, str), f"non-string key at {path}: {key!r}"
            _assert_json_scalars(nested, f"{path}.{key}")
    elif isinstance(value, list):
        for index, nested in enumerate(value):
            _assert_json_scalars(nested, f"{path}[{index}]")
    else:
        assert value is None or isinstance(
            value, (str, int, float, bool)
        ), f"non-JSON-scalar at {path}: {type(value).__name__}"


def test_key_payload_contains_only_json_scalars():
    payload = config_to_jsonable(_fixture_config())
    _assert_json_scalars(payload)
    # And it is genuinely canonical: a JSON round-trip is a fixed point.
    assert json.loads(json.dumps(payload)) == payload


def test_config_payload_roundtrips_exactly():
    config = _fixture_config()
    assert config_from_jsonable(config_to_jsonable(config)) == config


@given(
    benchmark=st.text(max_size=12),
    data_refs=st.integers(-5, 10**9),
    salt=st.text(max_size=8),
    seed=st.integers(0, 2**64),
    clock_ps=st.one_of(st.integers(1, 10**6), st.floats(1.0, 1e6)),
    weak_ordering=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_memoised_fingerprint_hashes_the_plain_canonical_json(
    benchmark, data_refs, salt, seed, clock_ps, weak_ordering
):
    """The key spliced around the memoised config text is the sha256 of
    the whole setup dumped in one go, salt or no salt."""
    from dataclasses import replace

    base = _fixture_config()
    config = replace(
        base,
        seed=seed,
        ring=replace(base.ring, clock_ps=clock_ps),
        processor=replace(base.processor, weak_ordering=weak_ordering),
    )
    setup = {
        "schema": SCHEMA_VERSION,
        "benchmark": benchmark,
        "data_refs": data_refs,
        "config": _normalize_key_scalars(config_to_jsonable(config)),
    }
    if salt:
        setup["salt"] = salt
    canonical = json.dumps(setup, sort_keys=True, separators=(",", ":"))
    expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert result_fingerprint(benchmark, data_refs, config, salt) == expected
