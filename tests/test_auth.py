from __future__ import annotations

import json
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegauth.auth import (
    AuthorizationCache,
    InteractivePrompt,
    ScriptedPolicy,
    parse_policy_rules,
    render_first_use_prompt,
    render_prompt,
)
from delegauth.errors import CorruptCache, InvariantViolation, MixedRoots
from delegauth.graph import InputKey, PathKey
from delegauth.model import Registry, WidgetKind
from delegauth.runner import run_scenario
from delegauth.scenario import load_scenario
from conftest import scenario_path


def key(widget="go", programs=("P1", "P2"), op="capture_picture", sensor="Camera") -> PathKey:
    return PathKey(widget, tuple(programs), op, sensor)


# -- cache ---------------------------------------------------------------------


def test_store_and_lookup():
    cache = AuthorizationCache()
    k = key()
    assert cache.lookup(k) is None
    cache.store_allow(k, b"blob")
    assert cache.lookup(k) == "allow"
    assert cache.entries[k.input_key].decisions == {k: "allow"}


def test_supersession_evicts_conflicting_chain_variant():
    cache = AuthorizationCache()
    old = key(programs=("P1", "P2"))
    cache.store_allow(old, b"g1")
    variant = key(programs=("P1", "P3", "P2"))  # same requester, op, sensor
    evicted = cache.invalidate_conflicting(variant)
    assert evicted == 1
    assert cache.lookup(old) is None
    # unrelated paths under the same input key survive
    other_sensor = key(programs=("P1", "P2"), op="record_audio", sensor="Microphone")
    cache.store_allow(other_sensor, b"g2")
    assert cache.invalidate_conflicting(variant) == 0
    assert cache.lookup(other_sensor) == "allow"


def test_a_denial_replaces_an_allow():
    cache = AuthorizationCache()
    k = key()
    cache.store_allow(k, b"g1")
    cache.store_deny(k)
    assert cache.lookup(k) == "deny"
    # a cached denial is no authorized path: a chain variant supersedes nothing
    assert cache.invalidate_conflicting(key(programs=("P1", "P3", "P2"))) == 0
    assert cache.lookup(k) == "deny"
    [(meta, _blob)] = _export_entries(cache.export())
    assert meta["authorized"] == []


def test_export_import_round_trip_bit_exact():
    cache = AuthorizationCache()
    cache.store_allow(key(), b"graph-bytes")
    cache.store_allow(key(op="record_audio", sensor="Microphone"), b"graph-bytes")
    cache.store_allow(key(widget="other", programs=("P3",)), b"x" * 100)
    blob = cache.export()
    other = AuthorizationCache()
    other.import_(blob)
    assert other.export() == blob
    assert other.lookup(key()) == "allow"


def _export_entries(blob: bytes) -> list[tuple[dict, bytes]]:
    """The (meta, graph blob) records of an export, read with the format's length prefixes."""
    count, pos, out = int.from_bytes(blob[4:8], "big"), 8, []
    for _ in range(count):
        mlen = int.from_bytes(blob[pos : pos + 4], "big")
        meta = json.loads(blob[pos + 4 : pos + 4 + mlen])
        pos += 4 + mlen
        blen = int.from_bytes(blob[pos : pos + 4], "big")
        out.append((meta, blob[pos + 4 : pos + 4 + blen]))
        pos += 4 + blen
    return out


def _export_of(entries: list[tuple[dict, bytes]]) -> bytes:
    chunks = [b"DAC1", len(entries).to_bytes(4, "big")]
    for meta, graph in entries:
        text = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        chunks += [len(text).to_bytes(4, "big"), text, len(graph).to_bytes(4, "big"), graph]
    return b"".join(chunks)


def test_import_rejects_authorized_paths_that_disagree_with_the_decisions():
    cache = AuthorizationCache()
    cache.store_allow(key(), b"g1")
    cache.store_allow(key(op="record_audio", sensor="Microphone"), b"g1")
    blob = cache.export()
    assert _export_of(_export_entries(blob)) == blob
    [(meta, graph)] = _export_entries(blob)
    for authorized in ([], meta["authorized"][:1], meta["authorized"][::-1],
                       meta["authorized"] + [key(programs=("P1", "P3")).to_dict()]):
        with pytest.raises(CorruptCache):
            AuthorizationCache().import_(_export_of([({**meta, "authorized": authorized}, graph)]))


@pytest.mark.parametrize("task", ["task_a", "task_b", "task_c"])
def test_export_import_export_is_byte_identical_after_a_run(task):
    _report, engine = run_scenario(load_scenario(scenario_path(task)), policy_rules=["allow * * * *"])
    blob = engine.cache.export()
    assert any(meta["authorized"] for meta, _graph in _export_entries(blob))
    other = AuthorizationCache()
    other.import_(blob)
    assert other.export() == blob
    assert other.footprint() == engine.cache.footprint()


def test_cache_keys_compare_and_hash_as_their_fields():
    """The cache is keyed on `PathKey` and `InputKey`, so how they compare and hash is part of it."""
    fields = ("go", ("P1", "P2"), "capture_picture", "Camera")
    path_key, again = PathKey(*fields), PathKey(*fields)
    assert path_key is not again and path_key == again
    assert hash(path_key) == hash(again) == hash(fields)
    input_key = path_key.input_key
    assert input_key == InputKey("go", "P1") and hash(input_key) == hash(("go", "P1"))
    # not a bare tuple of the fields, nor another class with the same fields and name
    assert path_key != fields and input_key != ("go", "P1")
    assert path_key != make_dataclass("PathKey", ["widget_id", "programs", "op", "sensor"], frozen=True)(*fields)
    assert input_key != make_dataclass("InputKey", ["widget_id", "program_id"], frozen=True)("go", "P1")
    assert fields not in {path_key: "allow"} and {path_key: "allow"}[again] == "allow"


def test_an_imported_cache_hits_on_keys_built_anew():
    _report, engine = run_scenario(load_scenario(scenario_path("task_a")), policy_rules=["allow * * * *"])
    granted = [d.path_key for d in engine.decisions if d.outcome == "allowed" and d.path_key is not None]
    assert granted
    other = AuthorizationCache()
    other.import_(engine.cache.export())
    for k in granted:
        assert other.lookup(PathKey.from_dict(json.loads(json.dumps(k.to_dict())))) == "allow"


def test_import_rejects_corrupt_blobs():
    cache = AuthorizationCache()
    cache.store_allow(key(), b"payload-bytes")
    blob = cache.export()
    with pytest.raises(CorruptCache):
        AuthorizationCache().import_(b"WRONG" + blob)
    # flip a byte inside the graph payload: checksum must catch it
    mutated = bytearray(blob)
    mutated[-3] ^= 0xFF
    with pytest.raises(CorruptCache):
        AuthorizationCache().import_(bytes(mutated))
    with pytest.raises(CorruptCache):
        AuthorizationCache().import_(blob[:-2])


def test_footprint_empty_and_monotone():
    cache = AuthorizationCache()
    assert cache.footprint() == {"per_program": {}, "total": 0}
    sizes = []
    for i in range(10):
        cache.store_allow(key(widget=f"w{i}", programs=(f"P{i}",)), b"z" * 64)
        sizes.append(cache.footprint()["total"])
    assert sizes == sorted(sizes)
    assert all(b < a for a, b in zip(sizes[1:], sizes))  # strictly growing


# -- policies -----------------------------------------------------------------------


def test_policy_requires_total_default():
    with pytest.raises(InvariantViolation):
        parse_policy_rules(["allow * * capture_picture Camera"])
    rules = parse_policy_rules(["deny * * capture_picture Camera", "allow * * * *"])
    assert rules[-1].is_default


def _registry_for_policy() -> Registry:
    reg = Registry()
    reg.register_program("Smart Assistant", "SA")
    reg.register_program("Screen Capture", "SC")
    reg.register_widget("take a screenshot", WidgetKind.VOICE)
    reg.register_sensor("Screen")
    reg.register_operation("capture_screen", ["Screen"], "capture")
    return reg


def test_scripted_policy_matches_widget_and_chain_globs():
    reg = _registry_for_policy()
    policy = ScriptedPolicy(
        ['allow "take a screenshot" * * *', "deny * * * *"]
    )
    allowed = key("take a screenshot", ("P1", "P2"), "capture_screen", "Screen")
    denied = key("create a note", ("P1", "P2"), "capture_screen", "Screen")
    assert policy._decide_key(allowed, reg) is True
    assert policy._decide_key(denied, reg) is False
    chain_policy = ScriptedPolicy(['deny * "*Screen Capture*" * *', "allow * * * *"])
    assert chain_policy._decide_key(allowed, reg) is False


def test_aggregate_answer_is_conjunctive(basic_registry):
    paths = _three_leaf_paths(basic_registry)
    policy = ScriptedPolicy(["deny * * record_audio *", "allow * * * *"])
    text = render_prompt(paths, basic_registry)
    assert policy.authorize_paths(paths, text, basic_registry) is False
    assert ScriptedPolicy.allow_all().authorize_paths(paths, text, basic_registry) is True


def test_interactive_prompt_reads_stdin():
    import io

    stdin = io.StringIO("y\nn\n")
    stdout = io.StringIO()
    prompt = InteractivePrompt(stdin=stdin, stdout=stdout)
    assert prompt.authorize_paths([key()], "Allow?", None) is True
    assert prompt.authorize_paths([key()], "Allow?", None) is False
    assert "Allow?" in stdout.getvalue()


# -- prompt rendering --------------------------------------------------------------------


def _three_leaf_paths(registry) -> list[PathKey]:
    registry.register_sensor("Microphone")
    registry.register_operation("record_audio", ["Microphone"], "record audio")
    a = registry.program_by_name("Alpha").id
    b = registry.program_by_name("Beta").id
    wid = registry.resolve_widget("do the thing").id
    return [key(wid, (a, b), "capture_picture", "Camera"), key(wid, (a, b), "record_audio", "Microphone")]


def test_render_prompt_rejects_mixed_roots(basic_registry):
    a = basic_registry.program_by_name("Alpha").id
    w1 = basic_registry.resolve_widget("do the thing").id
    w2 = basic_registry.resolve_widget("other thing").id
    with pytest.raises(MixedRoots):
        render_prompt([key(w1, (a,)), key(w2, (a,))], basic_registry)


def test_render_prompt_direct_request_has_no_activate_clause(basic_registry):
    a = basic_registry.program_by_name("Alpha").id
    w = basic_registry.resolve_widget("do the thing").id
    text = render_prompt([key(w, (a,))], basic_registry)
    assert text == 'In response to your voice command "do the thing", allow Alpha to capture pictures?'


def test_render_prompt_is_pure(basic_registry):
    paths = _three_leaf_paths(basic_registry)
    assert render_prompt(paths, basic_registry) == render_prompt(paths, basic_registry)


def test_first_use_prompt_grammar(basic_registry):
    text = render_first_use_prompt(
        basic_registry.program_by_name("Alpha").id, "capture_picture", basic_registry
    )
    assert text == "Allow Alpha to capture pictures?"


# -- property: replaying stored decisions never prompts ------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8))
def test_prompt_free_replay_after_allow_all(widgets):
    cache = AuthorizationCache()
    keys = [key(widget=w, programs=("P1",)) for w in widgets]
    for k in keys:
        cache.store_allow(k, b"")
    assert all(cache.lookup(k) == "allow" for k in keys)
