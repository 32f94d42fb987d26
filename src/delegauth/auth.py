"""Authorization: path cache, scripted/interactive authorizers, prompt text,
and the first-use baseline.

Cache layout follows the key hierarchy: InputKey -> the decision ("allow" or
"deny") of each PathKey under it. A new path variant that reaches the same
(requester, op, sensor) under the same InputKey supersedes the previously
authorized one. Export is a length-prefixed record stream with a per-entry
checksum over the attached graph snapshot.
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from .errors import CorruptCache, InvariantViolation, MixedRoots
from .graph import InputKey, PathKey
from .model import Registry, WidgetKind

_EXPORT_MAGIC = b"DAC1"

# decision outcomes
ALLOWED = "allowed"
DENIED = "denied"

# decision reasons
CACHED = "cached"
PROMPTED = "prompted"
POLICY = "policy"
NO_ATTRIBUTION = "no_attribution"
EXPIRED = "expired"


@dataclass(slots=True, unsafe_hash=True)
class Decision:
    outcome: str  # allowed | denied
    reason: str  # cached | prompted | policy | no_attribution | expired
    request_id: str
    program_id: str
    op: str
    sensor: str
    t: int
    phase: str = "main"
    path_key: PathKey | None = None
    detail: str = ""

    @property
    def silent_allow(self) -> bool:
        return self.outcome == ALLOWED and self.reason == CACHED

    def to_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "reason": self.reason,
            "request_id": self.request_id,
            "program": self.program_id,
            "op": self.op,
            "sensor": self.sensor,
            "t": self.t,
            "phase": self.phase,
        }
        if self.path_key is not None:
            d["path_key"] = self.path_key.to_dict()
        if self.detail:
            d["detail"] = self.detail
        return d


# -- prompt rendering ----------------------------------------------------------


def _join_phrases(phrases: list[str]) -> str:
    if len(phrases) == 1:
        return phrases[0]
    if len(phrases) == 2:
        return f"{phrases[0]} and {phrases[1]}"
    return ", ".join(phrases[:-1]) + f", and {phrases[-1]}"


def render_prompt(keys: list[PathKey], registry: Registry) -> str:
    """Natural-language authorization message for path keys sharing one root input.

    Keys with identical program chains aggregate their request phrases;
    distinct chains become ". Also, allow ..." clauses starting at the point
    where the chain diverges from the previously rendered one.
    """
    if not keys:
        raise InvariantViolation("render_prompt requires at least one path")
    root = keys[0].input_key
    # repeats of the same interaction share the input key, not the input instance
    if any(k.input_key != root for k in keys[1:]):
        raise MixedRoots("paths do not share a single root input event")

    widget = registry.widget(root.widget_id)
    kind_phrase = "voice command" if widget.kind == WidgetKind.VOICE else "tap on"

    # group by program chain, preserving first-arrival order
    groups: dict[tuple[str, ...], list[str]] = {}
    for k in keys:
        phrase = registry.request_phrase(k.op, k.sensor)
        phrases = groups.setdefault(k.programs, [])
        if phrase not in phrases:
            phrases.append(phrase)

    clauses: list[str] = []
    prev_chain: tuple[str, ...] | None = None
    for chain, phrases in groups.items():
        segment = chain
        if prev_chain is not None:
            common = 0
            for a, b in zip(prev_chain, chain):
                if a != b:
                    break
                common += 1
            if common and common < len(chain):
                segment = chain[common - 1 :]
        names = [registry.program(pid).display for pid in segment]
        clause = names[0]
        for name in names[1:]:
            clause += f" to activate {name}"
        clause += f" to {_join_phrases(phrases)}"
        clauses.append(clause)
        prev_chain = chain

    body = ". Also, allow ".join(clauses)
    return f'In response to your {kind_phrase} "{widget.label}", allow {body}?'


def render_first_use_prompt(program_id: str, op: str, registry: Registry) -> str:
    program = registry.program(program_id)
    return f"Allow {program.name} to {registry.operation(op).first_use_phrase}?"


def prompt_marks(keys: list[PathKey], registry: Registry) -> list[list[str]]:
    """(name, identity mark) pairs, one per program the keys name, in order of
    first appearance: two programs of one name show both their marks."""
    programs = map(registry.program, dict.fromkeys(pid for k in keys for pid in k.programs))
    return [[prog.name, prog.identity_mark] for prog in programs]


# -- authorizers -----------------------------------------------------------------


@dataclass(frozen=True)
class PolicyRule:
    allow: bool
    widget_glob: str
    chain_glob: str
    op_glob: str
    sensor_glob: str

    def matches(self, widget: str, chain: str, op: str, sensor: str) -> bool:
        return (
            fnmatchcase(widget, self.widget_glob)
            and fnmatchcase(chain, self.chain_glob)
            and fnmatchcase(op, self.op_glob)
            and fnmatchcase(sensor, self.sensor_glob)
        )

    @property
    def is_default(self) -> bool:
        return (self.widget_glob, self.chain_glob, self.op_glob, self.sensor_glob) == ("*", "*", "*", "*")


def parse_policy_rules(lines: list[str]) -> list[PolicyRule]:
    import shlex

    rules: list[PolicyRule] = []
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            parts = shlex.split(text)
        except ValueError:  # an unclosed quote
            parts = []
        if len(parts) != 5 or parts[0] not in ("allow", "deny"):
            raise InvariantViolation(f"bad policy rule: {raw!r}")
        rules.append(PolicyRule(parts[0] == "allow", parts[1], parts[2], parts[3], parts[4]))
    if not rules or not rules[-1].is_default:
        raise InvariantViolation("policy must end with a default rule: allow|deny * * * *")
    return rules


class ScriptedPolicy:
    """Simulated user: answers prompts by matching PathKeys against ordered rules.

    A first-use prompt asks about the key `PathKey("*", (program,), op, sensor)`.
    """

    def __init__(self, rules: list[str]):
        self.rules = parse_policy_rules(rules)

    @classmethod
    def allow_all(cls) -> "ScriptedPolicy":
        return cls(["allow * * * *"])

    def _decide_key(self, key: PathKey, registry: Registry) -> bool:
        chain = ">".join(registry.program(pid).name for pid in key.programs)
        for rule in self.rules:
            if rule.matches(key.widget_id, chain, key.op, key.sensor):
                return rule.allow
        raise InvariantViolation("policy rules are not total")  # unreachable: default required

    def authorize_paths(self, keys: list[PathKey], text: str, registry: Registry) -> bool:
        # one modal answer per aggregated prompt: yes only if every path passes
        return all(self._decide_key(k, registry) for k in keys)


class InteractivePrompt:
    """Blocking y/n prompt on stdio; the paper's modal dialog."""

    def __init__(self, stdin=None, stdout=None):
        self._stdin = stdin or sys.stdin
        self._stdout = stdout or sys.stdout

    def authorize_paths(self, keys: list[PathKey], text: str, registry: Registry) -> bool:
        self._stdout.write(text + " [y/n] ")
        self._stdout.flush()
        return self._stdin.readline().strip().lower() in ("y", "yes")


# -- authorization cache ---------------------------------------------------------------


@dataclass
class CacheEntry:
    input_key: InputKey
    decisions: dict = field(default_factory=dict)  # PathKey -> "allow" | "deny"
    graph_blob: bytes = b""
    blob_crc: int = 0


class AuthorizationCache:
    """Maps InputKey -> PathKey decisions, with per-path supersession."""

    def __init__(self) -> None:
        self.entries: dict[InputKey, CacheEntry] = {}

    # -- lookups -----------------------------------------------------------

    def lookup(self, key: PathKey) -> str | None:
        entry = self.entries.get(key.input_key)
        if entry is None:
            return None
        return entry.decisions.get(key)

    # -- mutation -------------------------------------------------------------

    def _entry(self, input_key: InputKey) -> CacheEntry:
        entry = self.entries.get(input_key)
        if entry is None:
            entry = CacheEntry(input_key=input_key)
            self.entries[input_key] = entry
        return entry

    def store_allow(self, key: PathKey, graph_blob: bytes) -> None:
        entry = self._entry(key.input_key)
        entry.decisions[key] = "allow"
        entry.graph_blob = bytes(graph_blob)
        entry.blob_crc = zlib.crc32(entry.graph_blob)

    def store_deny(self, key: PathKey) -> None:
        self._entry(key.input_key).decisions[key] = "deny"

    def invalidate_conflicting(self, new_key: PathKey) -> int:
        """Evict authorized paths superseded by a new chain variant.

        Conflict = same InputKey and same (requester, op, sensor) but a
        different program chain. Called once `lookup(new_key)` has missed, so
        no allowed key with those fields is `new_key` itself.
        """
        entry = self.entries.get(new_key.input_key)
        if entry is None:
            return 0
        stale = [
            k
            for k, v in entry.decisions.items()
            if v == "allow"
            and (k.requester, k.op, k.sensor) == (new_key.requester, new_key.op, new_key.sensor)
        ]
        for k in stale:
            del entry.decisions[k]
        return len(stale)

    # -- serialization ----------------------------------------------------------

    @staticmethod
    def _serialize_entry(entry: CacheEntry) -> bytes:
        decisions = [[k.to_dict(), v] for k, v in entry.decisions.items()]
        meta = {
            "input_key": entry.input_key.to_dict(),
            "authorized": [k for k, v in decisions if v == "allow"],  # kept in the format, derived
            "decisions": decisions,
            "blob_crc": entry.blob_crc,
        }
        meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        return (
            len(meta).to_bytes(4, "big")
            + meta
            + len(entry.graph_blob).to_bytes(4, "big")
            + entry.graph_blob
        )

    def export(self) -> bytes:
        chunks = [_EXPORT_MAGIC, len(self.entries).to_bytes(4, "big")]
        for entry in self.entries.values():
            chunks.append(self._serialize_entry(entry))
        return b"".join(chunks)

    def import_(self, blob: bytes) -> None:
        if not blob.startswith(_EXPORT_MAGIC):
            raise CorruptCache("bad magic")
        pos = len(_EXPORT_MAGIC)
        try:
            count = int.from_bytes(blob[pos : pos + 4], "big")
            pos += 4
            entries: dict[InputKey, CacheEntry] = {}
            for _ in range(count):
                mlen = int.from_bytes(blob[pos : pos + 4], "big")
                pos += 4
                meta = json.loads(blob[pos : pos + mlen])
                pos += mlen
                blen = int.from_bytes(blob[pos : pos + 4], "big")
                pos += 4
                graph_blob = blob[pos : pos + blen]
                if len(graph_blob) != blen:
                    raise CorruptCache("truncated graph blob")
                pos += blen
                if meta["blob_crc"] != zlib.crc32(graph_blob):
                    raise CorruptCache("graph blob checksum mismatch")
                if meta["authorized"] != [k for k, v in meta["decisions"] if v == "allow"]:
                    raise CorruptCache("authorized paths disagree with the decisions")
                entry = CacheEntry(
                    input_key=InputKey.from_dict(meta["input_key"]),
                    decisions={PathKey.from_dict(d): v for d, v in meta["decisions"]},
                    graph_blob=graph_blob,
                    blob_crc=meta["blob_crc"],
                )
                entries[entry.input_key] = entry
            if pos != len(blob):
                raise CorruptCache("trailing bytes after last entry")
        except CorruptCache:
            raise
        except Exception as exc:
            raise CorruptCache(f"malformed cache blob: {exc}") from exc
        self.entries = entries

    # -- footprint -------------------------------------------------------------------

    def footprint(self) -> dict:
        """Serialized bytes per receiving program, plus the total."""
        per_program: dict[str, int] = {}
        total = 0
        for entry in self.entries.values():
            size = len(self._serialize_entry(entry))
            per_program[entry.input_key.program_id] = (
                per_program.get(entry.input_key.program_id, 0) + size
            )
            total += size
        return {"per_program": per_program, "total": total}
