"""Configuration of a CASTAN analysis run."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.cache.hierarchy import HierarchyConfig
from repro.perf.cycles import CycleCosts, DEFAULT_CYCLE_COSTS

#: Version tag mixed into every :meth:`CastanConfig.content_hash`.  Bump it
#: whenever the canonical form below changes meaning (a field is renamed,
#: a default's semantics change), so stored service results keyed by the
#: old form can never be served for the new one.
CONFIG_HASH_VERSION = "castan-config-v8"

#: Accepted values of :attr:`CastanConfig.search_mode` and ``cache_model``.
SEARCH_MODES = ("monolithic", "beam")
CACHE_MODELS = ("contention", "none")


def _canonical_value(value):
    """Reduce a config value to plain JSON-stable data.

    Dataclasses become ``{field: value}`` dicts (sorted by the JSON dump),
    dicts get stringified keys, and containers canonicalize element-wise.
    Only data that survives a JSON round-trip unchanged is allowed — config
    must stay declarative so its hash can address stored results.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"config value {value!r} is not canonicalizable")


def hash_canonical_config(canonical: dict) -> str:
    """:meth:`CastanConfig.content_hash` of a config already in canonical form.

    For callers that need both the canonical dict and its hash (a service
    submission) and should canonicalise once.
    """
    payload = json.dumps([CONFIG_HASH_VERSION, canonical], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _check_known_fields(cls: type, data: dict) -> None:
    """Raise ``ValueError`` naming ``cls``'s fields if ``data`` has other keys."""
    known = sorted(f.name for f in dataclasses.fields(cls))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {', '.join(map(repr, unknown))}; "
            f"known fields: {', '.join(known)}"
        )


def _nested_config(cls: type, name: str, data) -> object:
    """Build the nested ``cls`` table of field ``name`` from plain data.

    Each value must have its default's type (an int, or a number where the
    default is a float), and every cycle cost must be >= 0.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object of {cls.__name__} fields, got {data!r}")
    _check_known_fields(cls, data)
    defaults = cls()
    least = 0 if cls is CycleCosts else None
    for key, value in data.items():
        kinds = (int, float) if type(getattr(defaults, key)) is float else (int,)
        if type(value) not in kinds or (least is not None and value < least):
            wanted = "a number" if float in kinds else "an int"
            wanted += "" if least is None else f" >= {least}"
            raise ValueError(f"{name}.{key} must be {wanted}, got {value!r}")
    return cls(**data)


@dataclass
class CastanConfig:
    """Knobs of the analysis (§3, §4).

    Every field can change the output: the config is the content address of
    a stored result, so how a run executes (in-process or in a service
    worker) is not part of it.
    The defaults are sized so that a full analysis of any evaluation NF
    finishes in seconds on a laptop; the paper's runs take minutes to hours
    on the real KLEE-based prototype (Table 4).
    """

    # Number of symbolic packets to synthesize (``None`` = per-NF default).
    num_packets: int | None = None
    # Exploration budget: states popped from the searcher, and a wall-clock
    # cap standing in for the paper's time budget.
    max_states: int = 2000
    deadline_seconds: float | None = 60.0
    # Search shape: "monolithic" explores all N packets in one search;
    # "beam" runs the per-packet round scheduler (repro.symbex.batch).
    search_mode: str = "monolithic"
    # Convergence chunk of both searches (the beam's final strike round and
    # the monolithic search): a chunk of this many pops that completes
    # paths without beating the best one ends the search.
    strike_chunk_states: int = 32
    # Searcher: "castan", "dfs", "bfs" or "random" (ablation).
    searcher: str = "castan"
    # Cache model: "contention" (default), "none" (ablation).
    cache_model: str = "contention"
    # Chains of the rainbow table used for havoc reconciliation (§3.5).
    rainbow_chains: int = 4096
    # Simulated processor geometry and cycle costs (shared with the testbed).
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    cycle_costs: CycleCosts = DEFAULT_CYCLE_COSTS
    seed: int = 0xCA57A

    def __post_init__(self) -> None:
        """Refuse values no analysis can run.  Configs are built where a
        service job is submitted, so a bad value fails the submission, not
        its worker."""
        from repro.symbex.searcher import SEARCHERS  # keeps this module engine-free

        for name, options in (
            ("searcher", tuple(SEARCHERS)),
            ("search_mode", SEARCH_MODES),
            ("cache_model", CACHE_MODELS),
        ):
            value = getattr(self, name)
            if value not in options:
                raise ValueError(f"unknown {name} {value!r}; options: {', '.join(options)}")
        # `type(...) is int`: bool is an int subclass, but `true` is no count.
        # A chunk of no pops never spends the budget (the search spins), and
        # a table of no chains inverts no havoc.
        for name, least in (
            ("max_states", 1),
            ("rainbow_chains", 1),
            ("strike_chunk_states", 1),
            ("seed", None),
        ):
            value = getattr(self, name)
            if type(value) is not int or (least is not None and value < least):
                wanted = "an int" if least is None else f"an int >= {least}"
                raise ValueError(f"{name} must be {wanted}, got {value!r}")
        packets = self.num_packets
        if packets is not None and (type(packets) is not int or packets < 0):
            raise ValueError(f"num_packets must be null or an int >= 0, got {packets!r}")
        deadline = self.deadline_seconds
        if deadline is not None and (type(deadline) not in (int, float) or not deadline > 0):
            raise ValueError(f"deadline_seconds must be null or > 0, got {deadline!r}")

    # -- canonical form and content addressing --------------------------------

    def to_canonical_dict(self) -> dict:
        """The config as plain, JSON-serialisable data.

        Field order is irrelevant (hashing sorts keys); nested dataclasses
        (``hierarchy``, ``cycle_costs``) flatten recursively.  The inverse
        is :meth:`from_dict`.
        """
        return _canonical_value(self)

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical form of every field.

        Two configs hash equal iff every field (including the nested
        hierarchy geometry and cycle-cost table) is equal, regardless of
        construction order or process.  The service result store uses this
        hash — together with the NF fingerprint — as the content address of
        an analysis, so *any* drift in canonicalization would silently
        repoint stored results; ``tests/test_config_hash.py`` pins a golden
        hash against exactly that.
        """
        return hash_canonical_config(self.to_canonical_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CastanConfig":
        """Build a config from (possibly partial) plain-dict overrides.

        Unknown keys, top-level or inside the nested ``hierarchy`` /
        ``cycle_costs`` dicts, raise ``ValueError`` naming the known fields
        (a typoed knob in a service job must fail the submission, not
        silently analyze with defaults), and so does a nested table that is
        no object or holds a value of the wrong type; the nested dicts
        override field-wise on top of their defaults.
        """
        _check_known_fields(cls, data)
        kwargs = dict(data)
        for name, nested in (("hierarchy", HierarchyConfig), ("cycle_costs", CycleCosts)):
            if name in kwargs:
                kwargs[name] = _nested_config(nested, name, kwargs[name])
        return cls(**kwargs)

    def packets_for(self, nf_default: int) -> int:
        """Resolve the packet count for an NF with the given default.

        Only ``None`` means "use the NF's default": an explicit
        ``num_packets=0`` (however degenerate) must not silently become the
        default, so the check is ``is None`` rather than truthiness.
        """
        return self.num_packets if self.num_packets is not None else nf_default
