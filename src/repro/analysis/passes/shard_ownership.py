"""shard-ownership: every mutable has a declared owner domain.

ROADMAP item 3 shards the endpoint by C.ID across workers; the data
races that plan can introduce are exactly the mutations that cross an
ownership boundary.  This pass makes the boundaries explicit *before*
the concurrency exists — the static runway guard.

Every class reachable from the transport/host entry points is placed
in one of four owner domains, narrowest first:

- ``per-connection`` — owned by a single conversation (sessions,
  placement buffers, touch ledgers);
- ``per-shard`` — owned by one worker shard and its event loop
  (connection table, tombstones, demux);
- ``per-endpoint`` — the sharded composition that owns every worker
  (:class:`~repro.transport.shard.ShardedEndpoint`, the
  :class:`~repro.transport.egress.EgressPacker` its shards share, NIC
  models);
- ``global-pool`` — shared across every shard
  (:class:`~repro.host.budget.SharedPlacementBudget`,
  :class:`~repro.host.pool.GlobalBudgetPool`).

Placement comes from :data:`OWNER_DOMAINS` (the curated table for the
real tree) or a ``# owner: <domain>`` comment on the class definition
line; an unplaced transport/host class is itself a finding.  The rules:

- a method of a narrower-domain class may not *mutate* state reachable
  through a wider-domain object (attribute/subscript stores,
  augmented assigns, and mutating method calls such as
  ``.append``/``.add``/``.pop``) — unless the call is one of the
  declared seams in :data:`SEAM_METHODS` (the placement budget's
  keyed reserve / release calls, the packer's egress enqueue, event-loop
  scheduling), which are the sanctioned cross-domain channels;
- passing a wider-domain object into a module-level helper that
  mutates the corresponding parameter is the same violation laundered
  through a call — a small per-module fixpoint catches it;
- a module-level mutable (list/dict/set display or constructor) must
  carry an ``# owner: <domain>`` comment (``__all__`` and other
  dunders are exempt).

Reads are never findings: sharding constrains who *writes*.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import CONTAINER_MUTATORS, Finding, ModuleUnit, Pass, package_of

__all__ = ["ShardOwnershipPass", "OWNER_DOMAINS", "SEAM_METHODS"]

#: Domain lattice, narrowest to widest.
DOMAIN_RANK: dict[str, int] = {
    "per-connection": 0,
    "per-shard": 1,
    "per-endpoint": 2,
    "global-pool": 3,
}

#: Curated owner placement for every mutable transport/host class plus
#: the externally-defined types their fields reference.
OWNER_DOMAINS: dict[str, str] = {
    # transport — per-connection
    "ConnectionConfig": "per-connection",
    "Connection": "per-connection",
    "ReliableSender": "per-connection",
    "ReliableReceiver": "per-connection",
    "AdaptiveTpduPolicy": "per-connection",
    "_Outstanding": "per-connection",
    "ChunkTransportSender": "per-connection",
    "ChunkTransportReceiver": "per-connection",
    "ReceiverEvents": "per-connection",
    "_TpduRecord": "per-connection",
    # transport — per-shard (one worker owns each of these outright;
    # the sharded composition never reaches into them except through
    # declared seams)
    "ChunkEndpoint": "per-shard",
    "ConnectionTable": "per-shard",
    "EndpointEvents": "per-shard",
    "EndpointShard": "per-shard",
    # transport — per-endpoint (the sharded composition, and the
    # packer every shard's sessions enqueue into; a plain endpoint's
    # one-lane packer is the same class, placed at its widest use)
    "ShardedEndpoint": "per-endpoint",
    "EgressPacker": "per-endpoint",
    # host — per-connection
    "PlacementBuffer": "per-connection",
    "FrameStore": "per-connection",
    "TouchLedger": "per-connection",
    "DeliveryEvent": "per-connection",
    "_TpduBuffer": "per-connection",
    # host — per-endpoint
    "HostReceiver": "per-endpoint",
    "ImmediateReceiver": "per-endpoint",
    "ReorderReceiver": "per-endpoint",
    "ReassembleReceiver": "per-endpoint",
    "PerPacketNic": "per-endpoint",
    "PerPduNic": "per-endpoint",
    "BusModel": "per-endpoint",
    "ProcessingUnit": "per-endpoint",
    "TypeDemux": "per-endpoint",
    "WordFunction": "per-endpoint",
    "IlpResult": "per-endpoint",
    # host — per-shard
    "ShardBudget": "per-shard",
    # shared pools
    "SharedPlacementBudget": "global-pool",
    "GlobalBudgetPool": "global-pool",
    # externally-defined types reachable from transport/host fields
    "EventLoop": "per-shard",
    "ShardedLoop": "per-endpoint",
    "BoundedSet": "per-shard",
}

#: Declared seams: the sanctioned cross-domain mutation channels.
SEAM_METHODS: frozenset[tuple[str, str]] = frozenset(
    {
        ("SharedPlacementBudget", "register"),
        ("SharedPlacementBudget", "reserve"),
        ("SharedPlacementBudget", "release"),
        ("SharedPlacementBudget", "release_bytes"),
        ("GlobalBudgetPool", "lend"),
        ("GlobalBudgetPool", "reclaim"),
        ("EgressPacker", "enqueue"),
        ("EventLoop", "schedule"),
        ("EventLoop", "at"),
    }
)

#: Method names that mutate their receiver: the container mutators plus
#: this pass's domain verbs (heap push, pool lend / reclaim).
MUTATOR_METHODS: frozenset[str] = CONTAINER_MUTATORS | {"push", "lend", "reclaim"}

#: Constructor names producing module-level mutables.
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "deque", "defaultdict", "OrderedDict"})

#: ``# owner: per-endpoint``
_OWNER_RE = re.compile(
    r"#\s*owner:\s*(per-connection|per-shard|per-endpoint|global-pool)"
)

#: Base-class names marking a class as non-mutable-state (skipped).
_SKIP_BASES = ("Enum", "Protocol", "Exception", "Error", "NamedTuple", "ABC")


def _annotation_class(node: ast.expr | None) -> str | None:
    """Leading class name of an annotation (``X | None`` → ``X``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        head = text.split("|")[0].strip()
        head = head.split("[")[0].strip()
        return head.split(".")[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp):
        return _annotation_class(node.left)
    if isinstance(node, ast.Subscript):
        return _annotation_class(node.value)
    return None


def _root_and_chain(expr: ast.expr) -> tuple[str, list[str]] | None:
    """``obj.a.b`` → ``("obj", ["a", "b"])``; None for non-chains."""
    chain: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.reverse()
        return node.id, chain
    return None


def _owner_comment(lines: list[str], lineno: int) -> str | None:
    if 1 <= lineno <= len(lines):
        match = _OWNER_RE.search(lines[lineno - 1])
        if match:
            return match.group(1)
    return None


def _is_skipped_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if any(marker in name for marker in _SKIP_BASES):
            return True
    return False


class ShardOwnershipPass(Pass):
    id = "shard-ownership"
    description = "mutations stay inside their declared owner domain (or a seam)"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if package_of(unit.module) not in {"transport", "host"}:
            return
        lines = unit.source.splitlines()

        classes = [n for n in unit.tree.body if isinstance(n, ast.ClassDef)]
        placements: dict[str, str] = dict(OWNER_DOMAINS)
        for node in classes:
            comment = _owner_comment(lines, node.lineno)
            if comment is not None:
                placements[node.name] = comment

        # Field type maps (class -> field -> class name) for chain
        # resolution, from class-body and __init__ annotations plus
        # direct constructor assigns.
        known = set(placements)
        fields: dict[str, dict[str, str]] = {}
        for node in classes:
            field_types: dict[str, str] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    cls = _annotation_class(stmt.annotation)
                    if cls is not None:
                        field_types[stmt.target.id] = cls
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                params = {
                    a.arg: _annotation_class(a.annotation)
                    for a in [
                        *method.args.posonlyargs,
                        *method.args.args,
                        *method.args.kwonlyargs,
                    ]
                }
                for stmt in ast.walk(method):
                    target: ast.expr | None = None
                    cls = None
                    if isinstance(stmt, ast.AnnAssign):
                        target = stmt.target
                        cls = _annotation_class(stmt.annotation)
                    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target = stmt.targets[0]
                        value = stmt.value
                        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                            if value.func.id in known:
                                cls = value.func.id
                        elif isinstance(value, ast.Name):
                            cls = params.get(value.id)
                    if (
                        cls is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        field_types.setdefault(target.attr, cls)
            fields[node.name] = field_types

        # Module-level helper functions and which parameters they mutate.
        helpers = {
            n.name: n
            for n in unit.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        mutated_params = self._helper_mutations(helpers)

        # Unplaced classes.
        for node in classes:
            if node.name in placements or _is_skipped_class(node):
                continue
            yield self.finding(
                unit,
                node.lineno,
                f"class {node.name} holds mutable transport/host state but "
                "has no owner domain — add it to OWNER_DOMAINS or mark the "
                "class with `# owner: "
                "per-connection|per-shard|per-endpoint|global-pool`",
                symbol=f"unplaced-class:{node.name}",
            )

        # Cross-domain mutations inside placed classes.
        for node in classes:
            domain = placements.get(node.name)
            if domain is None:
                continue
            rank = DOMAIN_RANK[domain]
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                env = self._method_env(node.name, method)
                yield from self._check_method(
                    unit, node.name, rank, method, env, placements, fields,
                    mutated_params,
                )

        # Module-level mutables need a declared owner.
        for stmt in unit.tree.body:
            target = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                continue
            is_mutable = isinstance(value, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_CTORS
            )
            if is_mutable and _owner_comment(lines, stmt.lineno) is None:
                yield self.finding(
                    unit,
                    stmt.lineno,
                    f"module-level mutable {name} has no declared owner "
                    "domain — mark the assignment with `# owner: "
                    "per-connection|per-shard|per-endpoint|global-pool`",
                    symbol=f"unowned-module-mutable:{name}",
                )

    # ------------------------------------------------------------------
    def _method_env(
        self, class_name: str, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Variable name -> class name, from self + annotated params."""
        env: dict[str, str] = {"self": class_name}
        args = method.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            cls = _annotation_class(arg.annotation)
            if cls is not None:
                env.setdefault(arg.arg, cls)
        return env

    def _chain_class(
        self,
        expr: ast.expr,
        env: dict[str, str],
        fields: dict[str, dict[str, str]],
    ) -> str | None:
        """Class name an attribute chain resolves to, or None."""
        parsed = _root_and_chain(expr)
        if parsed is None:
            return None
        root, chain = parsed
        cls = env.get(root)
        for attr in chain:
            if cls is None:
                return None
            cls = fields.get(cls, {}).get(attr)
        return cls

    def _domain_rank(self, cls: str | None, placements: dict[str, str]) -> int | None:
        if cls is None:
            return None
        domain = placements.get(cls)
        if domain is None:
            return None
        return DOMAIN_RANK[domain]

    def _helper_mutations(
        self,
        helpers: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> dict[str, set[int]]:
        """Helper name -> positional indices of parameters it mutates
        (directly, or by forwarding to another mutating helper)."""
        positions: dict[str, list[str]] = {}
        for name, func in helpers.items():
            args = func.args
            positions[name] = [a.arg for a in [*args.posonlyargs, *args.args]]

        mutated: dict[str, set[int]] = {name: set() for name in helpers}

        def direct(func: ast.FunctionDef | ast.AsyncFunctionDef, params: list[str]) -> set[int]:
            out: set[int] = set()
            for stmt in ast.walk(func):
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        parsed = _root_and_chain(
                            target.value if isinstance(target, ast.Subscript) else target
                        )
                        if parsed is not None and parsed[0] in params:
                            out.add(params.index(parsed[0]))
                if (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr in MUTATOR_METHODS
                ):
                    parsed = _root_and_chain(stmt.value.func.value)
                    if parsed is not None and parsed[0] in params:
                        out.add(params.index(parsed[0]))
            return out

        for name, func in helpers.items():
            mutated[name] = direct(func, positions[name])

        # One bounded fixpoint: forwarding a param into a mutating
        # helper position mutates it too.
        for _ in range(len(helpers)):
            changed = False
            for name, func in helpers.items():
                params = positions[name]
                for call in ast.walk(func):
                    if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
                        continue
                    callee = call.func.id
                    if callee not in mutated:
                        continue
                    for index, arg in enumerate(call.args):
                        if (
                            isinstance(arg, ast.Name)
                            and arg.id in params
                            and index in mutated[callee]
                            and params.index(arg.id) not in mutated[name]
                        ):
                            mutated[name].add(params.index(arg.id))
                            changed = True
            if not changed:
                break
        return mutated

    def _check_method(
        self,
        unit: ModuleUnit,
        class_name: str,
        rank: int,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        env: dict[str, str],
        placements: dict[str, str],
        fields: dict[str, dict[str, str]],
        mutated_params: dict[str, set[int]],
    ) -> Iterator[Finding]:
        qual = f"{class_name}.{method.name}"
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                cls = self._chain_class(target.value, env, fields)
                base_rank = self._domain_rank(cls, placements)
                if base_rank is not None and base_rank > rank:
                    yield self.finding(
                        unit,
                        node.lineno,
                        f"{qual} ({placements[class_name]}) stores into "
                        f"{cls} state ({placements[cls or '']}) — a "
                        "cross-domain mutation outside every declared seam",
                        symbol=f"cross-domain-store:{qual}:{node.lineno}",
                    )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                cls = self._chain_class(func.value, env, fields)
                base_rank = self._domain_rank(cls, placements)
                if (
                    base_rank is not None
                    and base_rank > rank
                    and (cls, func.attr) not in SEAM_METHODS
                ):
                    yield self.finding(
                        unit,
                        node.lineno,
                        f"{qual} ({placements[class_name]}) calls "
                        f".{func.attr}() on {cls} state "
                        f"({placements[cls or '']}) — a cross-domain "
                        "mutation outside every declared seam",
                        symbol=f"cross-domain-call:{qual}:{node.lineno}",
                    )
            # Laundered: wider-domain object passed into a helper that
            # mutates the corresponding parameter.
            if isinstance(func, ast.Name):
                indices = mutated_params.get(func.id, set())
                for index, arg in enumerate(node.args):
                    if index not in indices:
                        continue
                    cls = self._chain_class(arg, env, fields)
                    base_rank = self._domain_rank(cls, placements)
                    if base_rank is not None and base_rank > rank:
                        yield self.finding(
                            unit,
                            node.lineno,
                            f"{qual} ({placements[class_name]}) passes "
                            f"{cls} state ({placements[cls or '']}) into "
                            f"helper {func.id}(), which mutates it — a "
                            "cross-domain mutation laundered through a call",
                            symbol=f"laundered-mutation:{qual}:{func.id}",
                        )
