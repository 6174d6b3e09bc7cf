"""The SIL heap: a store of binary-tree nodes.

Each node has an integer ``value`` field and two link fields ``left`` and
``right`` (Section 3.1 of the paper).  The heap records access statistics
(allocations, field reads, field writes) which feed the execution trace and
the cost model, and provides helpers for building and inspecting linked
structures from Python (used heavily by tests, examples and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..sil.ast import Field
from ..sil.errors import SilRuntimeError
from .values import HandleValue, NodeRef


@dataclass
class Node:
    """One heap node."""

    node_id: int
    value: int = 0
    left: HandleValue = None
    right: HandleValue = None

    def get_link(self, field_name: Field) -> HandleValue:
        if field_name is Field.LEFT:
            return self.left
        if field_name is Field.RIGHT:
            return self.right
        raise ValueError(f"{field_name} is not a link field")

    def set_link(self, field_name: Field, value: HandleValue) -> None:
        if field_name is Field.LEFT:
            self.left = value
        elif field_name is Field.RIGHT:
            self.right = value
        else:
            raise ValueError(f"{field_name} is not a link field")


#: Nested-tuple description of a tree: ``None`` for nil, an int for a leaf
#: node ``(value, nil, nil)``, or ``(value, left, right)``.
TreeSpec = Union[None, int, Tuple[int, "TreeSpec", "TreeSpec"]]


class Heap:
    """A growable store of :class:`Node` objects."""

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._next_id = 1
        self.alloc_count = 0
        self.read_count = 0
        self.write_count = 0

    # ------------------------------------------------------------------
    # Allocation and access
    # ------------------------------------------------------------------

    def allocate(self, value: int = 0) -> NodeRef:
        """Allocate a fresh node (SIL ``new()``); fields start as 0/nil."""
        ref = NodeRef(self._next_id)
        self._nodes[self._next_id] = Node(node_id=self._next_id, value=value)
        self._next_id += 1
        self.alloc_count += 1
        return ref

    def node(self, ref: HandleValue) -> Node:
        """The node named by ``ref``; raises on nil or dangling references."""
        if ref is None:
            raise SilRuntimeError("nil handle dereferenced")
        try:
            return self._nodes[ref.node_id]
        except KeyError:
            raise SilRuntimeError(f"dangling handle {ref!r}") from None

    def contains(self, ref: HandleValue) -> bool:
        return ref is not None and ref.node_id in self._nodes

    def read_link(self, ref: HandleValue, field_name: Field) -> HandleValue:
        self.read_count += 1
        return self.node(ref).get_link(field_name)

    def write_link(self, ref: HandleValue, field_name: Field, value: HandleValue) -> None:
        self.write_count += 1
        self.node(ref).set_link(field_name, value)

    def read_value(self, ref: HandleValue) -> int:
        self.read_count += 1
        return self.node(ref).value

    def write_value(self, ref: HandleValue, value: int) -> None:
        self.write_count += 1
        self.node(ref).value = value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def refs(self) -> List[NodeRef]:
        """References to every live node."""
        return [NodeRef(node_id) for node_id in self._nodes]

    def reachable_from(self, roots: Iterable[HandleValue]) -> List[NodeRef]:
        """Every node reachable from ``roots`` following left/right links."""
        seen: Dict[int, NodeRef] = {}
        stack: List[NodeRef] = [r for r in roots if r is not None]
        while stack:
            ref = stack.pop()
            if ref.node_id in seen or ref.node_id not in self._nodes:
                continue
            seen[ref.node_id] = ref
            node = self._nodes[ref.node_id]
            for child in (node.left, node.right):
                if child is not None and child.node_id not in seen:
                    stack.append(child)
        return list(seen.values())

    def parents(self) -> Dict[int, List[int]]:
        """Map from node id to the ids of its parents (nodes linking to it)."""
        result: Dict[int, List[int]] = {node_id: [] for node_id in self._nodes}
        for node in self._nodes.values():
            for child in (node.left, node.right):
                if child is not None and child.node_id in result:
                    result[child.node_id].append(node.node_id)
        return result

    # ------------------------------------------------------------------
    # Construction / extraction helpers
    # ------------------------------------------------------------------

    def build(self, spec: TreeSpec) -> HandleValue:
        """Build a tree from a nested-tuple :data:`TreeSpec` and return its root."""
        if spec is None:
            return None
        if isinstance(spec, int):
            return self.allocate(spec)
        value, left_spec, right_spec = spec
        ref = self.allocate(value)
        node = self.node(ref)
        node.left = self.build(left_spec)
        node.right = self.build(right_spec)
        return ref

    def extract(self, ref: HandleValue, max_nodes: int = 100_000) -> TreeSpec:
        """Extract the tree rooted at ``ref`` back into a nested-tuple spec.

        Raises :class:`SilRuntimeError` if the structure is cyclic (cycle
        detection via the visiting stack) or larger than ``max_nodes``.
        """
        count = 0

        def go(current: HandleValue, on_stack: frozenset) -> TreeSpec:
            nonlocal count
            if current is None:
                return None
            if current.node_id in on_stack:
                raise SilRuntimeError("cannot extract a cyclic structure")
            count += 1
            if count > max_nodes:
                raise SilRuntimeError(f"structure larger than {max_nodes} nodes")
            node = self.node(current)
            new_stack = on_stack | {current.node_id}
            left = go(node.left, new_stack)
            right = go(node.right, new_stack)
            if left is None and right is None:
                return node.value
            return (node.value, left, right)

        return go(ref, frozenset())

    def build_full_tree(
        self, depth: int, value_fn: Optional[Callable[[int], int]] = None
    ) -> HandleValue:
        """Build a complete binary tree of the given depth.

        ``depth=0`` gives ``nil``; ``depth=1`` a single node.  ``value_fn``
        maps a pre-order index to the node's value (default: the index).
        """
        counter = [0]

        def go(d: int) -> HandleValue:
            if d <= 0:
                return None
            index = counter[0]
            counter[0] += 1
            ref = self.allocate(value_fn(index) if value_fn is not None else index)
            node = self.node(ref)
            node.left = go(d - 1)
            node.right = go(d - 1)
            return ref

        return go(depth)

    def build_list(self, values: Sequence[int]) -> HandleValue:
        """Build a right-skewed 'linked list' (left children all nil)."""
        root: HandleValue = None
        for value in reversed(values):
            ref = self.allocate(value)
            self.node(ref).right = root
            root = ref
        return root

    def values_inorder(self, ref: HandleValue) -> List[int]:
        """In-order traversal of the values of the tree rooted at ``ref``."""
        result: List[int] = []

        def go(current: HandleValue, on_stack: frozenset) -> None:
            if current is None:
                return
            if current.node_id in on_stack:
                raise SilRuntimeError("cannot traverse a cyclic structure")
            node = self.node(current)
            new_stack = on_stack | {current.node_id}
            go(node.left, new_stack)
            result.append(node.value)
            go(node.right, new_stack)

        go(ref, frozenset())
        return result

    def values_preorder(self, ref: HandleValue) -> List[int]:
        """Pre-order traversal of the values of the tree rooted at ``ref``."""
        result: List[int] = []

        def go(current: HandleValue, on_stack: frozenset) -> None:
            if current is None:
                return
            if current.node_id in on_stack:
                raise SilRuntimeError("cannot traverse a cyclic structure")
            node = self.node(current)
            result.append(node.value)
            new_stack = on_stack | {current.node_id}
            go(node.left, new_stack)
            go(node.right, new_stack)

        go(ref, frozenset())
        return result

    def height(self, ref: HandleValue) -> int:
        """Height of the tree rooted at ``ref`` (nil has height 0)."""

        def go(current: HandleValue, on_stack: frozenset) -> int:
            if current is None:
                return 0
            if current.node_id in on_stack:
                raise SilRuntimeError("cannot measure a cyclic structure")
            node = self.node(current)
            new_stack = on_stack | {current.node_id}
            return 1 + max(go(node.left, new_stack), go(node.right, new_stack))

        return go(ref, frozenset())
