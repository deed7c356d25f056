"""Growing binary trees: the growth process, statistics, and serialization.

A growing binary tree starts as a single anchor, step 0. One growth step
replaces every anchor, in left-to-right order: an anchor either dies and
becomes a dead leaf, or branches and becomes an internal node carrying two
fresh anchors. All anchors created at step s sit at depth s, so the anchors
always occupy exactly the deepest level of the tree. A tree with no anchors
left is inactive and never evolves again.

Bookkeeping identities maintained by the process, with n internal nodes,
m anchors and l dead leaves:

    l = n - m + 1                       (every node has 0 or 2 children)
    m even whenever step >= 1 and m > 0 (anchors are created in pairs)
    h <= n - k + 1 <= 2^{h-1}           (active tree, k = m/2, height h)

Freezing a growing tree turns every anchor and dead leaf into an ordinary
leaf and forgets the step counter; the result is a classical plane binary
tree in which every internal node has exactly two children. Growing and
frozen trees share one flat layout, `Tree`: a kind code per node and two
child-index arrays, with the (left, right) order significant. Trees built
here number their nodes in level order: the root is node 0, then each depth
from left to right. For a grown tree this is the order in which the process
created its nodes, so the anchors are the last nodes and a growth step
appends. Equal shapes with equal kinds compare equal. Every traversal is
iterative, so depth is limited only by memory.

Serialization formats:
  JSON  leaf = {"leaf": true}; internal = {"l": ..., "r": ...}. Growing-tree
        nodes carry "kind" ("internal" | "anchor" | "dead_leaf") instead, and
        the top-level document is {"step": s, "tree": node} so the step
        counter round-trips. to_json writes trees of any depth, but from_json
        reads through the standard json parser and rejects documents nested
        deeper than its limit (about 1,000 levels).
  DOT   internal nodes as filled circles, dead leaves (and frozen leaves) as
        squares, anchors as hollow circles; edge order is left, right.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum
from itertools import compress

from .profiles import Profile


class NodeKind(IntEnum):
    INTERNAL = 0
    ANCHOR = 1
    DEAD_LEAF = 2
    LEAF = 3


class GrowthChoice(Enum):
    DIE = "die"
    BRANCH = "branch"


# Plain-int kind codes for the traversal loops.
INTERNAL, ANCHOR, DEAD_LEAF, LEAF = (int(k) for k in NodeKind)


@dataclass(frozen=True, slots=True)
class Tree:
    """Immutable binary tree in flat form, growing or frozen.

    nodes[i] is the NodeKind code of node i; left[i] and right[i] are its
    children, -1 for none. step is the growth-step counter of a growing tree
    and None for a frozen tree, whose leaves are all LEAF.
    """

    nodes: bytes
    left: tuple[int, ...]
    right: tuple[int, ...]
    root: int
    step: int | None = None

    @property
    def anchor_count(self) -> int:
        return self.nodes.count(ANCHOR)

    @property
    def is_active(self) -> bool:
        return ANCHOR in self.nodes

    @property
    def internal_count(self) -> int:
        return self.nodes.count(INTERNAL)

    @property
    def leaf_count(self) -> int:
        return len(self.nodes) - self.nodes.count(INTERNAL)


@dataclass(frozen=True)
class TreeStats:
    """Counts of a growing tree: internal n, anchors m, dead leaves ell, height h."""

    n: int
    m: int
    ell: int
    h: int


def new_seed() -> Tree:
    """The starting state: a single anchor, zero steps applied."""
    return Tree(bytes((ANCHOR,)), (-1,), (-1,), 0, 0)


def _preorder(t: Tree) -> list[int]:
    """Node indices in document order: each node before its subtrees, the
    left subtree before the right."""
    left, right = t.left, t.right
    order = []
    stack = [t.root]
    while stack:
        i = stack.pop()
        order.append(i)
        if left[i] >= 0:
            stack.append(right[i])
            stack.append(left[i])
    return order


def _levels(t: Tree) -> list[list[int]]:
    """The node ids of each depth, left to right, from the root down."""
    left, right = t.left, t.right
    levels = [[t.root]]
    while True:
        below = [c for i in levels[-1] if left[i] >= 0 for c in (left[i], right[i])]
        if not below:
            return levels
        levels.append(below)


# Translation table: INTERNAL -> 1, every other kind -> 0.
_IS_INTERNAL = bytes.maketrans(bytes((INTERNAL, ANCHOR, DEAD_LEAF, LEAF)), bytes((1, 0, 0, 0)))


def _in_level_order(t: Tree) -> bool:
    """True iff t is numbered in level order: the root is 0 and the children
    of the internal nodes, read in index order, are 1, 2, ..., n - 1."""
    n = len(t.nodes)
    internal = t.nodes.translate(_IS_INTERNAL)
    return (
        t.root == 0
        and list(compress(t.left, internal)) == list(range(1, n, 2))
        and list(compress(t.right, internal)) == list(range(2, n, 2))
    )


def _relabel(t: Tree) -> Tree:
    """The same tree renumbered in level order."""
    order = [i for level in _levels(t) for i in level]
    new = [-1] * len(t.nodes)
    for k, i in enumerate(order):
        new[i] = k
    new.append(-1)  # new[-1]: a missing child stays missing
    left, right = t.left, t.right
    return Tree(
        bytes([t.nodes[i] for i in order]),
        tuple([new[left[i]] for i in order]),
        tuple([new[right[i]] for i in order]),
        0,
        t.step,
    )


def grow_step(t: Tree, choices: list[GrowthChoice] | tuple[GrowthChoice, ...]) -> Tree:
    """Apply one growth step, consuming one choice per anchor, left to right.

    Die turns the anchor into a dead leaf; Branch turns it into an internal
    node with two fresh anchors. The choice list length must equal the
    anchor count and the tree must be active.

    In level order the anchors of a growing tree, which all sit on the
    deepest level, are its last m nodes, left to right, so the step keeps
    the other nodes as they are and appends the fresh anchors. A tree
    numbered otherwise is relabelled first. Anchors that are not the last
    nodes in level order raise ValueError; the anchor depths are not
    checked further (validate_growing does that).
    """
    m = t.nodes.count(ANCHOR)
    if m == 0:
        raise ValueError("no anchors: the tree is inactive and cannot grow")
    if len(choices) != m:
        raise ValueError(f"choice arity: tree has {m} anchors, got {len(choices)} choices")
    if not _in_level_order(t):
        t = _relabel(t)
    n = len(t.nodes)
    kept = n - m
    if t.nodes.find(ANCHOR) != kept:
        raise ValueError("anchors are not the last nodes in level order: not a growing tree")
    kinds = bytearray()
    left: list[int] = []
    right: list[int] = []
    fresh = n
    branch, die = GrowthChoice.BRANCH, GrowthChoice.DIE  # enum attribute lookups are slow
    for position, choice in enumerate(choices):
        if choice is branch:
            kinds.append(INTERNAL)
            left.append(fresh)
            right.append(fresh + 1)
            fresh += 2
        elif choice is die:
            kinds.append(DEAD_LEAF)
            left.append(-1)
            right.append(-1)
        else:
            raise ValueError(f"choice {position}: {choice!r} is not a GrowthChoice")
    born = fresh - n
    kinds += bytes((ANCHOR,)) * born
    left += (-1,) * born
    right += (-1,) * born
    return Tree(t.nodes[:kept] + kinds, t.left[:kept] + tuple(left), t.right[:kept] + tuple(right), 0, t.step + 1)


def grow_history(choices_per_step: list[list[GrowthChoice]]) -> Tree:
    """Replay a whole choice history from the seed."""
    t = new_seed()
    for step_choices in choices_per_step:
        t = grow_step(t, step_choices)
    return t


def stats(t: Tree) -> TreeStats:
    """Node counts and height (edge distance from root to a deepest node).

    A frozen tree has no anchors; its leaves count as ell.
    """
    n = t.nodes.count(INTERNAL)
    m = t.nodes.count(ANCHOR)
    return TreeStats(n=n, m=m, ell=len(t.nodes) - n - m, h=len(_levels(t)) - 1)


def validate_growing(t: Tree) -> None:
    """Check the structural invariants, raising ValueError with a node index.

    Verified: a growing tree (step set), child indices in range, internal
    nodes have both children and leaves none, only growing-tree kinds, every
    node reachable from the root exactly once, anchors all at depth equal to
    the step counter, and an even anchor count for active trees past step 0.
    """
    size = len(t.nodes)
    if t.step is None:
        raise ValueError("frozen tree: no growth state to validate")
    if len(t.left) != size or len(t.right) != size:
        raise ValueError("node, left and right arrays differ in length")
    if not 0 <= t.root < size:
        raise ValueError(f"root index {t.root} out of range")
    if t.step < 0:
        raise ValueError(f"negative step counter {t.step}")
    seen = [False] * size
    anchor_depths = set()
    m = 0
    stack = [(t.root, 0)]
    while stack:
        i, depth = stack.pop()
        if not 0 <= i < size:
            raise ValueError(f"node index {i} out of range")
        if seen[i]:
            raise ValueError(f"node {i}: visited twice, not a tree")
        seen[i] = True
        kind, left, right = t.nodes[i], t.left[i], t.right[i]
        if kind == INTERNAL:
            if left < 0 or right < 0:
                raise ValueError(f"node {i}: internal node missing a child")
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
        elif kind == ANCHOR or kind == DEAD_LEAF:
            if left != -1 or right != -1:
                raise ValueError(f"node {i}: leaf node with children")
            if kind == ANCHOR:
                m += 1
                anchor_depths.add(depth)
        else:
            raise ValueError(f"node {i}: kind code {kind} is not a growing-tree kind")
    if not all(seen):
        unreachable = seen.index(False)
        raise ValueError(f"node {unreachable}: unreachable from root")
    if anchor_depths and anchor_depths != {t.step}:
        raise ValueError(f"anchors at depths {sorted(anchor_depths)}, expected all at step {t.step}")
    if t.step >= 1 and m % 2 != 0:
        raise ValueError(f"odd anchor count {m} at step {t.step}")


_FREEZE = bytes.maketrans(bytes((ANCHOR, DEAD_LEAF)), bytes((LEAF, LEAF)))
_UNFREEZE = bytes.maketrans(bytes((ANCHOR, LEAF)), bytes((DEAD_LEAF, DEAD_LEAF)))


def freeze(t: Tree) -> Tree:
    """Forget the growth state: anchors and dead leaves both become leaves."""
    return Tree(t.nodes.translate(_FREEZE), t.left, t.right, t.root, None)


def unfreeze(bt: Tree) -> Tree:
    """The unique active growing tree whose frozen shape is bt.

    In an active tree every deepest node is an anchor and every anchor is at
    the deepest level, so the growth state is forced by the shape: deepest
    leaves become anchors, shallower leaves dead ones, and the step counter
    is the height. Inverse of freeze on active trees.
    """
    levels = _levels(bt)
    nodes = bytearray(bt.nodes.translate(_UNFREEZE))
    for i in levels[-1]:
        nodes[i] = ANCHOR
    return Tree(bytes(nodes), bt.left, bt.right, bt.root, len(levels) - 1)


def profile(bt: Tree) -> Profile:
    """Leaf counts per depth; the deepest level of any binary tree holds leaves.

    Every internal node has two children, so the leaves at depth d number
    len(level d) - len(level d + 1) / 2.
    """
    sizes = [len(level) for level in _levels(bt)] + [0]
    return Profile(tuple(size - below // 2 for size, below in zip(sizes, sizes[1:])))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Per-kind JSON text, indexed by kind code: an internal node's entry opens its
# object, and its children follow; a leaf's entry is the whole object.
_JSON_GROWING = ('{"kind":"internal","l":', '{"kind":"anchor"}', '{"kind":"dead_leaf"}', None)
_JSON_FROZEN = ('{"l":', None, None, '{"leaf":true}')
_KIND_OF_NAME = {"internal": INTERNAL, "anchor": ANCHOR, "dead_leaf": DEAD_LEAF}


def to_json(tree: Tree) -> str:
    """Compact JSON text of any depth; see the module docstring for the schema."""
    text = _JSON_FROZEN if tree.step is None else _JSON_GROWING
    nodes, left, right = tree.nodes, tree.left, tree.right
    out = []
    stack: list[int | str] = [tree.root]
    while stack:
        i = stack.pop()
        if isinstance(i, str):
            out.append(i)
            continue
        out.append(text[nodes[i]])
        if nodes[i] == INTERNAL:
            stack += ("}", right[i], ',"r":', left[i])
    body = "".join(out)
    return body if tree.step is None else f'{{"step":{tree.step},"tree":{body}}}'


def from_json(text: str) -> Tree:
    """Parse a tree document, validating structure and invariants.

    Binary trees are bare node objects; growing trees are wrapped as
    {"step": s, "tree": node}. Node indices in error messages count nodes in
    level order (the root, then each depth from left to right), which is
    also each node's index in the returned Tree. Documents nested deeper
    than the json parser's limit (about 1,000 levels) raise ValueError,
    although to_json writes them.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed tree document: {exc}") from None
    except RecursionError:
        raise ValueError("tree document nested too deeply for the json parser") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed tree document: top level must be an object")
    if "step" not in doc:
        return _tree_from_obj(doc, _frozen_kind, None)
    step = doc.get("step")
    if type(step) is not int or step < 0:  # bool is an int subclass
        raise ValueError("growing tree: step must be a nonnegative integer")
    if "tree" not in doc:
        raise ValueError("growing tree: missing tree field")
    if len(doc) != 2:
        raise ValueError("growing tree: extra keys besides step and tree")
    tree = _tree_from_obj(doc["tree"], _growing_kind, step)
    validate_growing(tree)
    return tree


def _frozen_kind(obj: dict, index: int) -> int:
    if obj.get("leaf") is True:
        if len(obj) != 1:
            raise ValueError(f"node {index}: leaf object with extra keys")
        return LEAF
    if "l" in obj and "r" in obj:
        if len(obj) != 2:
            raise ValueError(f"node {index}: internal object with extra keys")
        return INTERNAL
    raise ValueError(f"node {index}: need either leaf=true or both l and r")


def _growing_kind(obj: dict, index: int) -> int:
    name = obj.get("kind")
    kind = _KIND_OF_NAME.get(name) if isinstance(name, str) else None
    if kind is None:
        raise ValueError(f"node {index}: unknown kind {name!r}")
    if kind == INTERNAL:
        if "l" not in obj or "r" not in obj:
            raise ValueError(f"node {index}: internal node needs l and r")
    elif "l" in obj or "r" in obj:
        raise ValueError(f"node {index}: {name} node cannot have children")
    if len(obj) != (3 if kind == INTERNAL else 1):
        raise ValueError(f"node {index}: {name} node with extra keys")
    return kind


def _tree_from_obj(top: object, kind_of, step: int | None) -> Tree:
    """Number parsed nodes in level order, checking each as it is numbered."""
    queue = deque([top])  # parsed, not yet numbered; they take the next ids in order
    kinds = bytearray()
    left: list[int] = []
    right: list[int] = []
    while queue:
        obj = queue.popleft()
        index = len(kinds)
        if not isinstance(obj, dict):
            raise ValueError(f"node {index}: expected an object")
        kind = kind_of(obj, index)
        kinds.append(kind)
        if kind == INTERNAL:
            child = index + 1 + len(queue)
            left.append(child)
            right.append(child + 1)
            queue += (obj["l"], obj["r"])
        else:
            left.append(-1)
            right.append(-1)
    return Tree(bytes(kinds), tuple(left), tuple(right), 0, step)


_SQUARE = 'shape=square, style=filled, fillcolor=black, label="", width=0.18'
_DOT_STYLES = (  # indexed by kind code
    'shape=circle, style=filled, fillcolor=black, label="", width=0.2',
    'shape=circle, label="", width=0.2',
    _SQUARE,
    _SQUARE,
)


def to_dot(tree: Tree) -> str:
    """Graphviz digraph; node shapes encode the kinds (see module docstring)."""
    order = _preorder(tree)
    lines = ["digraph tree {", "  ordering=out;"]
    lines += [f"  n{i} [{_DOT_STYLES[tree.nodes[i]]}];" for i in order]
    for i in order:
        if tree.left[i] >= 0:
            lines.append(f"  n{i} -> n{tree.left[i]};")
            lines.append(f"  n{i} -> n{tree.right[i]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
