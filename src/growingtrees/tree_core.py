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
frozen trees share one flat layout, `Tree`: the kind code of each node, in
level order (the root is node 0, then each depth from left to right). That
string is the whole shape: the k-th internal node (k from 0) has the left
child 2k+1 and the right child 2k+2, so depth d + 1 holds two nodes per
internal node of depth d, and a string is a tree exactly when it closes,
its last node filling the last open child slot. For a grown tree level
order is the order in which the process created its nodes, so the anchors
are the last nodes and a growth step appends. Equal shapes with equal kinds
compare equal. Every traversal is iterative, so depth is limited only by
memory.

Serialization formats:
  JSON  leaf = {"leaf": true}; internal = {"l": ..., "r": ...}. Growing-tree
        nodes carry "kind" ("internal" | "anchor" | "dead_leaf") instead, and
        the top-level document is {"step": s, "tree": node} so the step
        counter round-trips. to_json writes trees of any depth, and
        from_json reads its text back at any depth. Other layouts of the
        same document (whitespace, key order) go through the standard json
        parser, which rejects documents nested deeper than its limit (about
        1,000 levels).
  DOT   internal nodes as filled circles, dead leaves (and frozen leaves) as
        squares, anchors as hollow circles; edge order is left, right.
"""

from __future__ import annotations

from collections import deque
from enum import Enum, IntEnum
from itertools import accumulate

from ._record import Record
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


class Tree(Record):
    """Immutable binary tree as its kind string, growing or frozen.

    nodes[i] is the NodeKind code of node i, in level order: the root is
    node 0, then each depth from left to right. The k-th internal node, in
    that order, has the children 2k+1 (left) and 2k+2 (right), so the kind
    string alone fixes the shape. step is the growth-step counter of a
    growing tree and None for a frozen tree, whose leaves are all LEAF.
    """

    __slots__ = ("nodes", "step")
    nodes: bytes
    step: int | None

    def __init__(self, nodes: bytes, step: int | None = None) -> None:
        # Built on every growth step and every sample: no generic binding.
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "step", step)

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


class TreeStats(Record):
    """Counts of a growing tree: internal n, anchors m, dead leaves ell, height h."""

    __slots__ = ("n", "m", "ell", "h")
    n: int
    m: int
    ell: int
    h: int


def new_seed() -> Tree:
    """The starting state: a single anchor, zero steps applied."""
    return Tree(bytes((ANCHOR,)), 0)


# Translation table: INTERNAL -> 2, every other kind -> 0.
_TWO_IF_INTERNAL = bytes.maketrans(bytes((INTERNAL, ANCHOR, DEAD_LEAF, LEAF)), bytes((2, 0, 0, 0)))


def _right_children(nodes: bytes) -> list[int]:
    """Entry i is the right child of node i when it is internal; the left
    child is the node before that. The k-th internal node (k counted from 1)
    has the children 2k - 1 and 2k, and 2k is the running sum of 2 per
    internal node up to node i. Entries of leaves mean nothing."""
    return list(accumulate(nodes.translate(_TWO_IF_INTERNAL)))


def _depth_bounds(nodes: bytes) -> list[int]:
    """Where each depth starts, from the root down, then where the tree ends,
    len(nodes); ValueError naming the node at fault when the kind string
    does not close.

    Depth d + 1 holds the two children of each internal node of depth d, so
    its size is twice the internal count of depth d's slice. The walk stops
    at a depth with no internal node, or once the bounds pass the end of
    nodes; the string closes exactly when the last bound is then len(nodes).
    """
    bounds = [0, 1]
    while bounds[-1] <= len(nodes):
        below = 2 * nodes.count(INTERNAL, bounds[-2], bounds[-1])
        if not below:
            break
        bounds.append(bounds[-1] + below)
    size, end = len(nodes), bounds[-1]
    if end < size:
        raise _past_the_end(end)
    if end > size:
        raise _open_slots(size)
    return bounds


def _past_the_end(end: int) -> ValueError:
    return ValueError(f"node {end}: past the end of the tree, which closes at node {end - 1}")


def _open_slots(size: int) -> ValueError:
    return ValueError(f"node {size}: missing, the kind string ends with child slots open")


_FROZEN_KINDS = bytes((INTERNAL, LEAF))
_GROWING_KINDS = bytes((INTERNAL, ANCHOR, DEAD_LEAF))


def _check_kinds(t: Tree) -> None:
    """ValueError naming the first node whose kind code t cannot hold."""
    kind, allowed = ("frozen", _FROZEN_KINDS) if t.step is None else ("growing", _GROWING_KINDS)
    bad = t.nodes.translate(None, allowed)
    if bad:
        raise ValueError(f"node {t.nodes.index(bad[0])}: kind code {bad[0]} is not a {kind}-tree kind")


def grow_step(t: Tree, choices: list[GrowthChoice] | tuple[GrowthChoice, ...]) -> Tree:
    """Apply one growth step, consuming one choice per anchor, left to right.

    Die turns the anchor into a dead leaf; Branch turns it into an internal
    node with two fresh anchors. The choice list length must equal the
    anchor count and the tree must be growing (step set) and active.

    In level order the anchors of a growing tree, which all sit on the
    deepest level, are its last m nodes, left to right, so the step keeps
    the other nodes as they are and appends the fresh anchors. Anchors that
    are not the last nodes raise ValueError; the anchor depths are not
    checked further (validate_growing does that).
    """
    if t.step is None:
        raise ValueError("frozen tree: no growth state to grow")
    m = t.nodes.count(ANCHOR)
    if m == 0:
        raise ValueError("no anchors: the tree is inactive and cannot grow")
    if len(choices) != m:
        raise ValueError(f"choice arity: tree has {m} anchors, got {len(choices)} choices")
    kept = len(t.nodes) - m
    if t.nodes.find(ANCHOR) != kept:
        raise ValueError("anchors are not the last nodes in level order: not a growing tree")
    kinds = bytearray()
    branch, die = GrowthChoice.BRANCH, GrowthChoice.DIE  # enum attribute lookups are slow
    for position, choice in enumerate(choices):
        if choice is branch:
            kinds.append(INTERNAL)
        elif choice is die:
            kinds.append(DEAD_LEAF)
        else:
            raise ValueError(f"choice {position}: {choice!r} is not a GrowthChoice")
    kinds += bytes((ANCHOR,)) * (2 * kinds.count(INTERNAL))
    return Tree(t.nodes[:kept] + kinds, t.step + 1)


def grow_history(choices_per_step: list[list[GrowthChoice]]) -> Tree:
    """Replay a whole choice history from the seed."""
    t = new_seed()
    for step_choices in choices_per_step:
        t = grow_step(t, step_choices)
    return t


def stats(t: Tree) -> TreeStats:
    """Node counts and height (edge distance from root to a deepest node).

    A frozen tree has no anchors; its leaves count as ell. A kind string
    that does not close raises ValueError.
    """
    n = t.nodes.count(INTERNAL)
    m = t.nodes.count(ANCHOR)
    return TreeStats(n=n, m=m, ell=len(t.nodes) - n - m, h=len(_depth_bounds(t.nodes)) - 2)


def validate_growing(t: Tree) -> None:
    """Check that t is a state the growth process reaches, raising
    ValueError with a node index or the depths at fault.

    Verified: a growing tree (step set) with a nonnegative step, only
    growing-tree kinds, a kind string that closes (each node fills the next
    open child slot, and the last node fills the last one), and the state
    of the anchors. In an active tree the anchors are all at depth step,
    there is an even number of them past step 0, and they are the whole of
    that depth, its deepest. An inactive tree lost its last anchors at the
    step after its height, so its step is its height plus one.
    """
    nodes, step = t.nodes, t.step
    if step is None:
        raise ValueError("frozen tree: no growth state to validate")
    if step < 0:
        raise ValueError(f"negative step counter {step}")
    _check_kinds(t)
    bounds = _depth_bounds(nodes)
    m = nodes.count(ANCHOR)
    height = len(bounds) - 2
    if not m:
        if step != height + 1:
            raise ValueError(f"inactive tree of height {height} at step {step}: "
                             f"its last anchors died at step {height + 1}")
        return
    depths = [d for d in range(height + 1) if nodes.find(ANCHOR, bounds[d], bounds[d + 1]) >= 0]
    if depths != [step]:
        raise ValueError(f"anchors at depths {depths}, expected all at step {step}")
    if step >= 1 and m % 2 != 0:
        raise ValueError(f"odd anchor count {m} at step {step}")
    if m != bounds[step + 1] - bounds[step]:
        i = next(i for i in range(bounds[step], bounds[step + 1]) if nodes[i] != ANCHOR)
        raise ValueError(f"node {i}: {NodeKind(nodes[i]).name.lower()} at depth {step} beside the anchors")


_FREEZE = bytes.maketrans(bytes((ANCHOR, DEAD_LEAF)), bytes((LEAF, LEAF)))
_UNFREEZE = bytes.maketrans(bytes((ANCHOR, LEAF)), bytes((DEAD_LEAF, DEAD_LEAF)))


def freeze(t: Tree) -> Tree:
    """Forget the growth state: anchors and dead leaves both become leaves."""
    return Tree(t.nodes.translate(_FREEZE))


def unfreeze(bt: Tree) -> Tree:
    """The unique active growing tree whose frozen shape is bt.

    In an active tree every deepest node is an anchor and every anchor is at
    the deepest level, so the growth state is forced by the shape: deepest
    leaves become anchors, shallower leaves dead ones, and the step counter
    is the height. Inverse of freeze on active trees. A kind string that
    does not close raises ValueError.
    """
    bounds = _depth_bounds(bt.nodes)
    deepest = bounds[-2]
    nodes = bt.nodes[:deepest].translate(_UNFREEZE) + bytes((ANCHOR,)) * (bounds[-1] - deepest)
    return Tree(nodes, len(bounds) - 2)


def profile(bt: Tree) -> Profile:
    """Leaf counts per depth; the deepest level of any binary tree holds leaves.

    Every internal node has two children, so the leaves at depth d number
    size_d - size_{d+1} / 2. A kind string that does not close raises
    ValueError.
    """
    bounds = _depth_bounds(bt.nodes)
    sizes = [b - a for a, b in zip(bounds, bounds[1:])] + [0]
    return Profile(tuple(size - below // 2 for size, below in zip(sizes, sizes[1:])))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Per-kind JSON text, indexed by kind code: an internal node's entry opens its
# object, and its children follow; a leaf's entry is the whole object.
_JSON_GROWING = ('{"kind":"internal","l":', '{"kind":"anchor"}', '{"kind":"dead_leaf"}', None)
_JSON_FROZEN = ('{"l":', None, None, '{"leaf":true}')
_KIND_OF_NAME = {"internal": INTERNAL, "anchor": ANCHOR, "dead_leaf": DEAD_LEAF}
_RIGHT_KEY = ',"r":'
_STEP_HEAD = '{"step":'
_TREE_KEY = ',"tree":'


class _LeafPieces(dict):
    """closes -> the text to_json writes for a leaf of one kind: the kind's
    object, a '}' for each of the closes objects the leaf ends, and the
    ',"r":' that opens the next right child. Built on first use."""

    def __init__(self, kind_text: str):
        super().__init__()
        self.kind_text = kind_text

    def __missing__(self, closes: int) -> str:
        piece = self[closes] = self.kind_text + "}" * closes + _RIGHT_KEY
        return piece


def _leaf_pieces(table: tuple) -> list:
    """Per kind code: the leaf pieces of that kind, or None for the codes
    that are no leaf of table's trees."""
    return [None if kind == INTERNAL or text is None else _LeafPieces(text) for kind, text in enumerate(table)]


def to_json(tree: Tree) -> str:
    """Compact JSON text of any depth; see the module docstring for the
    schema. A kind code the tree cannot hold (_check_kinds) or a kind string
    that does not close raises ValueError, naming the node at fault as
    _depth_bounds does."""
    _check_kinds(tree)
    table = _JSON_FROZEN if tree.step is None else _JSON_GROWING
    opener, pieces = table[INTERNAL], _leaf_pieces(table)
    nodes = tree.nodes
    right = _right_children(nodes)
    # closes[r]: the right-child steps that end at the pending right child r.
    # The walk goes down each left spine, whose nodes end none, and pushes
    # the right children it passes.
    closes = [0] * len(nodes)
    out = []
    stack = [0]
    try:
        while stack:
            i = stack.pop()
            c = closes[i]
            while nodes[i] == INTERNAL:
                out.append(opener)
                r = right[i]
                closes[r] = c + 1
                stack.append(r)
                i, c = r - 1, 0
            out.append(pieces[nodes[i]][c])
    except IndexError:
        raise _open_slots(len(nodes)) from None
    if len(out) != len(nodes):
        raise _past_the_end(len(out))
    out[-1] = out[-1][:-len(_RIGHT_KEY)]  # the last leaf closes the root
    body = "".join(out)
    return body if tree.step is None else f'{_STEP_HEAD}{tree.step}{_TREE_KEY}{body}}}'


def from_json(text: str) -> Tree:
    """Parse a tree document, validating structure and invariants.

    Binary trees are bare node objects; growing trees are wrapped as
    {"step": s, "tree": node}. Node indices in error messages count nodes in
    level order (the root, then each depth from left to right), which is
    also each node's index in the returned Tree. A key repeated within an
    object raises ValueError.

    Text exactly as to_json writes it is read in one pass at any depth;
    that pass checks the text by rebuilding it piece by piece, without
    calling to_json. Any other layout (whitespace, key order) and every
    malformed document goes through the standard json parser, which
    rejects documents nested deeper than its limit (about 1,000 levels).
    """
    tree = _canonical_tree(text)
    if tree is None:
        tree = _json_tree(text)
    if tree.step is not None:
        validate_growing(tree)
    return tree


# The characters of the structure pieces ',"r":' and '}', which carry
# nothing a node's kind does not already fix.
_STRUCTURE_CHARS = b',"r:}'


def _canonical_tree(text: str) -> Tree | None:
    """The Tree whose to_json is text, or None when text is anything else.

    Each node's piece is replaced by its kind code and the characters of
    the structure pieces are dropped, which leaves the kinds in document
    order. A pending-depth stack puts each kind on its depth's row: an
    internal node's children sit one depth below it, and the right child
    is pending while the left subtree is read. The rows, top down, are the
    kind string. The same walk writes back what to_json writes for each
    node: an internal node's opener; a leaf's piece, closing the objects
    between its depth and the depth of the right child popped after it;
    for the leaf that closes the tree, all of its depth's objects; and the
    {"step":N,"tree": head and closing '}' of a growing document. These
    kinds read in preorder, so the pieces are to_json of the rows, and the
    tree is accepted only if they join to text: nothing reaches the caller
    that the json path would read differently. A head int() reads but
    to_json does not write ("+5", "05"), a kind code already in text, and
    kinds left after the closing leaf all fail that comparison.
    """
    step, table, allowed = None, _JSON_FROZEN, _FROZEN_KINDS
    body = text
    if text.startswith(_STEP_HEAD):
        head, _, body = text.partition(_TREE_KEY)
        try:
            step = int(head[len(_STEP_HEAD):])
        except ValueError:  # not an integer, or past int's digit limit
            return None
        if step < 0:
            return None
        table, allowed = _JSON_GROWING, _GROWING_KINDS
    if not body.isascii():
        return None
    for kind, piece in enumerate(table):
        if piece is not None:
            body = body.replace(piece, chr(kind))
    kinds = body.encode().translate(None, _STRUCTURE_CHARS)
    if kinds.translate(None, allowed):
        return None
    opener, pieces = table[INTERNAL], _leaf_pieces(table)
    out = [] if step is None else [f"{_STEP_HEAD}{step}{_TREE_KEY}"]
    rows = [bytearray()]
    pending = []
    depth = 0
    try:
        for kind in kinds:
            rows[depth].append(kind)
            if kind == INTERNAL:
                out.append(opener)
                depth += 1
                pending.append(depth)
                if depth == len(rows):
                    rows.append(bytearray())
            else:
                up = pending.pop()
                out.append(pieces[kind][depth - up])
                depth = up
    except IndexError:  # a leaf with no right child pending closes the tree
        out.append(pieces[kind][depth][:-len(_RIGHT_KEY)])
        if step is not None:
            out.append("}")
        if "".join(out) == text:
            return Tree(b"".join(rows), step)
    return None


def _json_tree(text: str) -> Tree:
    """Read any tree document through the standard json parser; growth
    invariants are left to validate_growing."""
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed tree document: {exc}") from None
    except RecursionError:
        raise ValueError("tree document nested too deeply for the json parser") from None
    if not isinstance(doc, dict):
        raise ValueError("malformed tree document: top level must be an object")
    if "step" not in doc:
        tree = _tree_from_obj(doc, _frozen_kind, None)
        # "leaf" per leaf, "l" and "r" per internal node
        strings = len(tree.nodes) + tree.nodes.count(INTERNAL)
    else:
        step = doc.get("step")
        if type(step) is not int or step < 0:  # bool is an int subclass
            raise ValueError("growing tree: step must be a nonnegative integer")
        if "tree" not in doc:
            raise ValueError("growing tree: missing tree field")
        if len(doc) != 2:
            raise ValueError("growing tree: extra keys besides step and tree")
        tree = _tree_from_obj(doc["tree"], _growing_kind, step)
        # "kind" and its name per node, "l" and "r" per internal node, "step" and "tree"
        strings = 2 * len(tree.nodes) + 2 * tree.nodes.count(INTERNAL) + 2
    # Past the checks above every string of the text is a key or a kind name
    # without an escaped quote. json.loads keeps the last value of a repeated
    # key, whose text only adds quotes.
    if text.count('"') != 2 * strings:
        raise ValueError("malformed tree document: a key is repeated within an object")
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
    while queue:
        obj = queue.popleft()
        index = len(kinds)
        if not isinstance(obj, dict):
            raise ValueError(f"node {index}: expected an object")
        kind = kind_of(obj, index)
        kinds.append(kind)
        if kind == INTERNAL:
            queue += (obj["l"], obj["r"])
    return Tree(bytes(kinds), step)


_SQUARE = 'shape=square, style=filled, fillcolor=black, label="", width=0.18'
_DOT_STYLES = (  # indexed by kind code
    'shape=circle, style=filled, fillcolor=black, label="", width=0.2',
    'shape=circle, label="", width=0.2',
    _SQUARE,
    _SQUARE,
)


def to_dot(tree: Tree) -> str:
    """Graphviz digraph; node shapes encode the kinds (see module docstring). Raises as to_json does.

    Node lines come in document order, from to_json's walk down left
    spines, and so do the edge lines, two per internal node."""
    _check_kinds(tree)
    nodes = tree.nodes
    right = _right_children(nodes)
    internal = _DOT_STYLES[INTERNAL]
    lines = ["digraph tree {", "  ordering=out;"]
    edges = []
    stack = [0]
    try:
        while stack:
            i = stack.pop()
            while nodes[i] == INTERNAL:
                lines.append(f"  n{i} [{internal}];")
                r = right[i]
                edges.append(f"  n{i} -> n{r - 1};\n  n{i} -> n{r};")
                stack.append(r)
                i = r - 1
            lines.append(f"  n{i} [{_DOT_STYLES[nodes[i]]}];")
    except IndexError:
        raise _open_slots(len(nodes)) from None
    if len(lines) - 2 != len(nodes):
        raise _past_the_end(len(lines) - 2)
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"
