"""Growth process, invariants, freezing, and serialization of growing trees."""

import dataclasses
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

import reference_data as ref
from growingtrees.oracle import all_binary_trees, all_growth_histories
from growingtrees.profiles import Profile
from growingtrees.sampler import BitSource, sample_with_stats
from growingtrees.tree_core import (
    GrowthChoice,
    NodeKind,
    Tree,
    TreeStats,
    freeze,
    from_json,
    grow_history,
    grow_step,
    new_seed,
    profile,
    stats,
    to_dot,
    to_json,
    unfreeze,
    validate_growing,
)


def _choices(letters):
    return [GrowthChoice.BRANCH if c == "B" else GrowthChoice.DIE for c in letters]


def test_seed_state():
    seed = new_seed()
    assert stats(seed) == TreeStats(n=0, m=1, ell=0, h=0)
    assert seed.is_active
    assert seed.anchor_count == 1
    validate_growing(seed)


def test_single_step_branch():
    t = grow_step(new_seed(), _choices("B"))
    assert stats(t) == TreeStats(n=1, m=2, ell=0, h=1)
    assert t.step == 1
    validate_growing(t)


def test_single_step_die():
    t = grow_step(new_seed(), _choices("D"))
    assert stats(t) == TreeStats(n=0, m=0, ell=1, h=0)
    assert not t.is_active
    validate_growing(t)


def test_growth_history_example():
    t = new_seed()
    for letters, expected in zip(ref.GROWTH_EXAMPLE, ref.GROWTH_EXAMPLE_STATS):
        t = grow_step(t, _choices(letters))
        validate_growing(t)
        assert stats(t) == TreeStats(*expected)
    assert profile(freeze(t)) == Profile((0, 0, 2, 1, 2, 8))
    assert grow_history([_choices(s) for s in ref.GROWTH_EXAMPLE]) == t


def test_grow_step_errors():
    dead = grow_step(new_seed(), _choices("D"))
    with pytest.raises(ValueError, match="no anchors"):
        grow_step(dead, [])
    with pytest.raises(ValueError, match="tree has 1 anchors, got 2 choices"):
        grow_step(new_seed(), _choices("BB"))
    # Anchors at depths 1 and 2 with a deeper one last in level order: not a
    # growing tree, numbered in level order and in postorder.
    uneven = Tree(bytes((I, A, I, A, A)), (1, -1, 3, -1, -1), (2, -1, 4, -1, -1), root=0, step=2)
    for t in (uneven, Tree(bytes((A, A, A, I, I)), (-1, -1, -1, 1, 0), (-1, -1, -1, 2, 3), root=4, step=2)):
        with pytest.raises(ValueError, match="not the last nodes in level order"):
            grow_step(t, _choices("BBB"))


def test_grow_step_rejects_unknown_choices():
    for bad in ("branch", True, None, "B"):
        with pytest.raises(ValueError, match="choice 0: .* is not a GrowthChoice"):
            grow_step(new_seed(), [bad])
    two = grow_step(new_seed(), _choices("B"))
    with pytest.raises(ValueError, match="choice 1: 'die' is not a GrowthChoice"):
        grow_step(two, [GrowthChoice.DIE, "die"])


def test_validate_rejects_anchor_off_step():
    shifted = dataclasses.replace(new_seed(), step=1)
    with pytest.raises(ValueError, match=r"anchors at depths \[0\]"):
        validate_growing(shifted)


A, D, I = NodeKind.ANCHOR, NodeKind.DEAD_LEAF, NodeKind.INTERNAL


def test_validate_rejects_odd_anchor_count():
    bad = Tree(bytes((A, D, I)), (-1, -1, 0), (-1, -1, 1), root=2, step=1)
    with pytest.raises(ValueError, match="odd anchor count 1"):
        validate_growing(bad)


def test_validate_rejects_shared_child():
    with pytest.raises(ValueError, match="visited twice"):
        validate_growing(Tree(bytes((A, I)), (-1, 0), (-1, 0), root=1, step=1))


def test_validate_rejects_malformed_nodes():
    half = Tree(bytes((A, I)), (-1, 0), (-1, -1), root=1, step=1)
    with pytest.raises(ValueError, match="missing a child"):
        validate_growing(half)
    leafy = Tree(bytes((D, A)), (-1, 0), (-1, -1), root=1, step=0)
    with pytest.raises(ValueError, match="leaf node with children"):
        validate_growing(leafy)


def test_validate_rejects_unreachable_and_bad_root():
    with pytest.raises(ValueError, match="unreachable"):
        validate_growing(Tree(bytes((A, D)), (-1, -1), (-1, -1), root=0, step=0))
    with pytest.raises(ValueError, match="root index"):
        validate_growing(Tree(bytes((A, D)), (-1, -1), (-1, -1), root=5, step=0))
    with pytest.raises(ValueError, match="negative step"):
        validate_growing(Tree(bytes((A,)), (-1,), (-1,), root=0, step=-1))


def test_binary_json_roundtrip_exhaustive():
    for leaves in range(1, 7):
        for t in all_binary_trees(leaves):
            text = to_json(t)
            assert from_json(text) == t


def test_growing_json_roundtrip():
    seen = 0
    for t, _ in all_growth_histories(3):
        assert from_json(to_json(t)) == t
        seen += 1
    assert seen == 30
    assert from_json(to_json(new_seed())) == new_seed()


def test_json_document_errors():
    with pytest.raises(ValueError, match="malformed tree document"):
        from_json("not json")
    with pytest.raises(ValueError, match="top level must be an object"):
        from_json("[1,2]")
    with pytest.raises(ValueError, match="node 0: leaf object with extra keys"):
        from_json('{"leaf":true,"x":1}')
    with pytest.raises(ValueError, match="node 0: need either leaf=true"):
        from_json('{"l":{"leaf":true}}')
    with pytest.raises(ValueError, match="node 1: unknown kind 'seed'"):
        from_json('{"step":1,"tree":{"kind":"internal","l":{"kind":"seed"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match=r"node 0: unknown kind \[1\]"):
        from_json('{"step":0,"tree":{"kind":[1]}}')
    with pytest.raises(ValueError, match="step must be a nonnegative integer"):
        from_json('{"step":-2,"tree":{"kind":"anchor"}}')
    with pytest.raises(ValueError, match="step must be a nonnegative integer"):
        from_json('{"step":true,"tree":{"kind":"internal","l":{"kind":"anchor"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="missing tree field"):
        from_json('{"step":1}')
    # Growing documents carry no extra keys either, at any node or around it.
    with pytest.raises(ValueError, match="node 0: anchor node with extra keys"):
        from_json('{"step":0,"tree":{"kind":"anchor","foo":1}}')
    with pytest.raises(ValueError, match="node 2: dead_leaf node with extra keys"):
        from_json('{"step":1,"tree":{"kind":"internal","l":{"kind":"anchor"},"r":{"kind":"dead_leaf","x":0}}}')
    with pytest.raises(ValueError, match="node 0: internal node with extra keys"):
        from_json('{"step":1,"tree":{"kind":"internal","leaf":true,"l":{"kind":"anchor"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="growing tree: extra keys besides step and tree"):
        from_json('{"step":0,"tree":{"kind":"anchor"},"extra":5}')
    # Structurally well-formed documents still go through the growth
    # invariants: an anchor at depth 0 contradicts a positive step counter.
    with pytest.raises(ValueError, match="anchors at depths"):
        from_json('{"step":2,"tree":{"kind":"anchor"}}')


def test_unfreeze_inverts_freeze_on_active_trees():
    for t, st_ in all_growth_histories(4):
        if st_.m:
            assert unfreeze(freeze(t)) == t


def test_freeze_then_unfreeze_recovers_shapes():
    for leaves in range(1, 9):
        for bt in all_binary_trees(leaves):
            assert freeze(unfreeze(bt)) == bt


def test_freeze_bijection_by_height():
    # Active trees at step h, frozen, are exactly the binary trees of
    # height h, one each.
    by_height = {}
    for t, st_ in all_growth_histories(3):
        if st_.m and t.step == 3:
            by_height.setdefault(st_.h, []).append(freeze(t))
    shapes_h3 = set()
    for leaves in range(2, 9):
        for bt in all_binary_trees(leaves):
            if profile(bt).height == 3:
                shapes_h3.add(bt)
    images = by_height[3]
    assert len(images) == len(set(images))
    assert set(images) == shapes_h3
    assert len(images) == ref.TREES_BY_MAX_HEIGHT[3] - ref.TREES_BY_MAX_HEIGHT[2]


def test_freeze_injective_at_step_four():
    images = [freeze(t) for t, st_ in all_growth_histories(4) if st_.m and t.step == 4]
    assert len(images) == ref.TREES_BY_MAX_HEIGHT[4] - ref.TREES_BY_MAX_HEIGHT[3]
    assert len(set(images)) == len(images)
    assert all(profile(bt).height == 4 for bt in images)


def test_all_reachable_states_distinct():
    trees = [t for t, _ in all_growth_histories(4)]
    assert len(trees) == 702
    assert len(set(trees)) == 702


def test_incremental_stats_match_direct():
    for t, st_ in all_growth_histories(3):
        assert stats(t) == st_
        validate_growing(t)


def test_anchor_pair_bound():
    # Active tree of height h with k anchor pairs: h <= n - k + 1 <= 2^(h-1).
    for t, st_ in all_growth_histories(4):
        if st_.m:
            k = st_.m // 2
            assert st_.h <= st_.n - k + 1 <= 1 << (st_.h - 1)


def test_bookkeeping_identity():
    for t, st_ in all_growth_histories(3):
        assert st_.ell == st_.n - st_.m + 1


def test_profile_of_frozen_trees():
    two = freeze(grow_step(new_seed(), _choices("B")))
    assert profile(two) == Profile((0, 2))
    assert profile(freeze(new_seed())) == Profile((1,))


def test_to_dot_output():
    seed_dot = to_dot(new_seed())
    assert seed_dot.startswith("digraph tree {")
    assert "ordering=out" in seed_dot
    assert seed_dot.count("shape=circle") == 1
    grown = grow_history([_choices(s) for s in ("B", "BD")])
    dot = to_dot(grown)
    assert dot.count("->") == 4
    assert "shape=square" in dot
    frozen_dot = to_dot(freeze(grown))
    assert frozen_dot.count("->") == 4
    assert "fillcolor=black" in frozen_dot


@given(st.data())
def test_random_histories_keep_invariants(data):
    t = new_seed()
    depth = data.draw(st.integers(0, 5))
    for _ in range(depth):
        if not t.is_active:
            break
        m = t.anchor_count
        letters = data.draw(st.lists(st.sampled_from("BD"), min_size=m, max_size=m))
        t = grow_step(t, _choices(letters))
    validate_growing(t)
    s = stats(t)
    assert s.ell == s.n - s.m + 1
    if t.step >= 1 and s.m:
        assert s.m % 2 == 0
        assert s.h == t.step
    frozen = freeze(t)
    assert frozen.leaf_count == s.m + s.ell
    assert frozen.internal_count == s.n
    assert from_json(to_json(t)) == t
    if s.m:
        assert unfreeze(frozen) == t


def test_exhaustive_histories_match_choice_products():
    # Each active state with m anchors has exactly 2^m successors; the walk
    # to depth 2 therefore yields 2 + 4 states.
    states = list(all_growth_histories(2))
    assert len(states) == 6
    step_one = [t for t, _ in states if t.step == 1]
    assert len(step_one) == 2
    assert len([t for t, _ in states if t.step == 2]) == 4
    seen = set()
    for choices in itertools.product([GrowthChoice.DIE, GrowthChoice.BRANCH], repeat=1):
        seen.add(grow_step(new_seed(), list(choices)))
    assert seen == set(step_one)


def test_deep_caterpillar_history():
    # 1,500 steps, each branching the left anchor and killing the right one:
    # far deeper than any recursive traversal could go.
    h = 1500
    t = new_seed()
    for step in range(h):
        t = grow_step(t, _choices("B" if step == 0 else "BD"))
    assert stats(t) == TreeStats(n=h, m=2, ell=h - 1, h=h)
    validate_growing(t)
    frozen = freeze(t)
    assert profile(frozen) == Profile((0,) + (1,) * (h - 1) + (2,))
    assert unfreeze(frozen) == t
    assert to_json(t) == (
        f'{{"step":{h},"tree":' + '{"kind":"internal","l":' * h
        + '{"kind":"anchor"},"r":{"kind":"anchor"}}' + ',"r":{"kind":"dead_leaf"}}' * (h - 1) + "}"
    )
    assert to_json(frozen) == '{"l":' * h + '{"leaf":true},"r":{"leaf":true}}' + ',"r":{"leaf":true}}' * (h - 1)
    dot = to_dot(t)
    assert dot.count("->") == 2 * h
    assert dot.count("shape=circle, label=") == 2
    assert dot.count("shape=square") == h - 1


def test_from_json_rejects_documents_nested_too_deeply():
    deep = '{"l":' * 5000 + '{"leaf":true},"r":{"leaf":true}}' + ',"r":{"leaf":true}}' * 4999
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json(deep)


# ---------------------------------------------------------------------------
# Level order: the numbering of every tree the package builds
# ---------------------------------------------------------------------------


def _bfs(t):
    """Node ids breadth-first from the root, left child before right."""
    order, queue = [], deque([t.root])
    while queue:
        i = queue.popleft()
        order.append(i)
        if t.left[i] >= 0:
            queue += (t.left[i], t.right[i])
    return order


def _is_level_ordered(t):
    return _bfs(t) == list(range(len(t.nodes)))


def _renumbered(t, order):
    """t with node order[k] renamed k."""
    new = {old: k for k, old in enumerate(order)}
    new[-1] = -1
    return Tree(
        bytes(t.nodes[i] for i in order),
        tuple(new[t.left[i]] for i in order),
        tuple(new[t.right[i]] for i in order),
        new[t.root],
        t.step,
    )


def _depths(t):
    """The node ids of each depth, left to right, from the root down."""
    levels, level = [], [t.root]
    while level:
        levels.append(level)
        level = [c for i in level if t.left[i] >= 0 for c in (t.left[i], t.right[i])]
    return levels


def _right_to_left(t):
    """t renumbered level by level, but each level right to left."""
    return _renumbered(t, [i for level in _depths(t) for i in reversed(level)])


def _root_last(t):
    """t renumbered bottom-up: the deepest level first, each level left to
    right, the root last."""
    return _renumbered(t, [i for level in reversed(_depths(t)) for i in level])


def _replayed_json(t, choices):
    """to_json of grow_step(t, choices), replayed on nested lists: the tree
    becomes [kind, left, right] lists, the anchors are found left to right
    by a left-first walk and take the choices in that order."""
    names = {NodeKind.INTERNAL: "internal", NodeKind.ANCHOR: "anchor", NodeKind.DEAD_LEAF: "dead_leaf"}
    nested = {i: [names[NodeKind(k)]] for i, k in enumerate(t.nodes)}
    for i, node in nested.items():
        if t.left[i] >= 0:
            node += (nested[t.left[i]], nested[t.right[i]])
    anchors, stack = [], [nested[t.root]]
    while stack:
        node = stack.pop()
        if node[0] == "anchor":
            anchors.append(node)
        stack += node[:0:-1]
    assert len(anchors) == len(choices)
    for node, choice in zip(anchors, choices):
        node[:] = ["internal", ["anchor"], ["anchor"]] if choice is GrowthChoice.BRANCH else ["dead_leaf"]
    parts, stack = [], [nested[t.root]]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif node[0] == "internal":
            parts.append('{"kind":"internal","l":')
            stack += ["}", node[2], ',"r":', node[1]]
        else:
            parts.append(f'{{"kind":"{node[0]}"}}')
    return f'{{"step":{t.step + 1},"tree":{"".join(parts)}}}'


def test_every_built_tree_is_level_ordered():
    assert _is_level_ordered(new_seed())
    for t, _ in all_growth_histories(4):
        assert _is_level_ordered(t)
        assert _is_level_ordered(from_json(to_json(t)))
        assert _is_level_ordered(from_json(to_json(freeze(t))))
    for leaves in range(1, 9):
        for bt in all_binary_trees(leaves):
            assert _is_level_ordered(bt)
            assert _is_level_ordered(from_json(to_json(bt)))
    rng = random.Random(3)
    t = new_seed()
    for _ in range(12):
        t = grow_step(t, [rng.choice(list(GrowthChoice)) for _ in range(t.anchor_count - 1)] + [GrowthChoice.BRANCH])
        assert _is_level_ordered(t)
    for seed, levels in enumerate([(1,), (0, 2), (0, 1, 1, 2), (0, 0, 3, 2), (0, 0, 2, 2, 4), (0, 1, 0, 3, 2)]):
        src = BitSource(seed)
        for _ in range(5):
            sampled = sample_with_stats(Profile(levels), src)[0]
            assert _is_level_ordered(sampled)
            assert _is_level_ordered(unfreeze(sampled))


def test_grow_step_relabels_other_numberings():
    # Unfrozen samples numbered bottom-up with the root last, and a
    # right-to-left level numbering, are two layouts that are not level
    # order. Each grows like its level-ordered copy, and both take the
    # choices left to right.
    rng = random.Random(5)
    grown = grow_history([_choices(s) for s in ("B", "BB", "BDDB", "DBBB")])
    sampled = [_root_last(unfreeze(sample_with_stats(Profile(levels), BitSource(seed))[0]))
               for seed, levels in enumerate([(0, 1, 1, 2), (0, 0, 3, 2), (0, 0, 2, 2, 4), (0, 1, 0, 3, 2)])]
    for t in sampled + [_right_to_left(grown), _right_to_left(sampled[2])]:
        assert not _is_level_ordered(t)
        relabelled = _renumbered(t, _bfs(t))
        assert _is_level_ordered(relabelled)
        for _ in range(4):
            choices = [rng.choice(list(GrowthChoice)) for _ in range(t.anchor_count)]
            after = grow_step(t, choices)
            assert after == grow_step(relabelled, choices)
            assert _is_level_ordered(after)
            assert to_json(after) == _replayed_json(t, choices)
            validate_growing(after)
    # On a level-ordered tree the replay agrees too.
    for _ in range(4):
        choices = [rng.choice(list(GrowthChoice)) for _ in range(grown.anchor_count)]
        assert to_json(grow_step(grown, choices)) == _replayed_json(grown, choices)


def test_from_json_error_indices_count_in_level_order():
    # The bad node is fifth in document order and third in level order.
    with pytest.raises(ValueError, match="node 2: need either leaf=true"):
        from_json('{"l":{"l":{"leaf":true},"r":{"leaf":true}},"r":{"leaf":false}}')
    with pytest.raises(ValueError, match="node 2: unknown kind 'seed'"):
        from_json('{"step":2,"tree":{"kind":"internal","l":{"kind":"internal",'
                  '"l":{"kind":"anchor"},"r":{"kind":"anchor"}},"r":{"kind":"seed"}}}')
    # Third in document order, fourth in level order.
    with pytest.raises(ValueError, match="node 3: expected an object"):
        from_json('{"l":{"l":[],"r":{"leaf":true}},"r":{"leaf":true}}')
