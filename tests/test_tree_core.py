"""Growth process, invariants, freezing, and serialization of growing trees."""

import hashlib
import itertools
import random
import re
import sys
from collections import deque

import pytest
from hypothesis import given, strategies as st

import reference_data as ref
from random_profiles import narrow_profile
from growingtrees import tree_core
from growingtrees.oracle import all_binary_trees, all_growth_histories
from growingtrees.profiles import Profile
from growingtrees.sampler import BitSource, samples
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
    # growing tree.
    with pytest.raises(ValueError, match="not the last nodes in level order"):
        grow_step(Tree(bytes((I, A, I, A, A)), step=2), _choices("BBB"))


def test_grow_step_rejects_a_frozen_tree():
    # A frozen tree has no step to advance, even when it holds an anchor.
    with pytest.raises(ValueError, match="^frozen tree: no growth state to grow$"):
        grow_step(Tree(bytes((A,))), _choices("D"))
    with pytest.raises(ValueError, match="^frozen tree: no growth state to grow$"):
        grow_step(freeze(grow_step(new_seed(), _choices("B"))), _choices("BB"))


def test_grow_step_rejects_unknown_choices():
    two = grow_step(new_seed(), _choices("B"))
    # A plain int, a bool or a NodeKind holds a kind code, but is no choice.
    for bad in ("branch", True, None, "B", 0, 2, NodeKind.INTERNAL, NodeKind.DEAD_LEAF):
        with pytest.raises(ValueError, match="choice 0: .* is not a GrowthChoice"):
            grow_step(new_seed(), [bad])
        with pytest.raises(ValueError, match=f"^choice 0: {re.escape(repr(bad))} is not a GrowthChoice$"):
            grow_step(two, [bad, GrowthChoice.BRANCH])
        with pytest.raises(ValueError, match=f"^choice 1: {re.escape(repr(bad))} is not a GrowthChoice$"):
            grow_step(two, [GrowthChoice.DIE, bad])
    with pytest.raises(ValueError, match="choice 1: 'die' is not a GrowthChoice"):
        grow_step(two, [GrowthChoice.DIE, "die"])


def test_a_growth_choice_is_the_kind_its_anchor_becomes():
    assert list(GrowthChoice) == [GrowthChoice.DIE, GrowthChoice.BRANCH]
    assert GrowthChoice.DIE == NodeKind.DEAD_LEAF and GrowthChoice.BRANCH == NodeKind.INTERNAL
    # Each step keeps the nodes above the anchors, writes the choices in the
    # anchors' place and appends two fresh anchors per branch.
    rng = random.Random(29)
    for _ in range(40):
        t = new_seed()
        while t.is_active and t.step < 12:
            choices = [rng.choice(list(GrowthChoice)) for _ in range(t.anchor_count)]
            kept = t.nodes[:len(t.nodes) - t.anchor_count]
            t = grow_step(t, choices)
            fresh = bytes((NodeKind.ANCHOR,)) * (2 * choices.count(GrowthChoice.BRANCH))
            assert t.nodes == kept + bytes(choices) + fresh


def test_validate_rejects_anchor_off_step():
    shifted = Tree(new_seed().nodes, step=1)
    with pytest.raises(ValueError, match=r"anchors at depths \[0\]"):
        validate_growing(shifted)


A, D, I = NodeKind.ANCHOR, NodeKind.DEAD_LEAF, NodeKind.INTERNAL


def test_validate_rejects_odd_anchor_count():
    with pytest.raises(ValueError, match="odd anchor count 1"):
        validate_growing(Tree(bytes((I, A, D)), step=1))


def test_validate_rejects_kind_strings_that_do_not_close():
    # Past the last open child slot, a node belongs to no tree; short of
    # it, a child is missing.
    with pytest.raises(ValueError, match="node 1: past the end of the tree, which closes at node 0"):
        validate_growing(Tree(bytes((A, D)), step=0))
    with pytest.raises(ValueError, match="node 3: past the end"):
        validate_growing(Tree(bytes((I, A, A, D, D)), step=1))
    with pytest.raises(ValueError, match="node 2: missing"):
        validate_growing(Tree(bytes((I, A)), step=1))
    with pytest.raises(ValueError, match="node 5: missing"):
        validate_growing(Tree(bytes((I, I, I, A, A)), step=2))
    with pytest.raises(ValueError, match="node 0: missing"):
        validate_growing(Tree(b"", step=0))
    with pytest.raises(ValueError, match="node 1: kind code 3 is not a growing-tree kind"):
        validate_growing(Tree(bytes((I, NodeKind.LEAF, A)), step=1))
    with pytest.raises(ValueError, match="negative step"):
        validate_growing(Tree(bytes((A,)), step=-1))
    with pytest.raises(ValueError, match="frozen tree"):
        validate_growing(freeze(new_seed()))


def test_readers_reject_frozen_kind_strings_that_do_not_close():
    # A string that is no tree used to read as one: profile (0, 2), h = 1.
    leaf = NodeKind.LEAF
    for reader in (profile, stats, unfreeze):
        with pytest.raises(ValueError, match="node 2: missing, the kind string ends with child slots open"):
            reader(Tree(bytes((I, leaf))))
        with pytest.raises(ValueError, match="node 3: past the end of the tree, which closes at node 2"):
            reader(Tree(bytes((I, leaf, leaf, leaf))))


def test_writers_reject_kind_strings_that_do_not_close():
    # to_json read past the end of (I, leaf) and dropped node 3 of
    # (I, leaf, leaf, leaf), writing a 3-node tree.
    leaf = NodeKind.LEAF
    for writer in (to_json, to_dot):
        with pytest.raises(ValueError, match="node 2: missing, the kind string ends with child slots open"):
            writer(Tree(bytes((I, leaf))))
        with pytest.raises(ValueError, match="node 3: past the end of the tree, which closes at node 2"):
            writer(Tree(bytes((I, leaf, leaf, leaf))))
        with pytest.raises(ValueError, match="node 3: past the end of the tree, which closes at node 2"):
            writer(Tree(bytes((I, A, A, D)), step=1))
    # Every string of up to 9 nodes: a writer fails exactly when the readers
    # do, with their message.
    for length in range(10):
        for nodes in itertools.product((I, leaf), repeat=length):
            t = Tree(bytes(nodes))
            try:
                profile(t)
            except ValueError as exc:
                for writer in (to_json, to_dot):
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        writer(t)
            else:
                assert from_json(to_json(t)) == t
                assert to_dot(t).count(" -> ") == len(nodes) - 1


def test_writers_reject_kind_codes_their_tree_cannot_hold():
    leaf = NodeKind.LEAF
    cases = [
        (Tree(bytes((A,))), "node 0: kind code 1 is not a frozen-tree kind"),
        (Tree(bytes((I, leaf, D))), "node 2: kind code 2 is not a frozen-tree kind"),
        (Tree(bytes((leaf,)), 0), "node 0: kind code 3 is not a growing-tree kind"),
        (Tree(bytes((I, A, leaf)), 1), "node 2: kind code 3 is not a growing-tree kind"),
        (Tree(bytes((7,))), "node 0: kind code 7 is not a frozen-tree kind"),
        (Tree(bytes((I, 7, leaf)), 1), "node 1: kind code 7 is not a growing-tree kind"),
    ]
    for tree, message in cases:
        for writer in (to_json, to_dot):
            with pytest.raises(ValueError, match=f"^{message}$"):
                writer(tree)
        if tree.step is not None:  # validate_growing shares the check
            with pytest.raises(ValueError, match=f"^{message}$"):
                validate_growing(tree)


def test_validate_rejects_states_growth_cannot_reach():
    # Dead leaves beside the anchors on the anchor depth of an active tree:
    # the step that made those anchors made their neighbours too.
    with pytest.raises(ValueError, match="node 5: dead_leaf at depth 2 beside the anchors"):
        validate_growing(Tree(bytes((I, I, I, A, A, D, D)), step=2))
    with pytest.raises(ValueError, match="node 5: internal at depth 2 beside the anchors"):
        validate_growing(Tree(bytes((I, I, I, A, A, I, D, D, D)), step=2))
    # An inactive tree stops at the step its last anchors die: the step
    # after its height.
    with pytest.raises(ValueError, match="inactive tree of height 0 at step 5"):
        validate_growing(Tree(bytes((D,)), step=5))
    with pytest.raises(ValueError, match="inactive tree of height 0 at step 0"):
        validate_growing(Tree(bytes((D,)), step=0))
    with pytest.raises(ValueError, match="inactive tree of height 1 at step 1"):
        validate_growing(Tree(bytes((I, D, D)), step=1))
    validate_growing(Tree(bytes((D,)), step=1))
    validate_growing(Tree(bytes((I, D, D)), step=2))
    with pytest.raises(ValueError, match="node 5: dead_leaf at depth 2"):
        from_json('{"step":2,"tree":{"kind":"internal","l":{"kind":"internal","l":{"kind":"anchor"},'
                  '"r":{"kind":"anchor"}},"r":{"kind":"internal","l":{"kind":"dead_leaf"},"r":{"kind":"dead_leaf"}}}}')
    with pytest.raises(ValueError, match="inactive tree of height 0 at step 5"):
        from_json('{"step":5,"tree":{"kind":"dead_leaf"}}')


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
    with pytest.raises(ValueError, match="node 0: internal node needs l and r"):
        from_json('{"step":1,"tree":{"kind":"internal","l":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="node 0: anchor node cannot have children"):
        from_json('{"step":0,"tree":{"kind":"anchor","l":{"kind":"anchor"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="step must be a nonnegative integer"):
        from_json('{"step":-2,"tree":{"kind":"anchor"}}')
    with pytest.raises(ValueError, match="step must be a nonnegative integer"):
        from_json('{"step":true,"tree":{"kind":"internal","l":{"kind":"anchor"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="missing tree field"):
        from_json('{"step":1}')
    # A number past int's 4,300-digit limit is malformed, as a step or as any
    # other value.
    for text in ('{"step":' + "9" * 5000 + ',"tree":{"kind":"anchor"}}', '{"leaf":' + "9" * 5000 + "}"):
        with pytest.raises(ValueError, match="^malformed tree document: .*4300"):
            from_json(text)
    # Growing documents carry no extra keys either, at any node or around it.
    with pytest.raises(ValueError, match="node 0: anchor node with extra keys"):
        from_json('{"step":0,"tree":{"kind":"anchor","foo":1}}')
    with pytest.raises(ValueError, match="node 2: dead_leaf node with extra keys"):
        from_json('{"step":1,"tree":{"kind":"internal","l":{"kind":"anchor"},"r":{"kind":"dead_leaf","x":0}}}')
    with pytest.raises(ValueError, match="node 0: internal node with extra keys"):
        from_json('{"step":1,"tree":{"kind":"internal","leaf":true,"l":{"kind":"anchor"},"r":{"kind":"anchor"}}}')
    with pytest.raises(ValueError, match="growing tree: extra keys besides step and tree"):
        from_json('{"step":0,"tree":{"kind":"anchor"},"extra":5}')
    # json.loads keeps the last of a repeated key, which would slip past the
    # checks above: another tree, another step, a leaf with two leaf keys.
    for text in ('{"l":{"leaf":true},"r":{"leaf":true},"r":{"l":{"leaf":true},"r":{"leaf":true}}}',
                 '{"step":0,"step":1,"tree":{"kind":"dead_leaf"}}',
                 '{"leaf":true,"leaf":true}',
                 '{"step":1,"tree":{"kind":"internal","kind":"internal",'
                 '"l":{"kind":"anchor"},"r":{"kind":"anchor"}}}'):
        with pytest.raises(ValueError, match="malformed tree document: a key is repeated within an object"):
            from_json(text)
    # Structurally well-formed documents still go through the growth
    # invariants: an anchor at depth 0 contradicts a positive step counter.
    with pytest.raises(ValueError, match="anchors at depths"):
        from_json('{"step":2,"tree":{"kind":"anchor"}}')


# The pieces to_json writes: each node's text opens with one of the first
# five, and ',"r":' and '}' join them.
_JSON_PIECES = ('{"l":', '{"leaf":true}', '{"kind":"internal","l":', '{"kind":"anchor"}',
                '{"kind":"dead_leaf"}', ',"r":', '}')
_JSON_TOKEN = re.compile(r'\{"step":\d+,"tree":|' + "|".join(map(re.escape, _JSON_PIECES)))


def _read_via_json(text):
    """from_json through the standard json parser alone."""
    tree = tree_core._json_tree(text)
    if tree.step is not None:
        validate_growing(tree)
    return tree


def _outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return str(exc)


def test_from_json_matches_the_json_parser_on_single_token_edits():
    # to_json's own text is read without the json parser. Every text one
    # token away from it must read as the json parser reads it: the same
    # Tree, or a ValueError with the same message. A token is deleted,
    # doubled, swapped with the next, or replaced by each piece, by a
    # one-character value, or by a character that json reads but UTF-8
    # cannot encode.
    trees = [t for leaves in range(1, 6) for t in all_binary_trees(leaves)]
    growing = [new_seed()] + [t for t, _ in all_growth_histories(3)]
    trees += growing + [freeze(t) for t in growing]
    documents = set()
    for t in trees:
        tokens = _JSON_TOKEN.findall(to_json(t))
        assert "".join(tokens) == to_json(t)
        for i in range(len(tokens)):
            before, token, after = tokens[:i], tokens[i], tokens[i + 1:]
            edits = [before + after, before + [token, token] + after, before + after[:1] + [token] + after[1:]]
            edits += [before + [piece] + after for piece in _JSON_PIECES + ("0", "\ud800")]
            documents.update("".join(edit) for edit in edits)
        if t.step is not None:  # the step counter, spelled as json reads it and otherwise
            body = to_json(t).partition(',"tree":')[2]
            for step in (t.step + 1, -t.step, -1, "-0", f"0{t.step}", f" {t.step}", f"+{t.step}",
                         f"{t.step}.0", f"{t.step}_0", "true", f'"{t.step}"'):
                documents.add(f'{{"step":{step},"tree":{body}')
    assert len(documents) > 3000
    for text in documents:
        assert _outcome(from_json, text) == _outcome(_read_via_json, text), text


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
    assert from_json(to_json(t)) == t
    assert from_json(to_json(frozen)) == frozen
    dot = to_dot(t)
    assert dot.count("->") == 2 * h
    assert dot.count("shape=circle, label=") == 2
    assert dot.count("shape=square") == h - 1


def test_growth_writer_bytes_are_pinned():
    # A seeded 40-step history (the last anchor always branches, so it stays
    # active): 425 nodes with anchors and dead leaves. The digests pin the
    # writers' bytes for a growing tree and for its frozen shape.
    rng = random.Random(40)
    t = new_seed()
    for _ in range(40):
        t = grow_step(t, [rng.choice((GrowthChoice.DIE, GrowthChoice.BRANCH)) for _ in range(t.anchor_count - 1)]
                      + [GrowthChoice.BRANCH])
    assert stats(t) == TreeStats(n=212, m=22, ell=191, h=40)
    pinned = [
        (to_json(t), "45f38e2d9ccd09208d2cb9dca1770fb45c957c627fe212a1e8d2945846a4a519"),
        (to_dot(t), "99bf04a6718c5195cda8008441daa7f49a9576cd295ecd476516362fe89f2e78"),
        (to_json(freeze(t)), "f9489bbf67b2c926c47a21f18465c257deb041454bf346864578ee3b67ab50eb"),
        (to_dot(freeze(t)), "b52b153aac2cd6fe4bc5849041a5c409d64605a763d95b47891cf4c5dcc1c4ff"),
    ]
    for text, digest in pinned:
        assert hashlib.sha256(text.encode()).hexdigest() == digest, text[:60]


def test_from_json_rejects_documents_nested_too_deeply():
    # A space after every colon: not to_json's text, so it goes through the
    # json parser and meets its depth limit.
    deep = '{"l":' * 5000 + '{"leaf":true},"r":{"leaf":true}}' + ',"r":{"leaf":true}}' * 4999
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json(deep.replace(":", ": "))


def test_deep_samples_round_trip():
    # 20,000 levels: to_json's own text reads back at any depth.
    t = next(samples(narrow_profile(random.Random(20000), 20000), BitSource(1), 1))
    assert profile(t).height == 20000
    for tree in (t, unfreeze(t)):
        assert from_json(to_json(tree)) == tree


def test_a_canonical_read_writes_nothing(monkeypatch):
    # from_json checks to_json's text by rebuilding it as it reads, so it
    # reads canonical documents with the writer gone and without the json
    # parser. Another spacing of the same document still takes the json route.
    grown = grow_history([_choices(s) for s in ("B", "BB", "BDDB")])
    deep = next(samples(narrow_profile(random.Random(2000), 2000), BitSource(1), 1))
    trees = [grown, freeze(grown), deep, unfreeze(deep)]
    texts = [to_json(t) for t in trees]
    json_tree, json_reads = tree_core._json_tree, []

    def no_write(tree):
        raise AssertionError("from_json wrote a tree")

    def counted_json_tree(text):
        json_reads.append(text)
        return json_tree(text)

    monkeypatch.setattr(tree_core, "to_json", no_write)
    monkeypatch.setattr(tree_core, "_json_tree", counted_json_tree)
    for t, text in zip(trees, texts):
        assert from_json(text) == t
    assert json_reads == []
    for t, text in zip(trees[:2], texts[:2]):
        spaced = text.replace(":", ": ")
        assert from_json(spaced) == t
        assert json_reads[-1] == spaced
    for text in texts[2:]:
        with pytest.raises(ValueError, match="nested too deeply"):
            from_json(text.replace(":", ": "))
    assert len(json_reads) == 4


_DOT_STYLE_OF = {
    NodeKind.INTERNAL: 'shape=circle, style=filled, fillcolor=black, label="", width=0.2',
    NodeKind.ANCHOR: 'shape=circle, label="", width=0.2',
    NodeKind.DEAD_LEAF: 'shape=square, style=filled, fillcolor=black, label="", width=0.18',
    NodeKind.LEAF: 'shape=square, style=filled, fillcolor=black, label="", width=0.18',
}


def _recursive_dot(t):
    """to_dot by recursion: node lines in preorder, then each internal
    node's left and right edge lines in the same order."""
    children, internal = {}, 0
    for i, kind in enumerate(t.nodes):
        if kind == NodeKind.INTERNAL:
            children[i] = (2 * internal + 1, 2 * internal + 2)
            internal += 1
    order = []

    def visit(i):
        order.append(i)
        for child in children.get(i, ()):
            visit(child)

    visit(0)
    lines = ["digraph tree {", "  ordering=out;"]
    lines += [f"  n{i} [{_DOT_STYLE_OF[t.nodes[i]]}];" for i in order]
    lines += [f"  n{i} -> n{child};" for i in order for child in children.get(i, ())]
    return "\n".join(lines + ["}"]) + "\n"


def test_to_dot_matches_a_recursive_writer():
    trees = [t for leaves in range(1, 7) for t in all_binary_trees(leaves)]
    trees += [new_seed()] + [t for t, _ in all_growth_histories(3)]
    caterpillar = new_seed()
    for step in range(1500):
        caterpillar = grow_step(caterpillar, _choices("B" if step == 0 else "BD"))
    trees += [caterpillar, freeze(caterpillar)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)  # the caterpillar is 1,500 levels deep
    try:
        for t in trees:
            assert to_dot(t) == _recursive_dot(t), t
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# Level order: a tree is its kind string
# ---------------------------------------------------------------------------


def _closes(nodes):
    """True iff nodes is a tree read in level order: each node fills the
    oldest open child slot (an internal node opens two), and the last node
    fills the last one."""
    open_slots = 1
    for i, kind in enumerate(nodes):
        open_slots += 1 if kind == NodeKind.INTERNAL else -1
        if open_slots == 0:
            return i == len(nodes) - 1
    return False


_NAMES = {NodeKind.INTERNAL: "internal", NodeKind.ANCHOR: "anchor", NodeKind.DEAD_LEAF: "dead_leaf"}


def _nested(t):
    """t as nested [kind, left, right] lists, each node read off t.nodes into
    the oldest open child slot."""
    root = []
    slots = deque([root])
    for kind in t.nodes:
        node = slots.popleft()
        node.append(_NAMES[NodeKind(kind)])
        if kind == NodeKind.INTERNAL:
            node += ([], [])
            slots += (node[1], node[2])
    assert not slots
    return root


def _replayed_json(t, choices):
    """to_json of grow_step(t, choices), replayed on nested lists: the
    anchors are found left to right by a left-first walk and take the
    choices in that order."""
    top = _nested(t)
    anchors, stack = [], [top]
    while stack:
        node = stack.pop()
        if node[0] == "anchor":
            anchors.append(node)
        stack += node[:0:-1]
    assert len(anchors) == len(choices)
    for node, choice in zip(anchors, choices):
        node[:] = ["internal", ["anchor"], ["anchor"]] if choice is GrowthChoice.BRANCH else ["dead_leaf"]
    parts, stack = [], [top]
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
    # Every tree the package builds is a kind string that closes.
    assert _closes(new_seed().nodes)
    for t, _ in all_growth_histories(4):
        assert _closes(t.nodes)
        assert _closes(from_json(to_json(freeze(t))).nodes)
    for leaves in range(1, 9):
        for bt in all_binary_trees(leaves):
            assert _closes(bt.nodes)
    rng = random.Random(3)
    t = new_seed()
    for _ in range(12):
        t = grow_step(t, [rng.choice(list(GrowthChoice)) for _ in range(t.anchor_count - 1)] + [GrowthChoice.BRANCH])
        assert _closes(t.nodes)
    for seed, levels in enumerate([(1,), (0, 2), (0, 1, 1, 2), (0, 0, 3, 2), (0, 0, 2, 2, 4), (0, 1, 0, 3, 2)]):
        src = BitSource(seed)
        for _ in range(5):
            sampled = next(samples(Profile(levels), src, 1))
            assert _closes(sampled.nodes)
            assert _closes(unfreeze(sampled).nodes)


def test_grow_step_matches_a_nested_replay():
    # Growing grown and sampled (unfrozen) trees agrees with the same step
    # replayed on nested lists, choices taken left to right.
    rng = random.Random(5)
    grown = grow_history([_choices(s) for s in ("B", "BB", "BDDB", "DBBB")])
    sampled = [unfreeze(next(samples(Profile(levels), BitSource(seed), 1)))
               for seed, levels in enumerate([(0, 1, 1, 2), (0, 0, 3, 2), (0, 0, 2, 2, 4), (0, 1, 0, 3, 2)])]
    for t in sampled + [grown]:
        for _ in range(4):
            choices = [rng.choice(list(GrowthChoice)) for _ in range(t.anchor_count)]
            after = grow_step(t, choices)
            assert to_json(after) == _replayed_json(t, choices)
            validate_growing(after)


def test_kind_strings_against_the_oracle():
    # A string over {INTERNAL, LEAF} is the kind string of a binary tree
    # exactly when it closes, and every such tree round trips.
    trees = {bt.nodes: bt for leaves in range(1, 7) for bt in all_binary_trees(leaves)}
    assert len(trees) == sum(ref.CATALAN[n] for n in range(6))
    closing = 0
    for length in range(1, 12):
        for nodes in itertools.product((NodeKind.INTERNAL, NodeKind.LEAF), repeat=length):
            nodes = bytes(nodes)
            assert (nodes in trees) == _closes(nodes)
            closing += _closes(nodes)
    assert closing == len(trees)
    for bt in trees.values():
        assert from_json(to_json(bt)) == bt
    # validate_growing accepts a string over {INTERNAL, ANCHOR, DEAD_LEAF}
    # with a step exactly when growth reaches that state; one that does not
    # close is rejected with a node index.
    reachable = {new_seed()} | {t for t, _ in all_growth_histories(5) if len(t.nodes) <= 7}
    accepted = set()
    for length in range(1, 8):
        for nodes in itertools.product((I, A, D), repeat=length):
            nodes = bytes(nodes)
            for step in range(6):
                t = Tree(nodes, step)
                try:
                    validate_growing(t)
                except ValueError as exc:
                    assert t not in reachable
                    assert _closes(nodes) or re.match(r"node \d+: (past the end|missing)", str(exc))
                else:
                    accepted.add(t)
    assert accepted == reachable


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
