"""Unit tests for the directory storage structures."""

import pytest

from repro.memory.directory_store import (
    FullMapDirectory,
    LinkedListDirectory,
)

KINDS = [FullMapDirectory, LinkedListDirectory]


# ----------------------------------------------------------------------
# The shared home-directory machinery, on both kinds (clear and the
# node range are checked per kind below)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.view_tag)
def test_entry_and_peek(kind):
    directory = kind(4)
    assert directory.peek(9) is None
    entry = directory.entry(9)
    assert directory.peek(9) is entry
    assert directory.entry(9) is entry
    assert not entry.dirty
    assert not entry.cached_anywhere
    assert entry.owner is None
    assert directory.view(9) == (kind.view_tag, False, ())
    assert directory.view(10) == (kind.view_tag, False, ())
    assert directory.peek(10) is None


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.view_tag)
def test_set_exclusive_leaves_one_dirty_owner(kind):
    directory = kind(4)
    directory.add_sharer(9, 1)
    directory.add_sharer(9, 3)
    directory.set_exclusive(9, 2)
    entry = directory.entry(9)
    assert list(entry.sharers) == [2]
    assert type(entry.sharers) is type(kind.entry_type().sharers)
    assert entry.dirty
    assert entry.owner == 2
    assert directory.view(9) == (kind.view_tag, True, (2,))


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.view_tag)
def test_remove_sharer(kind):
    directory = kind(4)
    directory.remove_sharer(9, 1)  # no entry
    assert directory.peek(9) is None
    directory.set_exclusive(9, 2)
    directory.remove_sharer(9, 3)  # not a sharer
    assert directory.entry(9).owner == 2
    directory.remove_sharer(9, 2)  # the last sharer
    entry = directory.entry(9)
    assert not entry.dirty
    assert not entry.cached_anywhere


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.view_tag)
def test_owner_requires_a_single_holder(kind):
    directory = kind(4)
    directory.add_sharer(9, 0)
    directory.add_sharer(9, 1)
    entry = directory.entry(9)
    entry.dirty = True
    with pytest.raises(ValueError):
        _ = entry.owner


# ----------------------------------------------------------------------
# Full map
# ----------------------------------------------------------------------
def test_full_map_empty_entry():
    directory = FullMapDirectory(4)
    entry = directory.entry(9)
    assert not entry.dirty
    assert not entry.cached_anywhere
    assert entry.owner is None


def test_full_map_add_sharers():
    directory = FullMapDirectory(4)
    directory.add_sharer(9, 1)
    directory.add_sharer(9, 3)
    entry = directory.entry(9)
    assert entry.sharers == {1, 3}
    assert not entry.dirty


def test_full_map_set_exclusive():
    directory = FullMapDirectory(4)
    directory.add_sharer(9, 1)
    directory.set_exclusive(9, 2)
    entry = directory.entry(9)
    assert entry.sharers == {2}
    assert entry.dirty
    assert entry.owner == 2


def test_full_map_add_sharer_clears_dirty():
    directory = FullMapDirectory(4)
    directory.set_exclusive(9, 2)
    directory.add_sharer(9, 0)
    entry = directory.entry(9)
    assert not entry.dirty
    assert entry.sharers == {0, 2}


def test_full_map_remove_sharer():
    directory = FullMapDirectory(4)
    directory.add_sharer(9, 1)
    directory.add_sharer(9, 2)
    directory.remove_sharer(9, 1)
    assert directory.entry(9).sharers == {2}
    directory.remove_sharer(9, 2)
    assert not directory.entry(9).dirty
    assert not directory.entry(9).cached_anywhere


def test_full_map_remove_unknown_is_noop():
    directory = FullMapDirectory(4)
    directory.remove_sharer(9, 1)  # no entry
    directory.add_sharer(9, 2)
    directory.remove_sharer(9, 3)  # not a sharer
    assert directory.entry(9).sharers == {2}


def test_full_map_clear():
    directory = FullMapDirectory(4)
    directory.set_exclusive(9, 2)
    directory.clear(9)
    assert directory.peek(9) is None


def test_full_map_invalidation_targets_exclude_requester():
    directory = FullMapDirectory(4)
    directory.add_sharer(9, 0)
    directory.add_sharer(9, 1)
    directory.add_sharer(9, 2)
    assert directory.invalidation_targets(9, 1) == {0, 2}
    assert directory.invalidation_targets(10, 1) == set()


def test_full_map_owner_invariant():
    directory = FullMapDirectory(4)
    entry = directory.entry(9)
    entry.sharers = {0, 1}
    entry.dirty = True
    with pytest.raises(ValueError):
        _ = entry.owner


def test_full_map_node_bounds():
    directory = FullMapDirectory(4)
    with pytest.raises(ValueError):
        directory.add_sharer(9, 4)
    with pytest.raises(ValueError):
        directory.set_exclusive(9, -1)


# ----------------------------------------------------------------------
# Linked list
# ----------------------------------------------------------------------
def test_linked_list_prepend_order():
    directory = LinkedListDirectory(8)
    directory.add_sharer(3, 1)
    directory.add_sharer(3, 5)
    directory.add_sharer(3, 2)
    assert directory.entry(3).sharers == [2, 5, 1]
    assert directory.entry(3).head == 2


def test_linked_list_prepend_moves_existing_to_head():
    directory = LinkedListDirectory(8)
    for node in (1, 5, 2):
        directory.add_sharer(3, node)
    directory.add_sharer(3, 1)
    assert directory.entry(3).sharers == [1, 2, 5]


def test_linked_list_set_exclusive_collapses():
    directory = LinkedListDirectory(8)
    for node in (1, 5, 2):
        directory.add_sharer(3, node)
    directory.set_exclusive(3, 7)
    entry = directory.entry(3)
    assert entry.sharers == [7]
    assert entry.dirty
    assert entry.head == 7


def test_linked_list_prepend_clears_dirty():
    directory = LinkedListDirectory(8)
    directory.set_exclusive(3, 7)
    directory.add_sharer(3, 1)
    assert not directory.entry(3).dirty
    assert directory.entry(3).sharers == [1, 7]


def test_linked_list_remove_sharer():
    directory = LinkedListDirectory(8)
    for node in (1, 5, 2):
        directory.add_sharer(3, node)
    directory.remove_sharer(3, 5)
    assert directory.entry(3).sharers == [2, 1]
    directory.remove_sharer(3, 2)
    directory.remove_sharer(3, 1)
    assert not directory.entry(3).cached_anywhere
    assert not directory.entry(3).dirty


def test_linked_list_clear():
    directory = LinkedListDirectory(8)
    directory.add_sharer(3, 1)
    directory.clear(3)
    assert directory.peek(3) is None


def test_linked_list_empty_head_is_none():
    directory = LinkedListDirectory(8)
    assert directory.entry(3).head is None


def test_linked_list_node_bounds():
    directory = LinkedListDirectory(4)
    with pytest.raises(ValueError):
        directory.add_sharer(3, 4)
    with pytest.raises(ValueError):
        directory.set_exclusive(3, 9)


def test_constructors_reject_bad_sizes():
    with pytest.raises(ValueError):
        FullMapDirectory(0)
    with pytest.raises(ValueError):
        LinkedListDirectory(-1)
