"""Restoration oracle.  A test swaps the backends of its solves for
``ShadowBackend``s by patching ``fdlab.search.make_backend`` through
:func:`shadow_backends`, as ``test_oracle`` hooks ``_Search.root``.  This
module holds no tests; test modules import it by name."""

import fdlab.search


def _differs(got, expected):
    """Whether the store's ``snapshot_blob()`` ``got`` differs from the
    recorded ``expected``: the masks, their cached bounds and the Boolean
    cells must be identical; the pid states must start with the recorded
    ones, and every pid that joined after them must be idle."""
    states, n = got[4], len(expected[4])
    return got[:4] != expected[:4] or states[:n] != expected[4] or any(states[n:])


class ShadowBackend:
    """Runs a primary backend, records the store and the actions of every
    node it opens, and counts the backtracks after which the store differs
    from that record or the tail from the recorded actions.

    A backtrack that restores the target in full must leave the target
    frame's recorded state.  One that returns a tail leaves the rest of the
    recomputation to the next node, so it must leave the state recorded by
    its base frame, the last frame below the target that holds a snapshot,
    and the tail must be the actions of the frames from the base up to the
    target, in order.  A node opened right after a backtrack records the
    state its left sibling's frame recorded, since the store may still lack
    the tail."""

    def __init__(self, primary):
        self.primary = primary
        self.expected = []  # one recorded state per open frame
        self.actions = []  # one action list per open frame
        self.reopened = None  # the state a backtrack's target frame recorded
        self.mismatches = 0

    @property
    def stats(self):
        return self.primary.stats

    def open_node(self, actions):
        expected = self.reopened or self.primary.store.snapshot_blob()
        self.reopened = None
        self.expected.append(expected)
        self.actions.append(actions)
        self.primary.open_node(actions)

    def backtrack_to(self, target):
        self.reopened = self.expected[target]
        tail = self.primary.backtrack_to(target)
        base, wrong_tail = target, False
        if tail:
            frames = self.primary.frames
            base = max(i for i in range(target) if frames[i].snapshot is not None)
            wrong_tail = list(tail) != [a for acts in self.actions[base:target] for a in acts]
        if wrong_tail or _differs(self.primary.store.snapshot_blob(), self.expected[base]):
            self.mismatches += 1
        del self.expected[target:]
        del self.actions[target:]
        return tail


def shadow_backends(mp, wrap=ShadowBackend):
    """Patch, through the ``MonkeyPatch`` ``mp``, every backend a solve
    builds into ``wrap(backend)``.  Returns the list that collects the
    wrapped backends, one per solve, in order."""
    made = []
    make = fdlab.search.make_backend

    def wrapped(mode, store, replay):
        made.append(wrap(make(mode, store, replay)))
        return made[-1]

    mp.setattr(fdlab.search, "make_backend", wrapped)
    return made
